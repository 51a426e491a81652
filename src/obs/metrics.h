#pragma once
/// \file metrics.h
/// \brief Process-wide metrics core (`ebmf::obs`): counters, gauges, and
/// log-linear-bucket latency histograms behind a lock-striped registry.
///
/// Design goals, in order:
///
///  * **Hot-path cheapness.** Recording is one or two relaxed atomic RMWs —
///    no locks, no allocation, no floating point. Instrumentation sites
///    resolve their series once (`Registry::counter(name)` returns a stable
///    pointer that lives as long as the registry) and then record through
///    the pointer. This is what lets the SAT solver's propagation
///    accounting, the result-cache hit path, and the router's pool dispatch
///    afford to be measured in flight.
///  * **Quantiles without sorting.** `Histogram` buckets values on a
///    log-linear grid (HdrHistogram-style: power-of-two octaves split into
///    2^kSubBits linear sub-buckets), so p50/p90/p99/max are derived by a
///    counting walk over ~2k fixed buckets with bounded relative error
///    (≤ 2^-kSubBits ≈ 3.2%), never by sorting samples.
///  * **Lock-striped naming.** Series live in a name→series map split over
///    independently locked stripes; creating or re-resolving a series takes
///    one stripe mutex, so concurrent lookups from many connections rarely
///    contend. Series are never deleted, which is what makes the returned
///    pointers safe to cache.
///
/// Naming scheme: dotted `tier.component.series`, e.g.
/// `server.request.micros` or `router.pool.dispatch_total`. Dots become
/// underscores (with an `ebmf_` prefix) in the Prometheus exposition.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace ebmf::obs {

/// Monotonic counter. Record with relaxed atomics; read with acquire-free
/// loads (monotonicity is all exposition needs).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous signed value (inflight requests, resident bytes, ...).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  /// Returns the value after the add (admission control checks its limit
  /// against it, so the gauge is the in-flight count itself).
  std::int64_t add(std::int64_t n) noexcept {
    return value_.fetch_add(n, std::memory_order_relaxed) + n;
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Log-linear-bucket histogram over non-negative integer samples
/// (microseconds by convention; series names end in `.micros`).
///
/// Bucket layout: values below 2^kSubBits get one bucket each (exact);
/// larger values share an octave [2^e, 2^{e+1}) split into 2^kSubBits
/// linear sub-buckets. A recorded value maps to its bucket with two bit
/// operations; quantiles report the bucket's inclusive upper bound, so the
/// estimate never undershoots the true quantile by more than one bucket
/// width (relative error ≤ 2^-kSubBits).
class Histogram {
 public:
  /// Sub-bucket resolution: 2^5 = 32 linear steps per octave → ≤3.2%
  /// relative quantile error, 1888 buckets ≈ 15 KiB per histogram.
  static constexpr unsigned kSubBits = 5;
  static constexpr unsigned kSubCount = 1u << kSubBits;
  /// Octaves above the linear range: exponents kSubBits..62 inclusive, each
  /// with kSubCount sub-buckets, plus the kSubCount exact low buckets.
  static constexpr std::size_t kBucketCount =
      kSubCount + (63 - kSubBits) * kSubCount;

  void record(std::uint64_t value) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Largest recorded sample, exact (not bucket-rounded).
  [[nodiscard]] std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }

  /// The value at quantile `q` in [0,1]: inclusive upper bound of the
  /// bucket containing the ceil(q*count)-th smallest sample (0 when empty).
  /// The result is clamped to max() so p100 is exact.
  [[nodiscard]] std::uint64_t quantile(double q) const noexcept;

  /// Fold another histogram into this one: buckets, count, and sum add;
  /// max takes the larger. Both histograms share the fixed log-linear
  /// layout, so bucket-wise addition is exact regardless of which octaves
  /// each populated — the cumulative `le` exposition of the merged result
  /// stays monotone (the federation merge and its property test rely on
  /// this). Concurrent record()s on either side are tolerated (relaxed
  /// reads), with the usual point-in-time fuzziness.
  void merge_from(const Histogram& other) noexcept;

  /// Bucket index for `value` (exposed for tests and exposition).
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t value) noexcept;
  /// Inclusive upper bound of bucket `index`.
  [[nodiscard]] static std::uint64_t bucket_upper(std::size_t index) noexcept;

  /// Non-empty buckets as (inclusive upper bound, count) pairs in
  /// increasing value order — the Prometheus exposition walks this.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>>
  nonzero_buckets() const;

 private:
  std::atomic<std::uint64_t> buckets_[kBucketCount] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// One registered series, for snapshot consumers.
struct SeriesSnapshot {
  enum class Kind { Counter, Gauge, Histogram };
  std::string name;
  Kind kind = Kind::Counter;
  std::int64_t value = 0;  ///< Counter/gauge value.
  // Histogram summary (valid when kind == Histogram):
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
};

/// Lock-striped name → series registry. Series are created on first use
/// and never removed; the returned pointers are stable for the registry's
/// lifetime, so call sites resolve once and record through the pointer.
class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Resolve-or-create. A name resolves to exactly one kind; asking for a
  /// different kind under an existing name returns the existing series'
  /// slot as null — callers must not mix kinds per name.
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// Point-in-time copy of every series, sorted by name. Histograms carry
  /// derived p50/p90/p99/max plus their non-empty buckets.
  [[nodiscard]] std::vector<SeriesSnapshot> snapshot() const;

 private:
  struct Impl;
  Impl* impl_;
};

/// The process-wide registry the solver and cache layers record into. Each
/// tier instance keeps its own series in its net::Host's registry; tests
/// construct private `Registry` instances too.
Registry& default_registry();

/// JSON object (no surrounding braces are omitted — the full `{...}`) that
/// `{"op":"stats"}` splices in as its `metrics` block: counters/gauges as
/// numbers, histograms as `{count,sum,max,p50,p90,p99}` (micros).
[[nodiscard]] std::string metrics_json(const Registry& registry);

/// Prometheus text exposition (version 0.0.4): dotted names become
/// `ebmf_`-prefixed underscore names; histograms emit cumulative
/// `_bucket{le=...}` lines plus `_sum`/`_count`.
[[nodiscard]] std::string prometheus_text(const Registry& registry);

}  // namespace ebmf::obs
