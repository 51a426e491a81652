#pragma once
// Shared pieces of the ebmf benchmark: run configuration, exact sample
// quantiles, the answer checker, the span ledger of the traced run, and
// the metric table every workload fills in.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/matrix.h"
#include "core/partition.h"
#include "engine/engine.h"
#include "support/rng.h"

namespace perfbench {

using ebmf::BinaryMatrix;
using ebmf::Partition;
using ebmf::engine::Status;

// ---- configuration ----------------------------------------------------------

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;        ///< Self-check sizes: every workload in ~1 s.
  std::size_t corrupt = 0;  ///< Corrupt the N-th checked answer (0 = off).

  /// Set-ups per run; setup_s is their median.
  [[nodiscard]] std::size_t setup_reps() const { return tiny ? 1 : 3; }
};

double seconds_since(std::chrono::steady_clock::time_point start);

/// Every workload builds its base inputs from this fixed seed (bench_table1's
/// default) and lets the run seed pick their orientations: row and column
/// permutations, which leave every answer's depth and bound unchanged. Runs
/// thus solve the same suites in fresh orientations, and differ by how the
/// program copes with the orientation, not by which instances a draw made.
constexpr std::uint64_t kBaseSeed = 2024;

/// A uniformly random row and column permutation of `m`.
BinaryMatrix permuted(const BinaryMatrix& m, ebmf::Rng& rng);

// ---- samples ----------------------------------------------------------------

/// Every observation kept, so quantiles are exact (no histogram buckets).
class Samples {
 public:
  void add(double x) { values_.push_back(x); }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] double sum() const;
  [[nodiscard]] const std::vector<double>& values() const { return values_; }
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;

 private:
  std::vector<double> values_;
};


// ---- correctness ------------------------------------------------------------

/// What an instance's answer must be: the planted optimum where the
/// generator knows it, otherwise the converged reference solve.
struct Reference {
  std::size_t depth = 0;
  Status status = Status::Heuristic;
  std::size_t lower_bound = 0;
};

/// Tallies every checked answer; the run fails on any mismatch.
class Checker {
 public:
  explicit Checker(std::size_t corrupt_nth) : corrupt_nth_(corrupt_nth) {}

  /// Validate `partition` against `pattern` and compare depth, status and
  /// lower bound with `ref`. Returns true when the answer is right.
  bool check(const BinaryMatrix& pattern, Partition partition, Status status,
             std::size_t lower_bound, const Reference& ref);
  /// The check for a fresh orientation of an instance, whose answer may
  /// differ from the reference's but must agree on r_B: the answer's
  /// bracket [lower bound, depth] must intersect the reference's (an
  /// optimal answer's bracket is its depth alone).
  bool check_bracket(const BinaryMatrix& pattern, Partition partition,
                     std::size_t lower_bound, const Reference& ref);
  /// A request that failed outright (transport error, error reply).
  void fail(const std::string& why);

  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] const std::string& first_error() const { return first_error_; }

 private:
  void note_failure(const std::string& why);
  /// Count one answer; validate it (corrupting the chosen one first).
  std::string validate(const BinaryMatrix& pattern, Partition& partition);

  std::size_t corrupt_nth_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::string first_error_;
};

// ---- traced run -------------------------------------------------------------

/// Spans of the traced run, kept in memory and summarized at the end.
/// Every span has a name "<layer>.<function>", a parent, and a duration.
/// The benchmark records them around its own calls into each layer's
/// public function; a replayed call is recorded under the request it
/// replays, so a span's self time is its duration minus its children's
/// durations even where the children ran after it.
class Ledger {
 public:
  static constexpr int kNoParent = -1;

  /// Record a finished span under `parent`; returns its id.
  int record(const std::string& name, double seconds, int parent);

  /// Time `fn()` as a span under `parent`.
  template <typename F>
  auto timed(const std::string& name, int parent, F&& fn) {
    const auto start = std::chrono::steady_clock::now();
    auto result = fn();
    record(name, seconds_since(start), parent);
    return result;
  }

  struct NameStats {
    std::size_t calls = 0;
    double p50_us = 0.0;
    double busy_ms = 0.0;  ///< Sum of durations.
  };
  [[nodiscard]] NameStats stats(const std::string& name) const;

  /// Self time (duration minus children) summed per layer, in ms. The
  /// self time of root spans is filed under "unattributed".
  [[nodiscard]] std::map<std::string, double> layer_self_ms() const;
  /// Per-root self times in microseconds.
  [[nodiscard]] Samples root_self_us() const;
  /// Sum of root durations in ms.
  [[nodiscard]] double root_total_ms() const;

 private:
  struct Span {
    std::string name;
    int parent;
    double seconds;
  };
  /// Per-span self seconds: duration minus the children's durations.
  [[nodiscard]] std::vector<double> self_seconds() const;

  std::vector<Span> spans_;
};

// ---- results ----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.
struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string first_error;
  std::map<std::string, Metric> metrics;
  /// Extra fields of the run's record line (sample counts, percentile
  /// used, pinned thread counts, ...), rendered as JSON values.
  std::map<std::string, std::string> record;
};

/// One stretch of a run: a pass over the instance set (in-process) or
/// one second of closed-loop load (served).
struct Segment {
  double rps = 0.0;  ///< Completed solves per second of the segment.
  Samples latency_s;
};

/// End-to-end metrics shared by every workload. Throughput is the median
/// of the segments' throughputs, so a stretch in which the machine slowed
/// moves it little. The pooled latency quantiles over every timed solve or
/// request of the run are always recorded.
struct EndToEnd {
  std::vector<Segment> segments;  ///< In wall-clock order.
  std::size_t completed = 0;
  /// Report each latency quantile as the median over the segments of the
  /// segment's quantile (served: thousands of requests a segment), instead
  /// of the pooled one (in-process: a pass is too few solves for a tail).
  bool per_segment_latency = false;
  double depth_sum = 0.0;
  double lower_bound_sum = 0.0;
  std::size_t optimal = 0;  ///< Completed answers certified optimal.
  double setup_s = 0.0;
};

void fill_end_to_end(const EndToEnd& e2e, Result& result);

/// Every per-layer metric, zero where the workload never touched the
/// layer, from the ledger plus workload counters in `counters`.
void fill_per_layer(const Ledger& ledger,
                    const std::map<std::string, Metric>& counters,
                    double tracing_overhead_pct, Result& result);

/// Peak resident set of this process, MB.
double peak_rss_mb();

/// Build the workload's state `reps` times (tearing the previous one down
/// outside the clock) and keep the last; `*setup_s` gets the median build
/// time. Set-up is input generation, tier start and the warm-up pass.
template <typename Make>
auto setup_median(std::size_t reps, double* setup_s, Make make) {
  Samples times;
  decltype(make()) state;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    state = nullptr;
    const auto start = std::chrono::steady_clock::now();
    state = make();
    times.add(seconds_since(start));
  }
  *setup_s = times.quantile(0.5);
  return state;
}

// ---- workloads --------------------------------------------------------------

Result run_exact_paper(const RunConfig& config);
Result run_warm_routed(const RunConfig& config);

}  // namespace perfbench
