#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

BinaryMatrix permuted(const BinaryMatrix& m, ebmf::Rng& rng) {
  const auto row_perm = rng.permutation(m.rows());
  const auto col_perm = rng.permutation(m.cols());
  BinaryMatrix out(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      if (m.test(row_perm[i], col_perm[j])) out.set(i, j);
  return out;
}

double Samples::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

// ---- Checker ----------------------------------------------------------------

std::string Checker::validate(const BinaryMatrix& pattern,
                              Partition& partition) {
  ++attempted_;
  // The self-check's deliberate corruption: drop one rectangle, which
  // leaves ones uncovered, exactly like a broken solver would.
  if (corrupt_nth_ != 0 && attempted_ == corrupt_nth_ && !partition.empty())
    partition.pop_back();
  const ebmf::ValidationResult valid =
      ebmf::validate_partition(pattern, partition);
  return valid.ok ? std::string() : "invalid partition: " + valid.reason;
}

bool Checker::check(const BinaryMatrix& pattern, Partition partition,
                    Status status, std::size_t lower_bound,
                    const Reference& ref) {
  std::string why = validate(pattern, partition);
  if (!why.empty()) {
  } else if (partition.size() != ref.depth) {
    why = "depth " + std::to_string(partition.size()) + " != reference " +
          std::to_string(ref.depth);
  } else if (status != ref.status) {
    why = std::string("status ") + ebmf::engine::to_string(status) +
          " != reference " + ebmf::engine::to_string(ref.status);
  } else if (lower_bound != ref.lower_bound) {
    why = "lower bound " + std::to_string(lower_bound) + " != reference " +
          std::to_string(ref.lower_bound);
  }
  if (why.empty()) return true;
  note_failure(why);
  return false;
}

bool Checker::check_bracket(const BinaryMatrix& pattern, Partition partition,
                            std::size_t lower_bound, const Reference& ref) {
  std::string why = validate(pattern, partition);
  const std::size_t depth = partition.size();
  if (why.empty() && std::max(lower_bound, ref.lower_bound) >
                         std::min(depth, ref.depth)) {
    why = "bracket [" + std::to_string(lower_bound) + ", " +
          std::to_string(depth) + "] disjoint from reference [" +
          std::to_string(ref.lower_bound) + ", " + std::to_string(ref.depth) +
          "]";
  }
  if (why.empty()) return true;
  note_failure(why);
  return false;
}

void Checker::fail(const std::string& why) {
  ++attempted_;
  note_failure(why);
}

void Checker::note_failure(const std::string& why) {
  ++failed_;
  if (first_error_.empty()) first_error_ = why;
}

// ---- Ledger -----------------------------------------------------------------

int Ledger::record(const std::string& name, double seconds, int parent) {
  spans_.push_back(Span{name, parent, seconds});
  return static_cast<int>(spans_.size() - 1);
}

Ledger::NameStats Ledger::stats(const std::string& name) const {
  NameStats out;
  Samples us;
  for (const Span& span : spans_) {
    if (span.name != name) continue;
    ++out.calls;
    us.add(span.seconds * 1e6);
    out.busy_ms += span.seconds * 1e3;
  }
  out.p50_us = us.quantile(0.5);
  return out;
}

std::vector<double> Ledger::self_seconds() const {
  std::vector<double> self;
  for (const Span& span : spans_) self.push_back(span.seconds);
  for (const Span& span : spans_)
    if (span.parent != kNoParent)
      self[static_cast<std::size_t>(span.parent)] -= span.seconds;
  for (double& s : self) s = std::max(s, 0.0);
  return self;
}

std::map<std::string, double> Ledger::layer_self_ms() const {
  const std::vector<double> self = self_seconds();
  std::map<std::string, double> layers;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string layer =
        spans_[i].parent == kNoParent
            ? "unattributed"
            : spans_[i].name.substr(0, spans_[i].name.find('.'));
    layers[layer] += self[i] * 1e3;
  }
  return layers;
}

Samples Ledger::root_self_us() const {
  const std::vector<double> self = self_seconds();
  Samples out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent == kNoParent) out.add(self[i] * 1e6);
  return out;
}

double Ledger::root_total_ms() const {
  double total = 0.0;
  for (const Span& span : spans_)
    if (span.parent == kNoParent) total += span.seconds * 1e3;
  return total;
}

// ---- metrics ----------------------------------------------------------------

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void fill_end_to_end(const EndToEnd& e2e, Result& result) {
  auto& m = result.metrics;
  Samples rps;
  Samples latency_s;
  for (const Segment& segment : e2e.segments) {
    rps.add(segment.rps);
    for (const double x : segment.latency_s.values()) latency_s.add(x);
  }
  // The tail is p99 on every workload: a 30-second run leaves at least
  // ten samples beyond it, in the run (in-process) or in each second
  // (served).
  constexpr double tail_q = 0.99;
  double p50_s = latency_s.quantile(0.5);
  double tail_s = latency_s.quantile(tail_q);
  std::size_t beyond_tail = static_cast<std::size_t>(
      static_cast<double>(latency_s.size()) * (1.0 - tail_q));
  if (e2e.per_segment_latency) {
    Samples p50s, tails;
    for (const Segment& segment : e2e.segments) {
      if (segment.latency_s.size() == 0) continue;
      p50s.add(segment.latency_s.quantile(0.5));
      tails.add(segment.latency_s.quantile(tail_q));
      beyond_tail = std::min(
          beyond_tail, static_cast<std::size_t>(
                           static_cast<double>(segment.latency_s.size()) *
                           (1.0 - tail_q)));
    }
    p50_s = p50s.quantile(0.5);
    tail_s = tails.quantile(0.5);
  }
  m["throughput_rps"] = {rps.quantile(0.5), "1/s"};
  m["latency_p50_ms"] = {p50_s * 1e3, "ms"};
  m["latency_tail_ms"] = {tail_s * 1e3, "ms"};
  const double attempted = static_cast<double>(std::max<std::size_t>(
      result.attempted, 1));
  m["ok_share"] = {1.0 - static_cast<double>(result.failed) / attempted,
                   "ratio"};
  m["depth_sum"] = {e2e.depth_sum, "count"};
  m["lower_bound_sum"] = {e2e.lower_bound_sum, "count"};
  m["optimal_share"] = {e2e.completed == 0
                            ? 0.0
                            : static_cast<double>(e2e.optimal) /
                                  static_cast<double>(e2e.completed),
                        "ratio"};
  m["setup_s"] = {e2e.setup_s, "s"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MB"};

  char pct[16];
  std::snprintf(pct, sizeof pct, "\"p%g\"", tail_q * 100.0);
  result.record["latency_tail_percentile"] = pct;
  result.record["latency_basis"] = e2e.per_segment_latency
                                      ? "\"median of per-segment quantiles\""
                                      : "\"every solve of the run\"";
  result.record["latency_samples"] = std::to_string(latency_s.size());
  // Per segment when the quantiles are per segment (its fewest).
  result.record["latency_samples_beyond_tail"] = std::to_string(beyond_tail);
  // The pooled quantiles over every sample of the run.
  for (const double q : {0.75, 0.9, 0.99}) {
    char key[32];
    std::snprintf(key, sizeof key, "latency_p%g_ms", q * 100.0);
    result.record[key] = std::to_string(latency_s.quantile(q) * 1e3);
  }
  result.record["segments"] = std::to_string(e2e.segments.size());
  result.record["throughput_mean_rps"] = std::to_string(
      static_cast<double>(latency_s.size()) / latency_s.sum());
  result.record["completed"] = std::to_string(e2e.completed);
}

namespace {

/// Spans whose per-call p50, call count and busy time are reported.
const char* const kTimedSpans[] = {
    "engine.solve",        "net.round_trip",      "smt.sap_solve",
    "sat.solve",           "bounds.real_rank",    "packing.row_packing",
    "canon.canonicalize",  "canon.lift",          "cache.lookup",
    "io.parse_request",    "io.render_reply",     "io.binary_codec",
    "engine.validate",
};

/// Layers whose self time is reported as busy ms and share of the traced
/// requests' total time.
const char* const kLayers[] = {"io",    "canon", "cache",  "bounds",
                               "packing", "smt", "sat",    "engine",
                               "unattributed"};

/// Workload counters that exist on some workloads only; absent ones are
/// reported as 0 so every traced run prints the same metric set.
const std::pair<const char*, const char*> kCounters[] = {
    {"smt.calls", "count"},         {"sat.conflicts", "count"},
    {"sat.propagations", "count"},  {"sat.props_per_s", "1/s"},
    {"cache.hit_ratio", "ratio"},   {"cache.lookups", "count"},
    {"router.hop_us", "us"},        {"router.hop_calls", "count"},
};

}  // namespace

void fill_per_layer(const Ledger& ledger,
                    const std::map<std::string, Metric>& counters,
                    double tracing_overhead_pct, Result& result) {
  auto& m = result.metrics;
  for (const char* name : kTimedSpans) {
    const Ledger::NameStats s = ledger.stats(name);
    const std::string base = name;
    m[base + "_us"] = {s.p50_us, "us"};
    m[base + "_calls"] = {static_cast<double>(s.calls), "count"};
    m[base + "_busy_ms"] = {s.busy_ms, "ms"};
  }
  const Samples unattributed = ledger.root_self_us();
  m["unattributed_us"] = {unattributed.quantile(0.5), "us"};
  m["unattributed_busy_ms"] = {unattributed.sum() / 1e3, "ms"};

  const std::map<std::string, double> layers = ledger.layer_self_ms();
  const double total_ms = ledger.root_total_ms();
  for (const char* layer : kLayers) {
    const auto it = layers.find(layer);
    const double busy = it == layers.end() ? 0.0 : it->second;
    m[std::string("busy.") + layer + "_ms"] = {busy, "ms"};
    m[std::string("share.") + layer] = {total_ms > 0 ? busy / total_ms : 0.0,
                                        "ratio"};
  }
  for (const auto& [name, unit] : kCounters) {
    const auto it = counters.find(name);
    m[name] = it == counters.end() ? Metric{0.0, unit} : it->second;
  }
  m["trace.overhead_pct"] = {tracing_overhead_pct, "pct"};
}

}  // namespace perfbench
