// Engine: strategy resolution, report finalization/validation, batch
// execution, the component-parallel solve, and the result-cache hook.

#include <algorithm>
#include <utility>

#include "core/preprocess.h"
#include "engine/engine.h"
#include "engine/thread_pool.h"
#include "service/cache.h"
#include "service/canon.h"
#include "support/stopwatch.h"

namespace ebmf::engine {

namespace {

/// Weakest status wins when merging component reports: a single budget-cut
/// piece (Bounded) leaves the whole answer budget-dependent; otherwise a
/// single piece without a bound search (Heuristic) leaves it heuristic.
Status merge_status(Status a, Status b) {
  if (a == Status::Bounded || b == Status::Bounded) return Status::Bounded;
  if (a == Status::Heuristic || b == Status::Heuristic)
    return Status::Heuristic;
  return Status::Optimal;
}

/// True when `a` is a strictly better answer than `b` for the same
/// pattern: an optimality certificate first, then smaller depth, then
/// tighter bound. Bounded and Heuristic answers are both brackets, so they
/// compare by the bracket alone.
bool strictly_better(const SolveReport& a, const SolveReport& b) {
  const bool a_optimal = a.status == Status::Optimal;
  if (a_optimal != (b.status == Status::Optimal)) return a_optimal;
  if (a.depth() != b.depth()) return a.depth() < b.depth();
  return a.lower_bound > b.lower_bound;
}

/// Settle the anytime fields once upper_bound is final. Establishes the
/// report contract: a matching bracket promotes to Optimal, Optimal pins
/// lower == upper, and gap == upper − lower — so gap == 0 iff the answer is certified optimal
/// for every solve that produced a partition.
void finalize_anytime(SolveReport& report) {
  if (!report.partition.empty() &&
      report.lower_bound == report.upper_bound)
    report.status = Status::Optimal;
  if (report.status == Status::Optimal) report.lower_bound = report.upper_bound;
  report.gap = report.upper_bound > report.lower_bound
                   ? report.upper_bound - report.lower_bound
                   : 0;
}

}  // namespace

SolveReport Engine::run_checked(const SolveRequest& request) const {
  const SolverRegistry::Entry* entry = registry_.find(request.strategy);
  if (entry == nullptr)
    throw UnknownStrategyError(request.strategy, registry_.names());

  // Masked requests bypass the cache: don't-care cells are not part of the
  // canonical form and two masks with equal DC-as-0 patterns differ.
  if (cache_ && !request.masked) return run_cached(*entry, request);

  Stopwatch total;
  const std::uint64_t solve_start =
      request.trace ? obs::steady_micros() : 0;
  SolveReport report = entry->solve(request);
  if (request.trace) {
    request.trace->record("engine.solve", obs::new_span_id(),
                          request.trace->context().parent_span, solve_start,
                          obs::steady_micros());
  }
  report.label = request.label;
  if (report.strategy.empty()) report.strategy = request.strategy;
  report.upper_bound = report.depth();
  report.total_seconds = total.seconds();
  finalize_anytime(report);

  // The facade's contract: every report's partition is a valid witness.
  if (request.masked) {
    std::string why;
    const bool at_most_once =
        request.semantics == completion::DontCareSemantics::AtMostOnce;
    EBMF_ENSURES(completion::validate_masked(*request.masked,
                                             report.partition, at_most_once,
                                             &why));
  } else {
    EBMF_ENSURES(
        static_cast<bool>(validate_partition(request.matrix,
                                             report.partition)));
  }
  EBMF_ENSURES(report.partition.empty() ||
               report.depth() >= report.lower_bound);
  return report;
}

SolveReport Engine::run_precanonical(const SolverRegistry::Entry& entry,
                                     const SolveRequest& request) const {
  Stopwatch total;
  const obs::TracePtr& trace = request.trace;
  const std::uint64_t span_parent = trace ? trace->context().parent_span : 0;
  // The caller (the router's binary fast path) already canonicalized: the
  // pattern arrives in canonical form with its 128-bit key, so there is no
  // canon pass here and the lift is the identity. Lookup still compares the
  // full stored pattern and every partition is validated below.
  const canon::CacheKey key =
      canon::CacheKey{request.canon_hi, request.canon_lo}.mixed_with(
          request.strategy);

  SolveReport report;
  std::uint64_t span_start = trace ? obs::steady_micros() : 0;
  std::optional<cache::CachedResult> cached =
      cache_->lookup(key, request.strategy, request.matrix);
  if (trace) {
    trace->record("engine.cache_lookup", obs::new_span_id(), span_parent,
                  span_start, obs::steady_micros());
  }
  const bool retry_for_upgrade =
      cached && cached->report.status == Status::Bounded &&
      !request.budget.exhausted() &&
      request.budget.deadline.remaining_seconds() >
          2.0 * cached->report.total_seconds + 0.01;
  bool served_from_cache = cached.has_value() && !retry_for_upgrade;
  const char* upgrade = nullptr;
  if (!served_from_cache) {
    SolveRequest sub = request;
    sub.masked.reset();
    sub.label.clear();
    span_start = trace ? obs::steady_micros() : 0;
    report = entry.solve(sub);
    if (trace) {
      trace->record("engine.solve", obs::new_span_id(), span_parent,
                    span_start, obs::steady_micros());
    }
    if (report.strategy.empty()) report.strategy = request.strategy;
    report.upper_bound = report.depth();
    report.total_seconds = total.seconds();
    cache_->insert(key, request.strategy, request.matrix, report);
    if (retry_for_upgrade) {
      if (strictly_better(cached->report, report)) {
        served_from_cache = true;
        upgrade = "retry-kept-stored";
      } else {
        upgrade = "retry";
      }
    }
  }
  if (served_from_cache) report = std::move(cached->report);
  report.add_telemetry("cache_hit", served_from_cache ? "true" : "false");
  if (upgrade != nullptr) report.add_telemetry("cache.upgrade", upgrade);

  report.label = request.label;
  if (report.strategy.empty()) report.strategy = request.strategy;
  report.upper_bound = report.depth();
  report.add_telemetry("canon.key", key.hex());
  report.add_telemetry("canon.precanonical", "true");
  const cache::CacheStats stats = cache_->counters();
  report.add_telemetry("cache.hits", stats.hits);
  report.add_telemetry("cache.misses", stats.misses);
  report.add_telemetry("cache.evictions", stats.evictions);
  report.total_seconds = total.seconds();
  finalize_anytime(report);

  EBMF_ENSURES(static_cast<bool>(
      validate_partition(request.matrix, report.partition)));
  EBMF_ENSURES(report.partition.empty() ||
               report.depth() >= report.lower_bound);
  return report;
}

SolveReport Engine::run_cached(const SolverRegistry::Entry& entry,
                               const SolveRequest& request) const {
  if (request.pre_canonical) return run_precanonical(entry, request);
  Stopwatch total;
  Stopwatch phase;
  // Traced requests get a span per stage; `span_parent` is the caller's
  // enclosing span (the server's request root), so the engine's stages
  // render as its children.
  const obs::TracePtr& trace = request.trace;
  const std::uint64_t span_parent =
      trace ? trace->context().parent_span : 0;
  std::uint64_t span_start = trace ? obs::steady_micros() : 0;
  const canon::Canonical canonical = canon::canonicalize(request.matrix);
  const double canon_seconds = phase.seconds();
  if (trace) {
    trace->record("engine.canon", obs::new_span_id(), span_parent,
                  span_start, obs::steady_micros());
  }
  // The key distinguishes strategies: a heuristic answer must not shadow a
  // pending "sap" certificate and vice versa. Tuning knobs (trials, seed,
  // encoding) are deliberately not part of the key — every stored partition
  // is a valid answer for the pattern, and the upgrade-only insert policy
  // keeps the strongest one seen.
  const canon::CacheKey key = canonical.key.mixed_with(request.strategy);

  SolveReport report;
  span_start = trace ? obs::steady_micros() : 0;
  std::optional<cache::CachedResult> cached =
      cache_->lookup(key, request.strategy, canonical.pattern);
  if (trace) {
    trace->record("engine.cache_lookup", obs::new_span_id(), span_parent,
                  span_start, obs::steady_micros());
  }
  // A Bounded entry is a budget-cut search; when this request can afford
  // meaningfully more time than the stored attempt spent, re-solve and let
  // the upgrade-only insert keep the better answer. Optimal entries are
  // final, and Heuristic entries would return the same answer regardless
  // of budget (the deadline shaped no bound), so both serve.
  const bool retry_for_upgrade =
      cached && cached->report.status == Status::Bounded &&
      !request.budget.exhausted() &&
      request.budget.deadline.remaining_seconds() >
          2.0 * cached->report.total_seconds + 0.01;
  bool served_from_cache = cached.has_value() && !retry_for_upgrade;
  const char* upgrade = nullptr;
  if (!served_from_cache) {
    // Solve the canonical pattern itself: the cache stays in canonical
    // space, and the strategy benefits from the deduplicated instance.
    SolveRequest sub = request;
    sub.matrix = canonical.pattern;
    sub.masked.reset();
    sub.label.clear();
    span_start = trace ? obs::steady_micros() : 0;
    report = entry.solve(sub);
    if (trace) {
      trace->record("engine.solve", obs::new_span_id(), span_parent,
                    span_start, obs::steady_micros());
    }
    if (report.strategy.empty()) report.strategy = request.strategy;
    report.upper_bound = report.depth();
    report.total_seconds = total.seconds();  // what this attempt cost
    cache_->insert(key, request.strategy, canonical.pattern, report);
    if (retry_for_upgrade) {
      // A retry cut short (cancellation, contention) can come back weaker
      // than the certificate it tried to beat — never serve that.
      if (strictly_better(cached->report, report)) {
        served_from_cache = true;
        upgrade = "retry-kept-stored";
      } else {
        upgrade = "retry";
      }
    }
  }
  if (served_from_cache) report = std::move(cached->report);
  phase.restart();
  span_start = trace ? obs::steady_micros() : 0;
  report.partition = canon::lift(report.partition, canonical);
  if (trace) {
    trace->record("engine.lift", obs::new_span_id(), span_parent,
                  span_start, obs::steady_micros());
  }
  report.add_timing("cache.lift", phase.seconds());
  report.add_telemetry("cache_hit", served_from_cache ? "true" : "false");
  if (upgrade != nullptr) report.add_telemetry("cache.upgrade", upgrade);

  report.label = request.label;
  if (report.strategy.empty()) report.strategy = request.strategy;
  report.upper_bound = report.depth();
  report.add_timing("canon", canon_seconds);
  report.add_telemetry("canon.key", key.hex());
  report.add_telemetry(
      "canon.shape", std::to_string(canonical.pattern.rows()) + "x" +
                         std::to_string(canonical.pattern.cols()));
  report.add_telemetry("canon.components",
                       static_cast<std::uint64_t>(canonical.components.size()));
  const cache::CacheStats stats = cache_->counters();
  report.add_telemetry("cache.hits", stats.hits);
  report.add_telemetry("cache.misses", stats.misses);
  report.add_telemetry("cache.evictions", stats.evictions);
  report.total_seconds = total.seconds();
  finalize_anytime(report);

  EBMF_ENSURES(static_cast<bool>(
      validate_partition(request.matrix, report.partition)));
  EBMF_ENSURES(report.partition.empty() ||
               report.depth() >= report.lower_bound);
  return report;
}

SolveReport Engine::solve(const SolveRequest& request) const {
  return run_checked(request);
}

std::vector<SolveReport> Engine::solve_batch(
    const std::vector<SolveRequest>& requests, std::size_t threads) const {
  std::vector<SolveReport> reports(requests.size());
  parallel_for(requests.size(), threads, [&](std::size_t i) {
    try {
      reports[i] = run_checked(requests[i]);
    } catch (const std::exception& e) {
      SolveReport failed;
      failed.label = requests[i].label;
      failed.strategy = requests[i].strategy;
      failed.add_telemetry("error", e.what());
      reports[i] = std::move(failed);
    }
  });
  return reports;
}

SolveReport Engine::solve_split(const SolveRequest& request,
                                std::size_t threads) const {
  // Masked patterns do not split (a don't-care can bridge components of
  // the DC-as-0 pattern), and unknown names should throw before any work.
  if (request.masked) return solve(request);
  if (!registry_.contains(request.strategy))
    throw UnknownStrategyError(request.strategy, registry_.names());

  Stopwatch total;
  Stopwatch phase;
  const DuplicateReduction reduction = reduce_duplicates(request.matrix);
  const std::vector<Component> components =
      split_components(reduction.reduced);
  const double split_seconds = phase.seconds();

  // One giant component serializes the whole pool while the merge still
  // pays the reduce/lift overhead — fall back to the plain path and let the
  // strategy's own preprocessing handle the few stray ones. 90% is the
  // share past which the parallel speedup cannot reach ~1.1x.
  constexpr double kGiantComponentShare = 0.9;
  std::size_t largest_ones = 0;
  for (const Component& component : components)
    largest_ones = std::max(largest_ones, component.matrix.ones_count());
  const std::size_t total_ones = reduction.reduced.ones_count();
  if (components.size() <= 1 ||
      static_cast<double>(largest_ones) >=
          kGiantComponentShare * static_cast<double>(total_ones)) {
    SolveReport whole = run_checked(request);
    whole.add_telemetry("split.fallback", components.size() <= 1
                                              ? "single-component"
                                              : "giant-component");
    whole.add_telemetry("split.components",
                        static_cast<std::uint64_t>(components.size()));
    return whole;
  }

  std::vector<SolveRequest> subs;
  subs.reserve(components.size());
  for (std::size_t c = 0; c < components.size(); ++c) {
    SolveRequest sub = request;
    sub.matrix = components[c].matrix;
    sub.masked.reset();
    sub.preprocess = false;  // already deduplicated and split
    sub.label = request.label + "#" + std::to_string(c);
    subs.push_back(std::move(sub));
  }

  std::vector<SolveReport> reports(subs.size());
  parallel_for(subs.size(), threads,
               [&](std::size_t i) { reports[i] = run_checked(subs[i]); });

  SolveReport merged;
  merged.label = request.label;
  merged.strategy = request.strategy;
  merged.status = Status::Optimal;
  merged.add_timing("split", split_seconds);
  Partition reduced_partition;
  for (std::size_t c = 0; c < reports.size(); ++c) {
    Partition lifted =
        lift_partition(reports[c].partition, components[c],
                       reduction.reduced.rows(), reduction.reduced.cols());
    reduced_partition.insert(reduced_partition.end(),
                             std::make_move_iterator(lifted.begin()),
                             std::make_move_iterator(lifted.end()));
    merged.lower_bound += reports[c].lower_bound;
    merged.status = merge_status(merged.status, reports[c].status);
    for (const auto& t : reports[c].timings)
      merged.add_timing(t.phase, t.seconds);
  }
  merged.partition = expand_partition(reduced_partition, reduction);
  merged.upper_bound = merged.depth();
  merged.add_telemetry("split.components",
                       static_cast<std::uint64_t>(components.size()));
  merged.add_telemetry(
      "split.reduced_shape",
      std::to_string(reduction.reduced.rows()) + "x" +
          std::to_string(reduction.reduced.cols()));
  merged.total_seconds = total.seconds();
  finalize_anytime(merged);

  EBMF_ENSURES(static_cast<bool>(
      validate_partition(request.matrix, merged.partition)));
  EBMF_ENSURES(merged.partition.empty() ||
               merged.depth() >= merged.lower_bound);
  return merged;
}

}  // namespace ebmf::engine
