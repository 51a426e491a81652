// The built-in strategies behind SolverRegistry::with_builtins().
//
// Each strategy maps a SolveRequest onto one of the library's backends and
// its backend-specific result onto the unified SolveReport: status, bounds,
// per-phase timings, and key/value telemetry. The "auto" strategy is the
// portfolio dispatcher: it picks a backend from the request's don't-cares.

#include <algorithm>
#include <utility>

#include "completion/completion_solver.h"
#include "core/bounds.h"
#include "core/row_packing.h"
#include "core/trivial.h"
#include "engine/engine.h"
#include "smt/sap.h"
#include "support/stopwatch.h"

namespace ebmf::engine {

namespace {

/// Per-component formula guard "auto" applies when the caller set none.
constexpr std::size_t kAutoSmtCellGuard = 200;

const char* to_string(sat::SolveResult r) noexcept {
  switch (r) {
    case sat::SolveResult::Sat:
      return "sat";
    case sat::SolveResult::Unsat:
      return "unsat";
    case sat::SolveResult::Unknown:
      return "unknown";
  }
  return "unknown";
}

RowPackingOptions packing_from(const SolveRequest& request) {
  RowPackingOptions packing;
  packing.trials = request.trials;
  packing.seed = request.seed;
  packing.stop_at = request.stop_at;
  packing.order = request.order;
  packing.basis_update = request.basis_update;
  packing.use_transpose = request.use_transpose;
  packing.budget = request.budget;
  return packing;
}

SolveReport solve_sap(const SolveRequest& request) {
  SapOptions options;
  options.packing = packing_from(request);
  options.encoder.encoding = request.encoding;
  options.encoder.symmetry_breaking = request.symmetry_breaking;
  options.budget = request.budget;
  options.preprocess = request.preprocess;
  options.smt_cell_limit = request.smt_cell_limit;
  SapResult result = sap_solve(request.pattern(), options);

  SolveReport report;
  report.partition = std::move(result.partition);
  // certified_lower carries fooling-set and UNSAT tightenings past the rank
  // bound, even when the budget cuts the search.
  report.lower_bound = std::max(result.rank_lower, result.certified_lower);
  switch (result.status) {
    case SapStatus::Optimal:
      report.status = Status::Optimal;
      break;
    case SapStatus::BoundedOnly:
      report.status = Status::Bounded;
      break;
    case SapStatus::HeuristicOnly:
      report.status = Status::Heuristic;
      break;
  }
  report.add_timing("rank", result.rank_seconds);
  report.add_timing("heuristic", result.heuristic_seconds);
  report.add_timing("fooling", result.fooling_seconds);
  report.add_timing("smt", result.smt_seconds);
  report.add_telemetry("heuristic.size",
                       static_cast<std::uint64_t>(result.heuristic_size));
  report.add_telemetry("bound.fooling",
                       static_cast<std::uint64_t>(result.fooling_size));
  report.add_telemetry("smt.calls",
                       static_cast<std::uint64_t>(result.smt_calls.size()));
  if (!result.smt_calls.empty()) {
    report.add_telemetry("smt.last_result",
                         to_string(result.smt_calls.back().result));
    report.add_telemetry(
        "smt.last_bound",
        static_cast<std::uint64_t>(result.smt_calls.back().bound));
  }
  report.add_telemetry("sat.conflicts", result.smt_stats.conflicts);
  report.add_telemetry("sat.decisions", result.smt_stats.decisions);
  report.add_telemetry("sat.propagations", result.smt_stats.propagations);
  report.add_telemetry("sat.restarts", result.smt_stats.restarts);
  report.add_telemetry("sat.learned_clauses",
                       result.smt_stats.learned_clauses);
  report.add_telemetry("sat.arena_bytes", result.smt_stats.arena_bytes);
  report.add_telemetry("sat.arena_gcs", result.smt_stats.arena_gcs);
  return report;
}

/// Rank lower bound + one multi-trial row-packing run (Algorithm 2),
/// Optimal exactly when they meet.
SolveReport solve_heuristic(const SolveRequest& request) {
  SolveReport report;
  const BinaryMatrix& m = request.pattern();
  if (m.is_zero()) {
    report.status = Status::Optimal;
    return report;
  }
  Stopwatch phase;
  report.lower_bound = real_rank(m);
  report.add_timing("rank", phase.seconds());

  RowPackingOptions packing = packing_from(request);
  if (packing.stop_at == 0) packing.stop_at = report.lower_bound;
  phase.restart();
  RowPackingResult packed = row_packing_ebmf(m, packing);
  report.add_timing("heuristic", phase.seconds());
  report.partition = std::move(packed.partition);
  report.status = report.partition.size() == report.lower_bound
                      ? Status::Optimal
                      : Status::Heuristic;
  report.add_telemetry("packing.trials_run",
                       static_cast<std::uint64_t>(packed.trials_run));
  report.add_telemetry("packing.from_transpose",
                       packed.from_transpose ? "1" : "0");
  return report;
}

SolveReport solve_trivial(const SolveRequest& request) {
  SolveReport report;
  const BinaryMatrix& m = request.pattern();
  if (m.is_zero()) {
    report.status = Status::Optimal;
    return report;
  }
  Stopwatch phase;
  report.lower_bound = real_rank(m);
  report.add_timing("rank", phase.seconds());
  phase.restart();
  report.partition = trivial_ebmf(m);
  report.add_timing("heuristic", phase.seconds());
  report.status = report.partition.size() == report.lower_bound
                      ? Status::Optimal
                      : Status::Heuristic;
  return report;
}

/// A mask-free wrapper so the completion backend accepts dense requests.
completion::MaskedMatrix mask_free(const BinaryMatrix& m) {
  completion::MaskedMatrix masked(m.rows(), m.cols());
  for (const auto& [i, j] : m.ones())
    masked.set(i, j, completion::Cell::One);
  return masked;
}

SolveReport solve_completion(const SolveRequest& request) {
  const completion::MaskedMatrix masked =
      request.masked ? *request.masked : mask_free(request.matrix);
  completion::CompletionOptions options;
  options.semantics = request.semantics;
  options.packing = packing_from(request);
  options.budget = request.budget;
  const completion::CompletionResult result =
      completion::solve_masked(masked, options);

  SolveReport report;
  report.partition = result.partition;
  report.add_timing("completion", result.seconds);
  report.lower_bound = result.lower_bound;
  if (result.proven_optimal) {
    report.status = Status::Optimal;
    // The UNSAT proof certifies the depth even when the fooling bound lags.
    report.lower_bound = report.partition.size();
  } else {
    report.status = Status::Bounded;
  }
  report.add_telemetry("completion.heuristic_size",
                       static_cast<std::uint64_t>(result.heuristic_size));
  report.add_telemetry(
      "completion.dont_cares",
      static_cast<std::uint64_t>(masked.dont_care_count()));
  report.add_telemetry("completion.semantics",
                       request.semantics ==
                               completion::DontCareSemantics::AtMostOnce
                           ? "at-most-once"
                           : "free");
  return report;
}

/// Don't-cares go to `completion`; every other pattern goes to `sap`, which
/// keeps SMT to the components under the cell guard and gives the rest its
/// certified bracket.
SolveReport solve_auto(const SolveRequest& request) {
  SolveRequest sub = request;
  sub.strategy = request.has_dont_cares() ? "completion" : "sap";
  if (sub.strategy == "sap" && sub.smt_cell_limit == 0)
    sub.smt_cell_limit = kAutoSmtCellGuard;

  SolveReport report =
      sub.strategy == "sap" ? solve_sap(sub) : solve_completion(sub);
  report.strategy = sub.strategy;
  report.add_telemetry("auto.selected", sub.strategy);
  return report;
}

}  // namespace

SolverRegistry SolverRegistry::with_builtins() {
  SolverRegistry registry;
  registry.add("sap", "SMT-and-packing (Algorithm 1): exact with anytime "
                      "heuristic fallback",
               solve_sap);
  registry.add("heuristic", "multi-trial row packing (Algorithm 2) with a "
                            "rank certificate",
               solve_heuristic);
  registry.add("trivial", "consolidated single-row/column partition",
               solve_trivial);
  registry.add("completion", "don't-care-aware SAT minimization (masked "
                             "patterns)",
               solve_completion);
  registry.add("auto", "portfolio: completion for patterns with don't-cares, "
                       "sap under a 200-cell SMT guard otherwise",
               solve_auto);
  return registry;
}

}  // namespace ebmf::engine
