// The built-in strategies behind SolverRegistry::with_builtins().
//
// Each strategy maps a SolveRequest onto one of the library's backends and
// its backend-specific result onto the unified SolveReport: status, bounds,
// per-phase timings, and key/value telemetry. The "auto" strategy is the
// portfolio dispatcher: it picks a backend from instance size/density and
// don't-cares.

#include <algorithm>
#include <cstdio>
#include <utility>

#include "completion/completion_solver.h"
#include "core/bounds.h"
#include "core/row_packing.h"
#include "core/trivial.h"
#include "engine/engine.h"
#include "engine/portfolio_cutoffs.h"
#include "local/local_search.h"
#include "local/probe_bounds.h"
#include "smt/sap.h"
#include "support/stopwatch.h"

namespace ebmf::engine {

namespace {

// The "auto" size/density cutoffs live in portfolio_cutoffs.h — generated
// by tools/fit_portfolio.py from bench_table1 trajectories, not hand-tuned.

/// Per-component formula guard "auto" applies when the caller set none.
constexpr std::size_t kAutoSmtCellGuard = 200;
/// 1-count ceiling for the partial-SAP refinement the `local` strategy
/// appends when budget remains and the gap is open.
constexpr std::size_t kLocalSapRefineOnes = 300;
/// Most incumbents spelled out in the local.trajectory telemetry string.
constexpr std::size_t kLocalTrajectoryCap = 32;

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
  options.probes = request.probes;
  SapResult result = sap_solve(request.pattern(), options);

  SolveReport report;
  report.partition = std::move(result.partition);
  // certified_lower carries fooling-set and UNSAT tightenings past the rank
  // bound (the race can certify one even when the budget cuts the search).
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
  if (result.probes_used > 1) {
    report.add_telemetry("sap.probes",
                         static_cast<std::uint64_t>(result.probes_used));
    report.add_telemetry("sap.probe.waves",
                         static_cast<std::uint64_t>(result.probe_waves));
    report.add_telemetry("sap.probe.calls",
                         static_cast<std::uint64_t>(result.probe_calls));
    report.add_telemetry(
        "sap.probe.cancelled",
        static_cast<std::uint64_t>(result.probes_cancelled));
  }
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
  report.lower_bound = completion::masked_fooling_lower_bound(masked);
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

/// The anytime tier: probe cheap certified lower bounds, run the local
/// search under the shared budget, then (small instances only) let a
/// partial SAP pass try to close the remaining gap.
SolveReport solve_local(const SolveRequest& request) {
  SolveReport report;
  const BinaryMatrix& m = request.pattern();
  if (m.is_zero()) {
    report.status = Status::Optimal;
    return report;
  }

  Stopwatch phase;
  const local::BoundProbes probes =
      local::probe_lower_bounds(m, request.budget, request.seed);
  report.add_timing("bounds", phase.seconds());
  report.lower_bound = probes.best;
  report.add_telemetry("local.bound.source", probes.source);
  report.add_telemetry("local.bound.rank",
                       static_cast<std::uint64_t>(probes.rank));
  report.add_telemetry("local.bound.counting",
                       static_cast<std::uint64_t>(probes.counting));
  if (probes.fooling != 0)
    report.add_telemetry("local.bound.fooling",
                         static_cast<std::uint64_t>(probes.fooling));

  local::LocalSearchOptions options;
  options.seed = request.seed;
  options.budget = request.budget;
  options.stop_at = std::max(request.stop_at, report.lower_bound);
  options.max_moves = request.budget.max_nodes;  // node cap = move cap here
  options.seed_trials =
      std::clamp<std::size_t>(request.trials, std::size_t{1}, std::size_t{8});
  phase.restart();
  // Live progress: one frame when the bounds are known ("seed") and one per
  // improving incumbent ("search"). No-ops when nobody attached a sink.
  const std::uint64_t lower = report.lower_bound;
  {
    obs::ProgressFrame frame;
    frame.lower_bound = lower;
    frame.phase = "seed";
    request.budget.publish_progress(std::move(frame));
  }
  const auto on_incumbent = [&](const Partition& incumbent, double seconds) {
    obs::ProgressFrame frame;
    frame.seconds = seconds;
    frame.incumbent_depth = incumbent.size();
    frame.lower_bound = lower;
    frame.gap = incumbent.size() > lower ? incumbent.size() - lower : 0;
    frame.phase = "search";
    request.budget.publish_progress(std::move(frame));
  };
  local::LocalSearchResult result =
      local::local_search_ebmf(m, options, on_incumbent);
  report.add_timing("search", phase.seconds());
  report.partition = std::move(result.partition);
  report.incumbent_depth = report.partition.size();
  {
    // Closing frame: watchers see the search retire with its final bounds
    // even when the last incumbent landed long before the budget ran out.
    obs::ProgressFrame frame;
    frame.seconds = result.seconds;
    frame.incumbent_depth = report.incumbent_depth;
    frame.lower_bound = lower;
    frame.gap = report.incumbent_depth > lower
                    ? report.incumbent_depth - lower
                    : 0;
    frame.phase = "final";
    request.budget.publish_progress(std::move(frame));
  }

  const local::LocalSearchStats& stats = result.stats;
  report.add_telemetry("local.moves", stats.moves);
  report.add_telemetry("local.accepted", stats.accepted);
  report.add_telemetry("local.rejected", stats.rejected);
  report.add_telemetry("local.merges", stats.merges);
  report.add_telemetry("local.relocations", stats.relocations);
  report.add_telemetry("local.absorptions", stats.absorptions);
  report.add_telemetry("local.splits", stats.splits);
  report.add_telemetry("local.restarts", stats.restarts);
  report.add_telemetry("local.seed_depth",
                       static_cast<std::uint64_t>(stats.seed_depth));
  report.add_telemetry("local.incumbents",
                       static_cast<std::uint64_t>(stats.incumbents.size()));
  // The incumbent trajectory "depth@seconds;…" — every improving cover
  // with its wall-clock timestamp (capped; the count above is exact).
  std::string trajectory;
  for (std::size_t i = 0;
       i < stats.incumbents.size() && i < kLocalTrajectoryCap; ++i) {
    char entry[48];
    std::snprintf(entry, sizeof entry, "%s%zu@%.3f", i == 0 ? "" : ";",
                  stats.incumbents[i].depth, stats.incumbents[i].seconds);
    trajectory += entry;
  }
  report.add_telemetry("local.trajectory", trajectory);
  if (result.reached_stop) report.add_telemetry("local.reached_stop", "1");

  // Partial-SAP refinement: on small instances with budget to spare, an
  // exact pass can close (or narrow) the gap — its UNSAT proofs certify.
  if (!report.partition.empty() &&
      report.partition.size() > report.lower_bound &&
      m.ones_count() <= kLocalSapRefineOnes && !request.budget.exhausted()) {
    SolveRequest refine = request;
    refine.stop_at = 0;
    if (refine.smt_cell_limit == 0) refine.smt_cell_limit = kAutoSmtCellGuard;
    phase.restart();
    SolveReport exact = solve_sap(refine);
    report.add_timing("refine", phase.seconds());
    report.add_telemetry("local.refine", to_string(exact.status));
    report.lower_bound = std::max(report.lower_bound, exact.lower_bound);
    if (!exact.partition.empty() &&
        exact.partition.size() < report.partition.size())
      report.partition = std::move(exact.partition);
  }

  // Probes ran, so this is a (budget-cut) bound search: Bounded unless the
  // bracket closed — the engine's finalize promotes that case to Optimal.
  report.status = report.partition.size() == report.lower_bound
                      ? Status::Optimal
                      : Status::Bounded;
  return report;
}

SolveReport solve_auto(const SolveRequest& request) {
  const BinaryMatrix& pattern = request.pattern();
  const std::size_t ones = pattern.ones_count();
  const std::size_t cells = pattern.rows() * pattern.cols();
  const double density =
      cells == 0 ? 0.0
                 : static_cast<double>(ones) / static_cast<double>(cells);
  // Fitted three-tier routing (portfolio_cutoffs.h): exact SAP while the
  // instance is small enough to certify, a multi-probe bound race in the
  // mid band where SMT still answers but the sequential loop wastes the
  // budget, and the anytime local search beyond.
  const bool sparse = density <= kFitSparseDensity;
  const std::size_t exact_limit =
      sparse ? kFitExactSparseOnes : kFitExactDenseOnes;
  const std::size_t race_limit =
      sparse ? kFitRaceSparseOnes : kFitRaceDenseOnes;
  bool race = false;
  std::string selected;
  if (request.has_dont_cares()) {
    selected = "completion";
  } else if (ones <= exact_limit) {
    selected = "sap";
  } else if (ones <= race_limit) {
    selected = "sap";
    race = true;
  } else {
    selected = "local";
  }

  SolveRequest sub = request;
  sub.strategy = selected;
  if (selected == "sap" && sub.smt_cell_limit == 0)
    sub.smt_cell_limit = kAutoSmtCellGuard;
  if (race && sub.probes == 1) sub.probes = 0;  // auto-width bound race

  SolveReport report;
  if (selected == "completion") {
    report = solve_completion(sub);
  } else if (selected == "sap") {
    report = solve_sap(sub);
  } else {
    report = solve_local(sub);
  }
  report.strategy = selected;
  report.add_telemetry("auto.selected", selected);
  report.add_telemetry("auto.density", density);
  report.add_telemetry("auto.tier", selected == "local" ? "anytime"
                                    : race              ? "race"
                                                        : "exact");
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
  registry.add("local", "anytime local search with certified gap bounds "
                        "(large instances)",
               solve_local);
  registry.add("auto", "portfolio: backend picked by fitted size/density "
                       "cutoffs and don't-cares",
               solve_auto);
  return registry;
}

}  // namespace ebmf::engine
