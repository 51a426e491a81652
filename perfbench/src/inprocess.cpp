// The in-process workload, exact-paper: the paper's Table 1 suites solved
// one after another through engine::Engine::solve under `sap` (probes=1)
// with no cache attached.
//
// The traced run replays every instance through the layers' own public
// functions (real_rank, row_packing_ebmf, sap_solve, validate_partition)
// under the span of the engine call it mirrors.

#include <algorithm>
#include <memory>

#include "benchgen/suites.h"
#include "core/bounds.h"
#include "core/preprocess.h"
#include "core/row_packing.h"
#include "harness.h"
#include "smt/sap.h"
#include "support/rng.h"

namespace perfbench {

namespace {

using ebmf::engine::Engine;
using ebmf::engine::SolveReport;
using ebmf::engine::SolveRequest;

/// SAT conflicts allowed per decision call of every solve, so one hard
/// orientation cannot stall a run (a solve cut by it answers Bounded). It
/// is also the "well inside the budget" rule for gap k=2: only the base
/// seeds that prove optimal under it are admitted.
constexpr std::int64_t kConflictCap = 4000;

struct Instance {
  SolveRequest request;
  Reference ref;
  std::size_t planted = 0;  ///< Known optimum (0 = unknown).
  BinaryMatrix base;        ///< The unpermuted pattern.
};

/// The SAP options the `sap` strategy derives from a request.
ebmf::SapOptions sap_for(const SolveRequest& request) {
  ebmf::SapOptions options;
  options.packing.trials = request.trials;
  options.packing.seed = request.seed;
  options.packing.stop_at = request.stop_at;
  options.packing.order = request.order;
  options.packing.basis_update = request.basis_update;
  options.packing.use_transpose = request.use_transpose;
  options.packing.budget = request.budget;
  options.encoder.encoding = request.encoding;
  options.encoder.symmetry_breaking = request.symmetry_breaking;
  options.budget = request.budget;
  options.preprocess = request.preprocess;
  options.smt_cell_limit = request.smt_cell_limit;
  options.probes = request.probes;
  return options;
}

Reference reference_of(const SolveReport& report) {
  return Reference{report.depth(), report.status, report.lower_bound};
}

/// The workload's inputs with their references; building it is set-up.
struct State {
  std::vector<Instance> instances;
  std::size_t screened_out = 0;  ///< gap k=2 seeds past the conflict cap.
};

void add_suite(std::vector<Instance>& out,
               const std::vector<ebmf::benchgen::Instance>& suite,
               std::size_t smt_cell_limit) {
  for (const auto& generated : suite) {
    Instance inst;
    inst.request = SolveRequest::dense(generated.matrix, "sap");
    inst.request.probes = 1;
    inst.request.seed = 1;
    inst.request.budget.max_conflicts = kConflictCap;
    inst.request.smt_cell_limit = smt_cell_limit;
    inst.request.label = generated.family + " " + generated.config;
    inst.planted = generated.known_optimal;
    out.push_back(std::move(inst));
  }
}

/// The permutation stream of one pass of one run.
ebmf::Rng pass_rng(std::uint64_t seed, std::size_t pass) {
  return ebmf::Rng(seed * 1000003 + pass);
}

/// Permute every instance for pass 0 of the run, then solve it once (the
/// warm-up). That converged answer, or the planted optimum where the
/// generator knows it, is the reference every timed answer must match.
void permute_and_reference(std::vector<Instance>& instances,
                           std::uint64_t seed, const Engine& engine) {
  ebmf::Rng rng = pass_rng(seed, 0);
  for (Instance& inst : instances) {
    inst.base = inst.request.matrix;
    inst.request.matrix = permuted(inst.base, rng);
    inst.ref = inst.planted != 0
                   ? Reference{inst.planted, Status::Optimal, inst.planted}
                   : reference_of(engine.solve(inst.request));
  }
}

/// Table 1's suites at a fifth of the paper's populations (§IV-A, which
/// bench_table1 --full generates): per occupancy or k, 10 rand, 10 opt
/// and 100 gap matrices become 2, 2 and 20. Tiny runs take a fiftieth.
std::unique_ptr<State> make_exact_paper(const RunConfig& config,
                                        const Engine& engine) {
  using namespace ebmf::benchgen;
  auto state = std::make_unique<State>();
  const std::uint64_t s = kBaseSeed;
  const double scale = config.tiny ? 0.02 : 0.2;
  const auto count = [&](std::size_t paper_count) {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(paper_count) * scale +
                                    0.5));
  };
  std::vector<Instance>& all = state->instances;
  const std::vector<double> small_occ = paper_occupancies_small();
  add_suite(all, random_suite(10, 10, small_occ, count(10), s + 1), 0);
  add_suite(all, random_suite(10, 20, small_occ, count(10), s + 2), 0);
  add_suite(all, random_suite(10, 30, small_occ, count(10), s + 3), 0);
  // 100x100 is "too large for SMT" in the paper: rank certificate only.
  add_suite(all,
            random_suite(100, 100, paper_occupancies_large(), count(10), s + 4),
            1);
  add_suite(all, known_optimal_suite(10, 10, 10, count(10), s + 5), 0);
  for (const std::size_t k : {3u, 4u, 5u})
    add_suite(all, gap_suite(10, 10, {k}, count(100), s + 5 + k), 0);
  // gap k=2: only the base seeds that prove optimal inside the conflict
  // cap; the others spend their whole budget and are left out.
  std::vector<Instance> k2;
  add_suite(k2, gap_suite(10, 10, {2}, count(100), s + 7), 0);
  for (Instance& inst : k2) {
    if (engine.solve(inst.request).proven_optimal())
      all.push_back(std::move(inst));
    else
      ++state->screened_out;
  }
  permute_and_reference(all, config.seed, engine);
  return state;
}

/// Solve `request` through the engine and time it.
SolveReport solve_timed(const Engine& engine, const SolveRequest& request,
                        double* seconds) {
  const auto start = std::chrono::steady_clock::now();
  SolveReport report = engine.solve(request);
  *seconds = seconds_since(start);
  return report;
}

/// The traced replay of one `sap` instance: the layer calls sap_solve
/// makes on each preprocessed component, filed under the sap_solve span;
/// the SAT time inside it is the sum of the decision calls SAP reports.
void replay_sap(const SolveRequest& request, const SolveReport& report,
                int root, Ledger& ledger,
                std::map<std::string, Metric>& counters) {
  const BinaryMatrix& m = request.matrix;
  const ebmf::SapOptions options = sap_for(request);
  const auto start = std::chrono::steady_clock::now();
  const ebmf::SapResult sap = ebmf::sap_solve(m, options);
  const int sap_span = ledger.record("smt.sap_solve", seconds_since(start),
                                     root);
  const ebmf::DuplicateReduction reduction = ebmf::reduce_duplicates(m);
  for (const ebmf::Component& component :
       ebmf::split_components(reduction.reduced)) {
    const std::size_t rank = ledger.timed("bounds.real_rank", sap_span, [&] {
      return ebmf::real_rank(component.matrix);
    });
    ebmf::RowPackingOptions packing = options.packing;
    if (packing.stop_at == 0) packing.stop_at = rank;
    ledger.timed("packing.row_packing", sap_span, [&] {
      return ebmf::row_packing_ebmf(component.matrix, packing);
    });
  }
  double sat_seconds = 0.0;
  for (const ebmf::SapSmtCall& call : sap.smt_calls)
    sat_seconds += call.seconds;
  if (!sap.smt_calls.empty()) ledger.record("sat.solve", sat_seconds, sap_span);
  ledger.timed("engine.validate", root, [&] {
    return ebmf::validate_partition(m, report.partition);
  });
  counters["smt.calls"].value += static_cast<double>(sap.smt_calls.size());
  counters["sat.conflicts"].value +=
      static_cast<double>(sap.smt_stats.conflicts);
  counters["sat.propagations"].value +=
      static_cast<double>(sap.smt_stats.propagations);
}

}  // namespace

Result run_exact_paper(const RunConfig& config) {
  const Engine engine;
  double setup_s = 0.0;
  const std::unique_ptr<State> state = setup_median(
      config.setup_reps(), &setup_s,
      [&] { return make_exact_paper(config, engine); });
  const std::vector<Instance>& instances = state->instances;

  Checker checker(config.corrupt);
  EndToEnd e2e;
  e2e.setup_s = setup_s;
  Ledger ledger;
  std::map<std::string, Metric> counters = {
      {"smt.calls", {0.0, "count"}},
      {"sat.conflicts", {0.0, "count"}},
      {"sat.propagations", {0.0, "count"}},
  };

  // Whole passes over the instance set until the run length is reached,
  // so every run weighs the suites the same way. Each pass is one segment
  // holding its solve times; its throughput divides by summed solve time,
  // so drawing the pass's orientations is excluded. A traced pass returns
  // its wall time per request, the replay and span recording included.
  const auto pass = [&](std::size_t index, bool traced) {
    ebmf::Rng rng = pass_rng(config.seed, index);
    Segment segment;
    const auto pass_start = std::chrono::steady_clock::now();
    for (const Instance& inst : instances) {
      SolveRequest request = inst.request;
      // Passes after the first solve fresh orientations of every instance.
      const bool reoriented = index > 0;
      if (reoriented) request.matrix = permuted(inst.base, rng);
      double seconds = 0.0;
      const SolveReport report = solve_timed(engine, request, &seconds);
      if (reoriented)
        checker.check_bracket(request.matrix, report.partition,
                              report.lower_bound, inst.ref);
      else
        checker.check(request.matrix, report.partition, report.status,
                      report.lower_bound, inst.ref);
      segment.latency_s.add(seconds);
      if (!traced) {
        ++e2e.completed;
        if (report.proven_optimal()) ++e2e.optimal;
        continue;
      }
      const int root = ledger.record("engine.solve", seconds, Ledger::kNoParent);
      replay_sap(request, report, root, ledger, counters);
    }
    segment.rps =
        static_cast<double>(instances.size()) / segment.latency_s.sum();
    if (!traced) e2e.segments.push_back(std::move(segment));
    return seconds_since(pass_start) / static_cast<double>(instances.size());
  };

  const auto start = std::chrono::steady_clock::now();
  if (!config.trace) {
    std::size_t passes = 0;
    do {
      pass(passes, false);
      ++passes;
    } while (seconds_since(start) < config.seconds);
    // Per-suite milliseconds of the first pass, for the record.
    std::map<std::string, double> suite_ms;
    const std::vector<double>& first = e2e.segments.front().latency_s.values();
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const std::string& label = instances[i].request.label;
      suite_ms[label.substr(0, label.find(" occ="))] += first[i] * 1e3;
      e2e.depth_sum += static_cast<double>(instances[i].ref.depth);
      e2e.lower_bound_sum += static_cast<double>(instances[i].ref.lower_bound);
    }
    std::string suites = "{";
    for (const auto& [label, ms] : suite_ms)
      suites += (suites.size() > 1 ? ",\"" : "\"") + label +
                "\":" + std::to_string(ms);
    Result result;
    result.record["suite_ms"] = suites + "}";
    result.record["passes"] = std::to_string(passes);
    result.record["wall_seconds"] = std::to_string(seconds_since(start));
    result.attempted = checker.attempted();
    result.failed = checker.failed();
    result.first_error = checker.first_error();
    fill_end_to_end(e2e, result);
    result.record["instances"] = std::to_string(instances.size());
    result.record["screened_out_k2"] = std::to_string(state->screened_out);
    return result;
  }

  // Traced: one untraced pass as the overhead baseline, then traced passes.
  // Both baseline and first traced pass solve pass 0's orientations.
  const double untraced_s = pass(0, false);
  double traced_s = 0.0;
  std::size_t traced_passes = 0;
  do {
    const double per_request_s = pass(traced_passes, true);
    if (traced_passes == 0) traced_s = per_request_s;
    ++traced_passes;
  } while (seconds_since(start) < config.seconds);
  const Ledger::NameStats sat = ledger.stats("sat.solve");
  if (sat.busy_ms > 0)
    counters["sat.props_per_s"] = {
        counters["sat.propagations"].value / (sat.busy_ms / 1e3), "1/s"};

  Result result;
  result.attempted = checker.attempted();
  result.failed = checker.failed();
  result.first_error = checker.first_error();
  result.record["passes"] = std::to_string(traced_passes);
  result.record["instances"] = std::to_string(instances.size());
  fill_per_layer(ledger, counters, 100.0 * (traced_s - untraced_s) / untraced_s,
                 result);
  return result;
}

}  // namespace perfbench
