// Component microbenchmarks (google-benchmark): the building blocks whose
// throughput determines how far the heuristics scale (the paper's 100x100
// "current limit of atom array technology" and beyond).
//
// `bench_micro --json` skips google-benchmark and instead emits one JSON
// line of SAT propagation-throughput numbers (the solver's hot-path
// metric): a pigeonhole UNSAT proof and a large conflict-capped SMT
// decision formula. tools/bench_compare.py diffs these lines against the
// committed BENCH_sap.json baseline.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>

#include "benchgen/generators.h"
#include "core/bounds.h"
#include "core/row_packing.h"
#include "core/trivial.h"
#include "linalg/rank.h"
#include "sat/cardinality.h"
#include "sat/solver.h"
#include "smt/label_formula.h"
#include "support/bitvec.h"
#include "support/rng.h"
#include "support/stopwatch.h"

namespace {

ebmf::BinaryMatrix random_matrix(std::size_t n, double occ,
                                 std::uint64_t seed) {
  ebmf::Rng rng(seed);
  return ebmf::BinaryMatrix::random(n, n, occ, rng);
}

// ---- BitVec -------------------------------------------------------------

void BM_BitVecSubset(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ebmf::Rng rng(1);
  ebmf::BitVec a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.chance(0.3)) a.set(i);
    if (rng.chance(0.6)) b.set(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.subset_of(b));
  }
}
BENCHMARK(BM_BitVecSubset)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_BitVecAndNot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ebmf::Rng rng(2);
  ebmf::BitVec a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.chance(0.5)) a.set(i);
    if (rng.chance(0.5)) b.set(i);
  }
  for (auto _ : state) {
    auto c = a;
    c -= b;
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_BitVecAndNot)->Arg(64)->Arg(1024)->Arg(4096);

// ---- rank ---------------------------------------------------------------

void BM_RealRank(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = random_matrix(n, 0.5, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ebmf::real_rank(m));
  }
}
BENCHMARK(BM_RealRank)->Arg(10)->Arg(30)->Arg(100);

void BM_RankSparseModPPath(benchmark::State& state) {
  // Rank-deficient sparse matrices miss the GF(2) exit and take the mod-p
  // rung of the ladder.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = random_matrix(n, 0.03, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ebmf::real_rank(m));
  }
}
BENCHMARK(BM_RankSparseModPPath)->Arg(30)->Arg(60)->Arg(100);

// ---- heuristics ----------------------------------------------------------

void BM_RowPackingPass(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = random_matrix(n, 0.5, 5);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ebmf::row_packing_pass(m, order));
  }
}
BENCHMARK(BM_RowPackingPass)->Arg(10)->Arg(30)->Arg(100)->Arg(200);

void BM_RowPackingHundredTrials(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = random_matrix(n, 0.5, 6);
  for (auto _ : state) {
    ebmf::RowPackingOptions opt;
    opt.trials = 100;
    benchmark::DoNotOptimize(ebmf::row_packing_ebmf(m, opt));
  }
}
BENCHMARK(BM_RowPackingHundredTrials)->Arg(10)->Arg(50)->Arg(100);

void BM_TrivialHeuristic(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = random_matrix(n, 0.5, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ebmf::trivial_ebmf(m));
  }
}
BENCHMARK(BM_TrivialHeuristic)->Arg(10)->Arg(100);

// ---- SMT / SAT -----------------------------------------------------------

void BM_FormulaConstructionOneHot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = random_matrix(n, 0.5, 9);
  for (auto _ : state) {
    ebmf::smt::EncoderOptions opt;
    opt.encoding = ebmf::smt::LabelEncoding::OneHot;
    ebmf::smt::LabelFormula f(m, n, opt);
    benchmark::DoNotOptimize(f.stats().clauses);
  }
}
BENCHMARK(BM_FormulaConstructionOneHot)->Arg(6)->Arg(8)->Arg(10);

void BM_SmtDecideSat(benchmark::State& state) {
  // Decision at the optimum (SAT side) for an 8x8 random matrix.
  const auto m = random_matrix(8, 0.5, 10);
  const auto rank = ebmf::real_rank(m);
  for (auto _ : state) {
    ebmf::smt::LabelFormula f(m, std::max<std::size_t>(rank, 1));
    benchmark::DoNotOptimize(f.solve());
  }
}
BENCHMARK(BM_SmtDecideSat);

void BM_SatPigeonholeUnsat(benchmark::State& state) {
  const auto holes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ebmf::sat::Solver s;
    std::vector<std::vector<ebmf::sat::Lit>> x(
        static_cast<std::size_t>(holes) + 1);
    for (auto& row : x)
      for (int h = 0; h < holes; ++h)
        row.push_back(ebmf::sat::pos(s.new_var()));
    for (auto& row : x) s.add_clause(ebmf::sat::Clause(row));
    for (int h = 0; h < holes; ++h)
      for (std::size_t p1 = 0; p1 < x.size(); ++p1)
        for (std::size_t p2 = p1 + 1; p2 < x.size(); ++p2)
          s.add_clause(x[p1][static_cast<std::size_t>(h)].neg(),
                       x[p2][static_cast<std::size_t>(h)].neg());
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_SatPigeonholeUnsat)->Arg(6)->Arg(8);

// ---- generators ----------------------------------------------------------

void BM_GapGenerator(benchmark::State& state) {
  ebmf::Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ebmf::benchgen::gap_matrix(10, 10, 4, rng));
  }
}
BENCHMARK(BM_GapGenerator);

void BM_KnownOptimalGenerator(benchmark::State& state) {
  ebmf::Rng rng(12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ebmf::benchgen::known_optimal_matrix(10, 10, 5, rng));
  }
}
BENCHMARK(BM_KnownOptimalGenerator);

// ---- --json propagation-throughput summary ------------------------------

struct SatRun {
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  double seconds = 0.0;
  [[nodiscard]] double propagations_per_sec() const {
    return seconds > 0 ? static_cast<double>(propagations) / seconds : 0.0;
  }
};

/// Pigeonhole UNSAT proof (9 pigeons, 8 holes): small formula, deep search.
SatRun run_pigeonhole() {
  ebmf::sat::Solver s;
  constexpr int kHoles = 8;
  std::vector<std::vector<ebmf::sat::Lit>> x(kHoles + 1);
  for (auto& row : x)
    for (int h = 0; h < kHoles; ++h) row.push_back(ebmf::sat::pos(s.new_var()));
  for (auto& row : x) s.add_clause(ebmf::sat::Clause(row));
  for (int h = 0; h < kHoles; ++h)
    for (std::size_t p1 = 0; p1 < x.size(); ++p1)
      for (std::size_t p2 = p1 + 1; p2 < x.size(); ++p2)
        s.add_clause(x[p1][static_cast<std::size_t>(h)].neg(),
                     x[p2][static_cast<std::size_t>(h)].neg());
  ebmf::Stopwatch sw;
  (void)s.solve();
  SatRun run;
  run.seconds = sw.seconds();
  run.propagations = s.stats().propagations;
  run.conflicts = s.stats().conflicts;
  return run;
}

/// Large conflict-capped SMT decision formula (~330k clauses): the
/// cache-busting regime where clause-storage layout dominates.
SatRun run_large_smt() {
  ebmf::Rng rng(5);
  const auto gap = ebmf::benchgen::gap_matrix(24, 24, 8, rng);
  ebmf::smt::LabelFormula f(gap.matrix, ebmf::real_rank(gap.matrix));
  ebmf::Budget budget;
  budget.max_conflicts = 60000;
  ebmf::Stopwatch sw;
  (void)f.solve(budget);
  SatRun run;
  run.seconds = sw.seconds();
  run.propagations = f.solver().stats().propagations;
  run.conflicts = f.solver().stats().conflicts;
  return run;
}

/// Best-of-N to damp scheduler noise on shared machines.
template <typename Fn>
SatRun best_of(Fn fn, int reps) {
  SatRun best = fn();
  for (int r = 1; r < reps; ++r) {
    const SatRun run = fn();
    if (run.propagations_per_sec() > best.propagations_per_sec()) best = run;
  }
  return best;
}

int json_summary() {
  const SatRun sat = best_of(run_pigeonhole, 3);
  const SatRun smt = best_of(run_large_smt, 3);
  std::printf(
      "{\"bench\":\"micro\",\"summary\":true,\"hardware_threads\":%u,"
      "\"sat\":{\"propagations\":%llu,\"conflicts\":%llu,\"seconds\":%.4f,"
      "\"propagations_per_sec\":%.0f},"
      "\"smt_large\":{\"propagations\":%llu,\"conflicts\":%llu,"
      "\"seconds\":%.4f,\"propagations_per_sec\":%.0f}}\n",
      std::thread::hardware_concurrency(),
      static_cast<unsigned long long>(sat.propagations),
      static_cast<unsigned long long>(sat.conflicts), sat.seconds,
      sat.propagations_per_sec(),
      static_cast<unsigned long long>(smt.propagations),
      static_cast<unsigned long long>(smt.conflicts), smt.seconds,
      smt.propagations_per_sec());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--json") == 0) return json_summary();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
