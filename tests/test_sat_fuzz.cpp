// Heavier randomized stress tests for the CDCL solver: UNSAT-biased
// regions, incremental narrowing patterns (the SAP workload), random
// assumption sets with core checks, and model enumeration cross-counts
// against the DPLL reference. Kept in a separate binary so the quick unit
// suite stays fast.

#include <gtest/gtest.h>

#include <set>

#include "oracle_sat.h"
#include "sat/dimacs.h"
#include "sat/solver.h"
#include "support/rng.h"

namespace ebmf::sat {
namespace {

Cnf random_cnf(std::size_t vars, std::size_t clauses, std::size_t width,
               Rng& rng) {
  Cnf cnf;
  cnf.num_vars = vars;
  for (std::size_t c = 0; c < clauses; ++c) {
    Clause cl;
    for (std::size_t k = 0; k < width; ++k)
      cl.push_back(Lit(static_cast<Var>(rng.below(vars)), rng.chance(0.5)));
    cnf.clauses.push_back(std::move(cl));
  }
  return cnf;
}

Solver make_solver(const Cnf& cnf) {
  Solver s;
  for (std::size_t v = 0; v < cnf.num_vars; ++v) (void)s.new_var();
  for (const auto& c : cnf.clauses) s.add_clause(c);
  return s;
}

class SatFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SatFuzz, OverconstrainedRegionAgreesWithReference) {
  // Clause/variable ratio ~6: mostly UNSAT; exercises conflict analysis.
  Rng rng(GetParam());
  for (int inst = 0; inst < 25; ++inst) {
    const std::size_t vars = 6 + rng.below(8);
    const Cnf cnf = random_cnf(vars, vars * 6, 3, rng);
    Solver s = make_solver(cnf);
    const auto got = s.solve();
    const auto reference = brute_force_sat(cnf);
    EXPECT_EQ(got == SolveResult::Sat, reference.has_value());
  }
}

TEST_P(SatFuzz, MixedWidthClausesAgree) {
  Rng rng(GetParam() + 7);
  for (int inst = 0; inst < 20; ++inst) {
    const std::size_t vars = 8 + rng.below(6);
    Cnf cnf;
    cnf.num_vars = vars;
    const std::size_t n_clauses = vars * 4;
    for (std::size_t c = 0; c < n_clauses; ++c) {
      const std::size_t width = 1 + rng.below(4);  // units through 4-clauses
      Clause cl;
      for (std::size_t k = 0; k < width; ++k)
        cl.push_back(Lit(static_cast<Var>(rng.below(vars)), rng.chance(0.5)));
      cnf.clauses.push_back(std::move(cl));
    }
    Solver s = make_solver(cnf);
    const auto got = s.solve();
    const auto reference = brute_force_sat(cnf);
    EXPECT_EQ(got == SolveResult::Sat, reference.has_value());
    if (got == SolveResult::Sat) {
      std::vector<bool> model(vars);
      for (std::size_t v = 0; v < vars; ++v)
        model[v] = s.model_true(pos(static_cast<Var>(v)));
      EXPECT_TRUE(model_satisfies(cnf, model));
    }
  }
}

TEST_P(SatFuzz, IncrementalTighteningMatchesFromScratch) {
  // The SAP narrowing pattern: solve, add constraints, solve again — the
  // incremental answers must match fresh solvers on the extended formula.
  Rng rng(GetParam() + 13);
  for (int inst = 0; inst < 10; ++inst) {
    const std::size_t vars = 10 + rng.below(5);
    Cnf cnf = random_cnf(vars, vars * 3, 3, rng);
    Solver incremental = make_solver(cnf);
    for (int round = 0; round < 4; ++round) {
      const auto inc = incremental.solve();
      Solver fresh = make_solver(cnf);
      EXPECT_EQ(fresh.solve(), inc) << "round " << round;
      if (inc == SolveResult::Unsat) break;
      // Tighten: block three random literals (as unit clauses).
      Clause extra;
      for (int k = 0; k < 3; ++k)
        extra.push_back(
            Lit(static_cast<Var>(rng.below(vars)), rng.chance(0.5)));
      cnf.clauses.push_back(extra);
      incremental.add_clause(extra);
    }
  }
}

TEST_P(SatFuzz, AssumptionsMatchHardcodedUnits) {
  // solve(assumptions) must agree with a fresh solver where the assumptions
  // are unit clauses; when Unsat, the core must be a subset of assumptions.
  Rng rng(GetParam() + 29);
  for (int inst = 0; inst < 15; ++inst) {
    const std::size_t vars = 8 + rng.below(6);
    const Cnf cnf = random_cnf(vars, vars * 4, 3, rng);
    Solver s = make_solver(cnf);
    if (s.solve() != SolveResult::Sat) continue;  // need a live formula
    std::vector<Lit> assumptions;
    for (std::size_t v = 0; v < 3 && v < vars; ++v)
      assumptions.push_back(
          Lit(static_cast<Var>(rng.below(vars)), rng.chance(0.5)));
    const auto under = s.solve(assumptions);

    Cnf hard = cnf;
    for (Lit a : assumptions) hard.clauses.push_back({a});
    const auto reference = brute_force_sat(hard);
    EXPECT_EQ(under == SolveResult::Sat, reference.has_value());
    if (under == SolveResult::Unsat) {
      const auto& core = s.unsat_core();
      EXPECT_FALSE(core.empty());
      for (Lit l : core) {
        const bool is_assumption =
            std::find(assumptions.begin(), assumptions.end(), l) !=
            assumptions.end();
        EXPECT_TRUE(is_assumption);
      }
    }
    // The solver must remain usable without assumptions afterwards.
    EXPECT_EQ(s.solve(), SolveResult::Sat);
  }
}

TEST_P(SatFuzz, ModelCountMatchesReferenceEnumeration) {
  // Enumerate all models with blocking clauses in BOTH engines and compare
  // counts — exercises repeated incremental solving and watch integrity.
  Rng rng(GetParam() + 41);
  for (int inst = 0; inst < 6; ++inst) {
    const std::size_t vars = 6 + rng.below(3);
    const Cnf cnf = random_cnf(vars, vars * 2, 3, rng);

    // Reference count by exhaustive assignment check.
    std::size_t expected = 0;
    for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << vars); ++mask) {
      std::vector<bool> model(vars);
      for (std::size_t v = 0; v < vars; ++v) model[v] = (mask >> v) & 1;
      if (model_satisfies(cnf, model)) ++expected;
    }

    Solver s = make_solver(cnf);
    std::size_t got = 0;
    while (s.solve() == SolveResult::Sat) {
      ++got;
      ASSERT_LE(got, expected);  // would loop forever on a duplicate model
      Clause block;
      for (std::size_t v = 0; v < vars; ++v)
        block.push_back(Lit(static_cast<Var>(v),
                            s.model_true(pos(static_cast<Var>(v)))));
      if (!s.add_clause(block)) break;
    }
    EXPECT_EQ(got, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatFuzz,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

}  // namespace
}  // namespace ebmf::sat
