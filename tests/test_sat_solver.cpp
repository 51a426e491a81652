// Tests for the CDCL SAT solver, including randomized cross-checks against
// the independent DPLL reference and classic structured instances.

#include "sat/solver.h"

#include <gtest/gtest.h>

#include "oracle_sat.h"
#include "sat/dimacs.h"
#include "support/rng.h"

namespace ebmf::sat {
namespace {

TEST(SatSolver, EmptyFormulaIsSat) {
  Solver s;
  EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(SatSolver, SingleUnit) {
  Solver s;
  const Var v = s.new_var();
  s.add_clause(pos(v));
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_TRUE(s.model_true(pos(v)));
  EXPECT_FALSE(s.model_true(neg(v)));
}

TEST(SatSolver, ContradictoryUnitsUnsat) {
  Solver s;
  const Var v = s.new_var();
  EXPECT_TRUE(s.add_clause(pos(v)));
  EXPECT_FALSE(s.add_clause(neg(v)));
  EXPECT_TRUE(s.in_conflict());
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(SatSolver, EmptyClauseUnsat) {
  Solver s;
  (void)s.new_var();
  EXPECT_FALSE(s.add_clause(Clause{}));
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(SatSolver, TautologyIgnored) {
  Solver s;
  const Var v = s.new_var();
  EXPECT_TRUE(s.add_clause(Clause{pos(v), neg(v)}));
  EXPECT_EQ(s.num_clauses(), 0u);
  EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(SatSolver, DuplicateLiteralsMerged) {
  Solver s;
  const Var v = s.new_var();
  const Var w = s.new_var();
  s.add_clause(Clause{pos(v), pos(v), neg(w)});
  EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(SatSolver, SimpleImplicationChain) {
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 10; ++i) v.push_back(s.new_var());
  for (int i = 0; i + 1 < 10; ++i) s.add_clause(neg(v[i]), pos(v[i + 1]));
  s.add_clause(pos(v[0]));
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(s.model_true(pos(v[i])));
}

TEST(SatSolver, XorChainSatisfiable) {
  // x0 xor x1 xor ... via 3-clause encodings of equivalences.
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 8; ++i) v.push_back(s.new_var());
  for (int i = 0; i + 2 < 8; i += 2) {
    // v[i+2] == v[i] xor v[i+1]
    s.add_clause(Clause{neg(v[i]), neg(v[i + 1]), neg(v[i + 2])});
    s.add_clause(Clause{pos(v[i]), pos(v[i + 1]), neg(v[i + 2])});
    s.add_clause(Clause{neg(v[i]), pos(v[i + 1]), pos(v[i + 2])});
    s.add_clause(Clause{pos(v[i]), neg(v[i + 1]), pos(v[i + 2])});
  }
  EXPECT_EQ(s.solve(), SolveResult::Sat);
}

/// Pigeonhole principle: n+1 pigeons into n holes — classic UNSAT family
/// that requires real conflict analysis (resolution), not luck.
void add_php(Solver& s, int pigeons, int holes,
             std::vector<std::vector<Lit>>& x) {
  x.assign(pigeons, {});
  for (int p = 0; p < pigeons; ++p)
    for (int h = 0; h < holes; ++h) x[p].push_back(pos(s.new_var()));
  for (int p = 0; p < pigeons; ++p) s.add_clause(Clause(x[p]));
  for (int h = 0; h < holes; ++h)
    for (int p1 = 0; p1 < pigeons; ++p1)
      for (int p2 = p1 + 1; p2 < pigeons; ++p2)
        s.add_clause(x[p1][h].neg(), x[p2][h].neg());
}

TEST(SatSolver, PigeonholeUnsat) {
  for (int n = 2; n <= 6; ++n) {
    Solver s;
    std::vector<std::vector<Lit>> x;
    add_php(s, n + 1, n, x);
    EXPECT_EQ(s.solve(), SolveResult::Unsat) << "php " << n;
    EXPECT_GT(s.stats().conflicts, 0u);
  }
}

TEST(SatSolver, PigeonholeEqualSat) {
  Solver s;
  std::vector<std::vector<Lit>> x;
  add_php(s, 5, 5, x);
  EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(SatSolver, AssumptionsFlipOutcome) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_clause(neg(a), pos(b));
  EXPECT_EQ(s.solve({pos(a), neg(b)}), SolveResult::Unsat);
  EXPECT_FALSE(s.in_conflict());  // only under assumptions
  EXPECT_EQ(s.solve({pos(a), pos(b)}), SolveResult::Sat);
  EXPECT_EQ(s.solve({pos(a)}), SolveResult::Sat);
  EXPECT_TRUE(s.model_true(pos(b)));
}

TEST(SatSolver, UnsatCoreContainsCulprits) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var c = s.new_var();
  s.add_clause(neg(a), neg(b));  // a,b incompatible
  (void)c;
  EXPECT_EQ(s.solve({pos(a), pos(b), pos(c)}), SolveResult::Unsat);
  const auto& core = s.unsat_core();
  EXPECT_FALSE(core.empty());
  for (Lit l : core) EXPECT_TRUE(l == pos(a) || l == pos(b));
}

TEST(SatSolver, IncrementalAddBetweenSolves) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_clause(pos(a), pos(b));
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  s.add_clause(neg(a));
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_TRUE(s.model_true(pos(b)));
  s.add_clause(neg(b));
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(SatSolver, ConflictBudgetYieldsUnknown) {
  Solver s;
  std::vector<std::vector<Lit>> x;
  add_php(s, 9, 8, x);  // hard enough to exceed a one-conflict budget
  Budget budget;
  budget.max_conflicts = 1;
  EXPECT_EQ(s.solve({}, budget), SolveResult::Unknown);
  // And solvable without the budget.
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(SatSolver, DeadlineYieldsUnknownOrAnswer) {
  Solver s;
  std::vector<std::vector<Lit>> x;
  add_php(s, 11, 10, x);
  Budget budget;
  budget.deadline = Deadline::after(0.0);  // already expired
  const auto r = s.solve({}, budget);
  EXPECT_TRUE(r == SolveResult::Unknown || r == SolveResult::Unsat);
}

// ---- Randomized cross-check against the DPLL reference -----------------

Cnf random_cnf(std::size_t vars, std::size_t clauses, std::size_t width,
               Rng& rng) {
  Cnf cnf;
  cnf.num_vars = vars;
  for (std::size_t c = 0; c < clauses; ++c) {
    Clause cl;
    for (std::size_t k = 0; k < width; ++k) {
      const auto v = static_cast<Var>(rng.below(vars));
      cl.push_back(Lit(v, rng.chance(0.5)));
    }
    cnf.clauses.push_back(std::move(cl));
  }
  return cnf;
}

class SatRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SatRandom, AgreesWithDpllReference) {
  Rng rng(GetParam());
  for (int inst = 0; inst < 40; ++inst) {
    // Around the 3-SAT phase transition (ratio ~4.3) plus easy regions.
    const std::size_t vars = 8 + rng.below(8);
    const std::size_t clauses = vars * (3 + rng.below(3));
    const Cnf cnf = random_cnf(vars, clauses, 3, rng);

    Solver s;
    for (std::size_t v = 0; v < cnf.num_vars; ++v) (void)s.new_var();
    for (const auto& c : cnf.clauses) s.add_clause(c);
    const auto cdcl = s.solve();

    const auto reference = brute_force_sat(cnf);
    if (reference.has_value()) {
      EXPECT_EQ(cdcl, SolveResult::Sat) << "seed " << GetParam();
      // Our model must satisfy the formula too.
      std::vector<bool> model(cnf.num_vars);
      for (std::size_t v = 0; v < cnf.num_vars; ++v)
        model[v] = s.model_true(pos(static_cast<Var>(v)));
      EXPECT_TRUE(model_satisfies(cnf, model));
    } else {
      EXPECT_EQ(cdcl, SolveResult::Unsat) << "seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatRandom,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88, 99,
                                           111));

TEST(SatSolver, StatsAccumulate) {
  Solver s;
  std::vector<std::vector<Lit>> x;
  add_php(s, 7, 6, x);
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
  const auto& st = s.stats();
  EXPECT_GT(st.conflicts, 0u);
  EXPECT_GT(st.propagations, 0u);
  EXPECT_GT(st.learned_clauses, 0u);
}

TEST(SatSolver, LargeRandomSatInstanceSolves) {
  // Under-constrained: almost surely SAT; checks watch-list performance
  // paths (reduce_db, restarts) on a bigger instance.
  Rng rng(2024);
  const Cnf cnf = random_cnf(600, 1500, 3, rng);
  Solver s;
  for (std::size_t v = 0; v < cnf.num_vars; ++v) (void)s.new_var();
  for (const auto& c : cnf.clauses) s.add_clause(c);
  const auto r = s.solve();
  ASSERT_EQ(r, SolveResult::Sat);
  std::vector<bool> model(cnf.num_vars);
  for (std::size_t v = 0; v < cnf.num_vars; ++v)
    model[v] = s.model_true(pos(static_cast<Var>(v)));
  EXPECT_TRUE(model_satisfies(cnf, model));
}

}  // namespace
}  // namespace ebmf::sat
