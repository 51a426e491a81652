// Tests for the clause-arena storage layer: compaction invariants (watches
// and reason references stay valid across the GC that reduce_db runs),
// unsat cores surviving compaction, incremental use after collection, and
// the prompt budget-cancellation checkpoints added alongside the arena.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "oracle_sat.h"
#include "sat/arena.h"
#include "sat/dimacs.h"
#include "sat/solver.h"
#include "support/rng.h"
#include "support/stopwatch.h"

namespace ebmf::sat {
namespace {

// ---- ClauseArena unit behaviour ----------------------------------------

TEST(ClauseArena, AllocRoundTripsHeaderAndLiterals) {
  ClauseArena arena;
  const Lit lits[3] = {pos(0), neg(1), pos(2)};
  const CRef c = arena.alloc(lits, 3, /*learnt=*/true, /*lbd=*/5, 0.25f);
  EXPECT_EQ(arena.size(c), 3u);
  EXPECT_TRUE(arena.learnt(c));
  EXPECT_FALSE(arena.deleted(c));
  EXPECT_EQ(arena.lbd(c), 5u);
  EXPECT_FLOAT_EQ(arena.activity(c), 0.25f);
  EXPECT_EQ(arena.lit(c, 0), pos(0));
  EXPECT_EQ(arena.lit(c, 1), neg(1));
  EXPECT_EQ(arena.lit(c, 2), pos(2));
}

TEST(ClauseArena, CompactDropsDeletedAndForwardsLive) {
  ClauseArena arena;
  const Lit a[2] = {pos(0), pos(1)};
  const Lit b[3] = {neg(0), pos(2), neg(3)};
  const Lit c[2] = {pos(4), neg(5)};
  const CRef ra = arena.alloc(a, 2, false, 0, 0.0f);
  const CRef rb = arena.alloc(b, 3, true, 2, 1.0f);
  const CRef rc = arena.alloc(c, 2, true, 3, 2.0f);
  const std::size_t before = arena.words();
  arena.mark_deleted(rb);
  EXPECT_EQ(arena.wasted_words(), ClauseArena::kHeaderWords + 3);

  arena.compact();
  const CRef na = arena.forward(ra);
  const CRef nc = arena.forward(rc);
  arena.drop_forwarding();
  EXPECT_LT(arena.words(), before);
  EXPECT_EQ(arena.wasted_words(), 0u);
  EXPECT_EQ(arena.lit(na, 0), pos(0));
  EXPECT_EQ(arena.lit(na, 1), pos(1));
  EXPECT_EQ(arena.size(nc), 2u);
  EXPECT_EQ(arena.lit(nc, 1), neg(5));
  EXPECT_FLOAT_EQ(arena.activity(nc), 2.0f);
  // The walk sees exactly the two surviving clauses.
  std::size_t live = 0;
  for (CRef w = arena.walk_begin(); w < arena.walk_end();
       w = arena.walk_next(w))
    ++live;
  EXPECT_EQ(live, 2u);
}

// ---- GC invariants through the solver ----------------------------------

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

/// A pigeonhole instance reliably drives the solver through several
/// reduce_db rounds (and therefore arena compactions) before answering.
void add_pigeonhole(Solver& s, int holes) {
  std::vector<std::vector<Lit>> x(static_cast<std::size_t>(holes) + 1);
  for (auto& row : x)
    for (int h = 0; h < holes; ++h) row.push_back(pos(s.new_var()));
  for (auto& row : x) s.add_clause(Clause(row));
  for (int h = 0; h < holes; ++h)
    for (std::size_t p1 = 0; p1 < x.size(); ++p1)
      for (std::size_t p2 = p1 + 1; p2 < x.size(); ++p2)
        s.add_clause(x[p1][static_cast<std::size_t>(h)].neg(),
                     x[p2][static_cast<std::size_t>(h)].neg());
}

TEST(SatArenaGc, CompactionRunsAndPreservesUnsatAnswer) {
  Solver s;
  add_pigeonhole(s, 7);
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
  // The search must have both deleted learnt clauses and compacted.
  EXPECT_GT(s.stats().deleted_clauses, 0u);
  EXPECT_GT(s.stats().arena_gcs, 0u);
  EXPECT_GT(s.stats().arena_bytes, 0u);
}

TEST(SatArenaGc, AnswersStayCorrectAcrossManyCollections) {
  // Random near-threshold 3-SAT instances: enough conflicts to trigger
  // reduce_db, cross-checked against the independent DPLL reference.
  Rng rng(20260730);
  for (int inst = 0; inst < 15; ++inst) {
    const std::size_t vars = 14 + rng.below(6);
    const Cnf cnf = random_cnf(vars, vars * 5, 3, rng);
    Solver s;
    for (std::size_t v = 0; v < cnf.num_vars; ++v) (void)s.new_var();
    for (const auto& c : cnf.clauses) s.add_clause(c);
    const auto got = s.solve();
    const auto reference = brute_force_sat(cnf);
    ASSERT_EQ(got == SolveResult::Sat, reference.has_value());
    if (got == SolveResult::Sat) {
      std::vector<bool> model(cnf.num_vars);
      for (std::size_t v = 0; v < cnf.num_vars; ++v)
        model[v] = s.model_true(pos(static_cast<Var>(v)));
      EXPECT_TRUE(model_satisfies(cnf, model));
    }
  }
}

TEST(SatArenaGc, IncrementalAddSolveCyclesAgreeWithReference) {
  // The SAP narrowing workload: add clauses, solve, add more, solve again —
  // across solves whose reduce_db compacted the arena. Each stage is
  // cross-checked against the DPLL reference on the accumulated CNF.
  Rng rng(424242);
  for (int inst = 0; inst < 8; ++inst) {
    const std::size_t vars = 16;
    Cnf accumulated;
    accumulated.num_vars = vars;
    Solver s;
    for (std::size_t v = 0; v < vars; ++v) (void)s.new_var();
    bool contradicted = false;
    for (int stage = 0; stage < 4; ++stage) {
      const Cnf extra = random_cnf(vars, vars * 2, 3, rng);
      for (const auto& c : extra.clauses) {
        accumulated.clauses.push_back(c);
        if (!s.add_clause(c)) contradicted = true;
      }
      const auto got = contradicted ? SolveResult::Unsat : s.solve();
      const auto reference = brute_force_sat(accumulated);
      ASSERT_EQ(got == SolveResult::Sat, reference.has_value())
          << "instance " << inst << " stage " << stage;
      if (got != SolveResult::Sat) break;
      std::vector<bool> model(vars);
      for (std::size_t v = 0; v < vars; ++v)
        model[v] = s.model_true(pos(static_cast<Var>(v)));
      EXPECT_TRUE(model_satisfies(accumulated, model));
    }
  }
}

TEST(SatArenaGc, UnsatCorePreservedAcrossCompaction) {
  // A solver whose clause database goes through reduce_db before the
  // assumption query: the final-conflict core must still be a correct
  // subset of the assumptions. Pigeonhole rows carry a guard literal, so
  // the formula alone is SAT and the guard assumption turns it UNSAT.
  Solver t;
  const Var guard = t.new_var();
  constexpr int kHoles = 8;  // large enough to force reduce_db + GC
  std::vector<std::vector<Lit>> x(kHoles + 1);
  for (auto& row : x)
    for (int h = 0; h < kHoles; ++h) row.push_back(pos(t.new_var()));
  for (auto& row : x) {
    Clause cl(row.begin(), row.end());
    cl.push_back(neg(guard));  // guard=false satisfies the row trivially
    t.add_clause(std::move(cl));
  }
  for (int h = 0; h < kHoles; ++h)
    for (std::size_t p1 = 0; p1 < x.size(); ++p1)
      for (std::size_t p2 = p1 + 1; p2 < x.size(); ++p2)
        t.add_clause(x[p1][static_cast<std::size_t>(h)].neg(),
                     x[p2][static_cast<std::size_t>(h)].neg());

  // Without the guard the formula is satisfiable (all holes empty).
  EXPECT_EQ(t.solve(), SolveResult::Sat);
  // Under the guard assumption it is the pigeonhole contradiction; the
  // search will churn through reduce_db rounds before refuting.
  const auto result = t.solve({pos(guard)});
  EXPECT_EQ(result, SolveResult::Unsat);
  ASSERT_FALSE(t.unsat_core().empty());
  EXPECT_EQ(t.unsat_core()[0], pos(guard));
  EXPECT_GT(t.stats().arena_gcs, 0u);
  // The solver (no top-level contradiction) must still answer Sat without
  // the assumption afterwards.
  EXPECT_EQ(t.solve(), SolveResult::Sat);
}

// ---- budget latency (propagation-count checkpoints) --------------------

TEST(SatBudget, CancellationLandsPromptlyMidSolve) {
  // A large, slow pigeonhole solve cancelled from another thread: the
  // propagation-count checkpoint must stop it far faster than the old
  // 256-conflict cadence would on propagate-heavy instances.
  Solver s;
  add_pigeonhole(s, 9);
  Budget budget;
  budget.cancellable();
  std::thread canceller([&budget]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    budget.request_cancel();
  });
  Stopwatch sw;
  const auto result = s.solve({}, budget);
  const double seconds = sw.seconds();
  canceller.join();
  EXPECT_EQ(result, SolveResult::Unknown);
  // Generous ceiling: the full solve takes multiple seconds; a prompt
  // cancellation returns well under one.
  EXPECT_LT(seconds, 1.0);
}

}  // namespace
}  // namespace ebmf::sat
