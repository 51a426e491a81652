// Tests for the anytime local-search subsystem (src/local): the incumbent
// contract (every emitted incumbent validates and improves), fixed-seed
// determinism, prompt return on mid-move cancellation, the probe-ladder
// lower bounds, and the engine-level gap contract (gap == 0 iff Optimal).

#include "local/local_search.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "benchgen/generators.h"
#include "core/bounds.h"
#include "core/partition.h"
#include "engine/engine.h"
#include "local/probe_bounds.h"
#include "support/rng.h"
#include "support/stopwatch.h"

namespace ebmf::local {
namespace {

BinaryMatrix qldpc_instance(std::size_t n, double occ, std::uint64_t seed) {
  Rng rng(seed);
  return benchgen::qldpc_block_matrix(n, n, occ, rng);
}

TEST(LocalSearch, EveryIncumbentValidatesAndImproves) {
  const auto m = qldpc_instance(120, 0.3, 5);
  LocalSearchOptions options;
  options.seed = 3;
  options.max_moves = 400;
  std::size_t last_depth = m.rows() + 1;
  std::size_t emitted = 0;
  const auto result = local_search_ebmf(
      m, options, [&](const Partition& incumbent, double seconds) {
        ++emitted;
        EXPECT_TRUE(static_cast<bool>(validate_partition(m, incumbent)));
        EXPECT_LT(incumbent.size(), last_depth);
        EXPECT_GE(seconds, 0.0);
        last_depth = incumbent.size();
      });
  EXPECT_GE(emitted, 1u);  // the seed cover itself is the first incumbent
  EXPECT_TRUE(static_cast<bool>(validate_partition(m, result.partition)));
  EXPECT_EQ(result.partition.size(), last_depth);
  EXPECT_EQ(result.stats.incumbents.size(), emitted);
  EXPECT_LE(result.partition.size(), result.stats.seed_depth);
}

TEST(LocalSearch, FixedSeedGivesDeterministicTrajectory) {
  const auto m = qldpc_instance(100, 0.3, 9);
  LocalSearchOptions options;
  options.seed = 17;
  options.max_moves = 300;  // move-bounded, so wall-clock cannot interfere
  const auto a = local_search_ebmf(m, options);
  const auto b = local_search_ebmf(m, options);
  EXPECT_EQ(a.partition.size(), b.partition.size());
  EXPECT_EQ(a.stats.moves, b.stats.moves);
  EXPECT_EQ(a.stats.accepted, b.stats.accepted);
  EXPECT_EQ(a.stats.restarts, b.stats.restarts);
  ASSERT_EQ(a.stats.incumbents.size(), b.stats.incumbents.size());
  for (std::size_t i = 0; i < a.stats.incumbents.size(); ++i) {
    EXPECT_EQ(a.stats.incumbents[i].depth, b.stats.incumbents[i].depth);
    EXPECT_EQ(a.stats.incumbents[i].move, b.stats.incumbents[i].move);
  }
  // A different seed is allowed to walk elsewhere — only check it runs.
  LocalSearchOptions other = options;
  other.seed = 18;
  const auto c = local_search_ebmf(m, other);
  EXPECT_TRUE(static_cast<bool>(validate_partition(m, c.partition)));
}

TEST(LocalSearch, MidMoveCancelReturnsBestIncumbentPromptly) {
  const auto m = qldpc_instance(300, 0.3, 2);
  LocalSearchOptions options;
  options.seed = 1;
  options.budget.cancellable();
  Budget handle = options.budget;  // shares the cancellation flag

  std::thread canceller([&handle] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    handle.request_cancel();
  });
  Stopwatch clock;
  const auto result = local_search_ebmf(m, options);
  const double seconds = clock.seconds();
  canceller.join();

  // Prompt: well under a second past the cancel, not a drained time budget.
  EXPECT_LT(seconds, 5.0);
  EXPECT_FALSE(result.partition.empty());
  EXPECT_TRUE(static_cast<bool>(validate_partition(m, result.partition)));
}

TEST(LocalSearch, StopAtEndsTheSearchEarly) {
  // A known-optimal instance: stop_at = k ends at certified optimality.
  Rng rng(4);
  const auto gen = benchgen::known_optimal_matrix(30, 30, 5, rng);
  LocalSearchOptions options;
  options.seed = 2;
  options.stop_at = gen.optimal;
  options.max_moves = 5000;
  const auto result = local_search_ebmf(gen.matrix, options);
  EXPECT_TRUE(
      static_cast<bool>(validate_partition(gen.matrix, result.partition)));
  if (result.partition.size() <= gen.optimal) {
    EXPECT_TRUE(result.reached_stop);
    EXPECT_EQ(result.partition.size(), gen.optimal);
  }
}

TEST(ProbeBounds, LadderIsValidAndPicksTheBest) {
  const auto m = qldpc_instance(60, 0.3, 8);
  const auto probes = probe_lower_bounds(m, Budget{}, 1);
  // Each probe is a valid lower bound on r_B, so none exceeds an actual
  // partition's size; the champion is the max of those that ran.
  EXPECT_GE(probes.best, probes.rank);
  EXPECT_GE(probes.best, probes.counting);
  EXPECT_EQ(probes.rank, real_rank(m));
  EXPECT_GE(probes.rank, 1u);
  EXPECT_NE(probes.source, "");
  // Trivially: the lower bound cannot exceed the trivial upper bound.
  EXPECT_LE(probes.best, m.rows());
}

TEST(ProbeBounds, ZeroMatrixIsZero) {
  const BinaryMatrix zero(8, 8);
  const auto probes = probe_lower_bounds(zero, Budget{}, 1);
  EXPECT_EQ(probes.best, 0u);
  EXPECT_EQ(probes.source, "zero");
}

// ---- Engine-level gap contract -------------------------------------------

TEST(EngineGap, GapZeroIffProvedOptimal) {
  const engine::Engine engine;
  // Optimal case: small instance, exact tier closes the bracket.
  {
    auto request = engine::SolveRequest::dense(
        BinaryMatrix::parse("110;011;111"), "sap");
    const auto report = engine.solve(request);
    EXPECT_TRUE(report.proven_optimal());
    EXPECT_EQ(report.gap, 0u);
    EXPECT_EQ(report.lower_bound, report.upper_bound);
    EXPECT_EQ(report.incumbent_depth, report.upper_bound);
  }
  // Bounded case: structured large instance under a tight budget — the
  // local tier returns an incumbent with an open, correctly-sized gap.
  {
    const auto m = qldpc_instance(300, 0.3, 11);
    auto request = engine::SolveRequest::dense(m, "local");
    request.budget = Budget::after(1.5);
    request.trials = 2;
    const auto report = engine.solve(request);
    EXPECT_FALSE(report.partition.empty());
    EXPECT_EQ(report.incumbent_depth, report.partition.size());
    EXPECT_EQ(report.gap, report.upper_bound - report.lower_bound);
    if (report.gap == 0) {
      EXPECT_TRUE(report.proven_optimal());
    } else {
      EXPECT_FALSE(report.proven_optimal());
    }
  }
}

TEST(EngineGap, LocalStrategyCertifiesEasyOptimum) {
  // Full-rank random instance: the probe ladder proves rows = r_B and the
  // greedy seed attains it, so `local` must certify gap == 0.
  Rng rng(6);
  const auto m = BinaryMatrix::random(24, 48, 0.5, rng);
  if (real_rank(m) != m.rows()) GTEST_SKIP();
  const engine::Engine engine;
  auto request = engine::SolveRequest::dense(m, "local");
  const auto report = engine.solve(request);
  EXPECT_TRUE(report.proven_optimal());
  EXPECT_EQ(report.gap, 0u);
  EXPECT_EQ(report.depth(), m.rows());
}

}  // namespace
}  // namespace ebmf::local
