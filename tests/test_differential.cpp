// Differential test: every registered strategy against the exhaustive
// oracle on small seeded patterns. A strategy may answer Heuristic or
// Bounded, but its lower bound must never exceed the true binary rank, and
// an Optimal answer must equal it. `auto` routes these patterns to `sap`
// and must always certify.

#include <gtest/gtest.h>

#include <string>

#include "core/matrix.h"
#include "engine/engine.h"
#include "oracle_ebmf.h"
#include "support/rng.h"

namespace ebmf::engine {
namespace {

/// Patterns drawn: 1–8 × 1–8 at occupancy 0.1–0.9, kept when they have
/// at most kMaxOnes 1-cells.
constexpr std::size_t kPatterns = 2000;
constexpr std::size_t kMaxOnes = 16;

TEST(Differential, EveryStrategyAgreesWithOracleOnSmallPatterns) {
  const Engine engine;
  const auto names = SolverRegistry::with_builtins().names();
  Rng rng(2024);
  std::size_t drawn = 0;
  while (drawn < kPatterns) {
    const std::size_t rows = 1 + rng.below(8);
    const std::size_t cols = 1 + rng.below(8);
    const double occupancy = 0.1 + 0.8 * rng.uniform01();
    const BinaryMatrix m = BinaryMatrix::random(rows, cols, occupancy, rng);
    if (m.ones_count() > kMaxOnes) continue;
    ++drawn;
    const auto oracle = brute_force_ebmf(m);
    ASSERT_TRUE(oracle.has_value()) << m.to_string();
    const std::size_t rank = oracle->binary_rank;

    for (const auto& name : names) {
      auto request = SolveRequest::dense(m, name);
      request.seed = drawn;
      const auto report = engine.solve(request);
      ASSERT_LE(report.lower_bound, rank) << name << "\n" << m.to_string();
      ASSERT_GE(report.depth(), rank) << name << "\n" << m.to_string();
      if (report.proven_optimal())
        ASSERT_EQ(report.depth(), rank) << name << "\n" << m.to_string();
      if (name == "auto") {
        ASSERT_TRUE(report.proven_optimal()) << m.to_string();
        ASSERT_NE(report.find_telemetry("auto.selected"), nullptr);
        EXPECT_EQ(*report.find_telemetry("auto.selected"), "sap");
        EXPECT_EQ(report.strategy, "sap");
      }
    }
  }
}

}  // namespace
}  // namespace ebmf::engine
