// Tests for fooling sets: validity, the paper's worked examples, the
// lower-bound relationship phi(M) <= r_B(M), and the exact clique search
// against brute force, pinned sizes, its budget and its multi-word bitsets.

#include "core/fooling.h"

#include <gtest/gtest.h>

#include "benchgen/suites.h"
#include "oracle_ebmf.h"
#include "support/rng.h"
#include "support/stopwatch.h"

namespace ebmf {
namespace {

TEST(Fooling, EmptySetIsFooling) {
  const auto m = BinaryMatrix::parse("10;01");
  EXPECT_TRUE(is_fooling_set(m, {}));
}

TEST(Fooling, RejectsZeroCell) {
  const auto m = BinaryMatrix::parse("10;01");
  EXPECT_FALSE(is_fooling_set(m, {{0, 1}}));
}

TEST(Fooling, DiagonalOfIdentityIsFooling) {
  BinaryMatrix m(4, 4);
  for (std::size_t i = 0; i < 4; ++i) m.set(i, i);
  CellSet diag{{0, 0}, {1, 1}, {2, 2}, {3, 3}};
  EXPECT_TRUE(is_fooling_set(m, diag));
}

TEST(Fooling, RejectsSameRowPair) {
  // Two 1s in the same row always have 1-crossings (themselves).
  const auto m = BinaryMatrix::parse("11;00");
  EXPECT_FALSE(is_fooling_set(m, {{0, 0}, {0, 1}}));
}

TEST(Fooling, RejectsRectangleCorners) {
  const auto m = BinaryMatrix::parse("11;11");
  EXPECT_FALSE(is_fooling_set(m, {{0, 0}, {1, 1}}));
}

TEST(Fooling, GreedyProducesValidSet) {
  Rng rng(42);
  for (int t = 0; t < 20; ++t) {
    const auto m = BinaryMatrix::random(6, 6, 0.4, rng);
    const auto s = greedy_fooling_set(m, 8, t);
    EXPECT_TRUE(is_fooling_set(m, s));
  }
}

TEST(Fooling, ExactOnIdentity) {
  BinaryMatrix m(5, 5);
  for (std::size_t i = 0; i < 5; ++i) m.set(i, i);
  EXPECT_EQ(max_fooling_set(m).size(), 5u);
}

TEST(Fooling, ExactOnAllOnes) {
  const auto m = BinaryMatrix::parse("111;111");
  EXPECT_EQ(max_fooling_set(m).size(), 1u);
}

TEST(Fooling, ExactOnZeroMatrix) {
  const BinaryMatrix z(3, 3);
  EXPECT_TRUE(max_fooling_set(z).empty());
}

TEST(Fooling, PaperEq2MatrixPhiTwo) {
  // Paper: 3 rectangles needed but max fooling set is 2 — the bound is not
  // always tight.
  const auto m = BinaryMatrix::parse("110;011;111");
  EXPECT_EQ(max_fooling_set(m).size(), 2u);
  const auto brute = brute_force_ebmf(m);
  ASSERT_TRUE(brute.has_value());
  EXPECT_EQ(brute->binary_rank, 3u);
}

TEST(Fooling, PaperFig1bPhiFive) {
  // Fig. 1b: the shaded markers form a fooling set of size 5 certifying the
  // 5-rectangle partition optimal.
  const auto m = BinaryMatrix::parse(
      "101100;010011;101010;010101;111000;000111");
  const auto s = max_fooling_set(m);
  EXPECT_EQ(s.size(), 5u);
  EXPECT_TRUE(is_fooling_set(m, s));
}

TEST(Fooling, GreedyNeverExceedsExact) {
  Rng rng(88);
  for (int t = 0; t < 15; ++t) {
    const auto m = BinaryMatrix::random(5, 5, 0.5, rng);
    const auto exact = max_fooling_set(m);
    const auto greedy = greedy_fooling_set(m, 4, t);
    EXPECT_LE(greedy.size(), exact.size());
  }
}

TEST(Fooling, PhiBoundedByMinDimensionAndBinaryRank) {
  Rng rng(99);
  for (int t = 0; t < 15; ++t) {
    const auto m = BinaryMatrix::random(4, 5, 0.45, rng);
    if (m.is_zero()) continue;
    const auto phi = max_fooling_set(m).size();
    EXPECT_LE(phi, 4u);
    const auto brute = brute_force_ebmf(m);
    ASSERT_TRUE(brute.has_value());
    EXPECT_LE(phi, brute->binary_rank);
  }
}

TEST(Fooling, DeadlineReturnsValidSet) {
  Rng rng(7);
  const auto m = BinaryMatrix::random(8, 8, 0.5, rng);
  const auto s = max_fooling_set(m, Deadline::after(0.0));
  EXPECT_TRUE(is_fooling_set(m, s));  // the first-fit seed is still valid
  EXPECT_FALSE(s.empty());
}

/// φ by enumerating every fooling set: one holds at most one cell per row,
/// and every subset of a fooling set is one, so each set is reached by
/// choosing a cell or none per row and dropping non-fooling prefixes.
std::size_t brute_force_phi(const BinaryMatrix& m, std::size_t row,
                            CellSet& chosen) {
  if (row == m.rows()) return chosen.size();
  std::size_t best = brute_force_phi(m, row + 1, chosen);
  for (std::size_t j = 0; j < m.cols(); ++j) {
    if (!m.test(row, j)) continue;
    chosen.emplace_back(row, j);
    if (is_fooling_set(m, chosen))
      best = std::max(best, brute_force_phi(m, row + 1, chosen));
    chosen.pop_back();
  }
  return best;
}

TEST(Fooling, ExactMatchesEnumerationUpToSixBySix) {
  Rng rng(1401);
  for (int t = 0; t < 120; ++t) {
    const std::size_t rows = 1 + rng.below(6);
    const std::size_t cols = 1 + rng.below(6);
    const auto m =
        BinaryMatrix::random(rows, cols, 0.15 + 0.7 * rng.uniform01(), rng);
    CellSet chosen;
    const auto s = max_fooling_set(m);
    EXPECT_TRUE(is_fooling_set(m, s)) << m.to_string();
    EXPECT_EQ(s.size(), brute_force_phi(m, 0, chosen)) << m.to_string();
  }
}

TEST(Fooling, ExactMatchesPinnedSizesOnBenchgenSuites) {
  // Sizes recorded from the earlier SAT-based exact search (at-least-k over
  // a cardinality encoding) on the same generated matrices.
  using namespace benchgen;
  std::vector<Instance> suite;
  const auto add = [&](std::vector<Instance> part) {
    for (auto& inst : part) suite.push_back(std::move(inst));
  };
  add(random_suite(10, 10, paper_occupancies_small(), 1, 1401));
  add(random_suite(10, 20, {0.3, 0.5, 0.7}, 1, 1402));
  add(random_suite(10, 30, {0.2, 0.5}, 1, 1403));
  add(known_optimal_suite(10, 10, 10, 1, 1404));
  add(gap_suite(10, 10, {2, 3, 4, 5}, 2, 1405));
  const std::vector<std::size_t> pinned = {
      4, 8, 9, 8,  9, 7, 7, 6, 3, 10, 10, 8, 10, 10, 1, 2,
      3, 4, 5, 6,  7, 7, 8, 8, 8, 7,  8,  9, 7,  7,  6, 7};
  ASSERT_EQ(suite.size(), pinned.size());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const auto s = max_fooling_set(suite[i].matrix);
    EXPECT_TRUE(is_fooling_set(suite[i].matrix, s)) << suite[i].config;
    EXPECT_EQ(s.size(), pinned[i]) << suite[i].family << " "
                                   << suite[i].config;
  }
}

TEST(Fooling, ExactIsInvariantUnderTransposeAndPermutation) {
  // Reordering rows and columns relabels the clique graph's vertices, so
  // the search takes different paths to the same maximum.
  Rng rng(1406);
  for (int t = 0; t < 20; ++t) {
    const auto m = BinaryMatrix::random(9, 14, 0.35 + 0.03 * t, rng);
    const auto phi = max_fooling_set(m).size();
    EXPECT_EQ(max_fooling_set(m.transposed()).size(), phi);
    const auto shuffled = m.permuted_rows(rng.permutation(m.rows()));
    EXPECT_EQ(max_fooling_set(shuffled).size(), phi);
  }
}

TEST(Fooling, BudgetCutsReturnValidSetsPromptly) {
  Rng rng(1407);
  const auto m = BinaryMatrix::random(30, 30, 0.5, rng);
  Stopwatch sw;
  const auto expired = max_fooling_set(m, Deadline::after(0.0));
  EXPECT_TRUE(is_fooling_set(m, expired));
  EXPECT_FALSE(expired.empty());
  Budget one_node;
  one_node.max_nodes = 1;
  const auto capped = max_fooling_set(m, one_node);
  EXPECT_TRUE(is_fooling_set(m, capped));
  EXPECT_FALSE(capped.empty());
  EXPECT_LT(sw.seconds(), 0.5);
}

TEST(Fooling, CancellationStopsTheSearch) {
  Rng rng(1408);
  const auto m = BinaryMatrix::random(30, 30, 0.5, rng);
  Budget budget;
  budget.cancellable().request_cancel();
  const auto s = max_fooling_set(m, budget);
  EXPECT_TRUE(is_fooling_set(m, s));
}

TEST(Fooling, TargetStopsEarlyAndFloorIsRespected) {
  const auto m = BinaryMatrix::parse(
      "101100;010011;101010;010101;111000;000111");  // φ = 5
  for (std::size_t target = 1; target <= 5; ++target) {
    const auto s = max_fooling_set(m, {}, 0, target);
    EXPECT_TRUE(is_fooling_set(m, s));
    EXPECT_GE(s.size(), target);
  }
  // Only sets above the floor are sought: below φ the maximum is found,
  // at or above it the search proves none exists and returns its seed.
  EXPECT_EQ(max_fooling_set(m, {}, 4, 0).size(), 5u);
  EXPECT_LE(max_fooling_set(m, {}, 5, 0).size(), 5u);
  EXPECT_LE(max_fooling_set(m, {}, 6, 0).size(), 5u);
}

/// Upper-triangular n×n: n(n+1)/2 ones, and the diagonal is a maximum
/// fooling set (φ = n, the row count).
BinaryMatrix upper_triangular(std::size_t n) {
  BinaryMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) m.set(i, j);
  return m;
}

TEST(Fooling, MultiWordBitsetsAtWordBoundaries) {
  // Permutation matrices with 63, 64 and 65 ones put the last cell at
  // either side of a word boundary; every pair of cells is compatible.
  Rng rng(1409);
  for (const std::size_t n : {63u, 64u, 65u, 129u}) {
    const auto perm = rng.permutation(n);
    BinaryMatrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m.set(i, perm[i]);
    ASSERT_EQ(m.ones_count(), n);
    const auto s = max_fooling_set(m);
    EXPECT_EQ(s.size(), n);
    EXPECT_TRUE(is_fooling_set(m, s));
  }
  // Triangles with 66, 136 and 210 ones: φ = n across 2 to 4 words.
  for (const std::size_t n : {11u, 16u, 20u}) {
    const auto m = upper_triangular(n);
    ASSERT_GT(m.ones_count(), 64u);
    const auto s = max_fooling_set(m);
    EXPECT_EQ(s.size(), n);
    EXPECT_TRUE(is_fooling_set(m, s));
  }
  // 63, 64 and 65 ones in a 9×9 grid: cross-checked by enumeration.
  for (const std::size_t ones : {63u, 64u, 65u}) {
    BinaryMatrix m(9, 9);
    const auto order = rng.permutation(81);
    for (std::size_t k = 0; k < ones; ++k) m.set(order[k] / 9, order[k] % 9);
    CellSet chosen;
    const auto s = max_fooling_set(m);
    EXPECT_TRUE(is_fooling_set(m, s));
    EXPECT_EQ(s.size(), brute_force_phi(m, 0, chosen)) << m.to_string();
  }
}

}  // namespace
}  // namespace ebmf
