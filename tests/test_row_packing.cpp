// Tests for row packing (Algorithm 2), including the paper's Fig. 3 worked
// example and property sweeps on all three benchmark families.

#include "core/row_packing.h"

#include <gtest/gtest.h>

#include "benchgen/generators.h"
#include "core/bounds.h"
#include "core/trivial.h"
#include "oracle_ebmf.h"
#include "support/rng.h"

namespace ebmf {
namespace {

// The 5x5 matrix of Fig. 3 (rows r0..r4).
BinaryMatrix fig3_matrix() {
  return BinaryMatrix::parse("11000;00110;01100;10011;11111");
}

TEST(RowPacking, PaperFig3TrialA) {
  // Processing rows in natural order reproduces the 5-rectangle outcome of
  // Fig. 3a.
  const auto m = fig3_matrix();
  const auto p = row_packing_pass(m, {0, 1, 2, 3, 4});
  EXPECT_TRUE(validate_partition(m, p).ok);
  EXPECT_EQ(p.size(), 5u);
}

TEST(RowPacking, PaperFig3TrialB) {
  // The shuffled order of Fig. 3b (r4, r2, r3, r0, r1) finds 4 rectangles,
  // exercising the basis update (v0 = 11111 shrinks to 10011).
  const auto m = fig3_matrix();
  const auto p = row_packing_pass(m, {4, 2, 3, 0, 1});
  EXPECT_TRUE(validate_partition(m, p).ok);
  EXPECT_EQ(p.size(), 4u);
}

TEST(RowPacking, Fig3WithoutBasisUpdateIsWorse) {
  // Disabling lines 9-16 on the Fig. 3b order loses the improvement.
  const auto m = fig3_matrix();
  const auto p = row_packing_pass(m, {4, 2, 3, 0, 1}, /*basis_update=*/false);
  EXPECT_TRUE(validate_partition(m, p).ok);
  EXPECT_GT(p.size(), 4u);
}

TEST(RowPacking, MultiTrialFindsFourOnFig3) {
  const auto m = fig3_matrix();
  RowPackingOptions opt;
  opt.trials = 50;
  opt.seed = 3;
  const auto r = row_packing_ebmf(m, opt);
  EXPECT_TRUE(validate_partition(m, r.partition).ok);
  EXPECT_EQ(r.partition.size(), 4u);
}

TEST(RowPacking, ZeroMatrixGivesEmptyPartition) {
  const BinaryMatrix z(5, 5);
  const auto r = row_packing_ebmf(z, {});
  EXPECT_TRUE(r.partition.empty());
}

TEST(RowPacking, SingleRowSingleRectanglePerDistinctRow) {
  const auto m = BinaryMatrix::parse("1011");
  const auto p = row_packing_pass(m, {0});
  EXPECT_EQ(p.size(), 1u);
  EXPECT_TRUE(validate_partition(m, p).ok);
}

TEST(RowPacking, DuplicateRowsConsolidated) {
  const auto m = BinaryMatrix::parse("101;101;101");
  const auto p = row_packing_pass(m, {0, 1, 2});
  EXPECT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0].rows.count(), 3u);
}

TEST(RowPacking, NeverWorseThanTrivial) {
  // The paper: "the algorithm introduces at most one rectangle for each
  // non-repeating row, ensuring the result is no worse than the trivial
  // heuristic" (per orientation; with transpose, than the full bound).
  Rng rng(777);
  for (int t = 0; t < 60; ++t) {
    const auto m =
        BinaryMatrix::random(6 + t % 5, 8, 0.15 + 0.08 * (t % 9), rng);
    RowPackingOptions opt;
    opt.trials = 1;
    opt.seed = 1000 + t;
    const auto r = row_packing_ebmf(m, opt);
    EXPECT_TRUE(validate_partition(m, r.partition).ok);
    EXPECT_LE(r.partition.size(), trivial_upper_bound(m));
  }
}

TEST(RowPacking, RowOrderMustBePermutation) {
  const auto m = fig3_matrix();
  EXPECT_THROW((void)row_packing_pass(m, {0, 1}), ContractViolation);
}

TEST(RowPacking, DeterministicGivenSeed) {
  Rng rng(42);
  const auto m = BinaryMatrix::random(8, 8, 0.5, rng);
  RowPackingOptions opt;
  opt.trials = 10;
  opt.seed = 5;
  const auto a = row_packing_ebmf(m, opt);
  const auto b = row_packing_ebmf(m, opt);
  EXPECT_EQ(a.partition.size(), b.partition.size());
  for (std::size_t i = 0; i < a.partition.size(); ++i)
    EXPECT_EQ(a.partition[i], b.partition[i]);
}

TEST(RowPacking, StopAtShortCircuits) {
  Rng rng(42);
  const auto m = BinaryMatrix::random(10, 10, 0.5, rng);
  RowPackingOptions opt;
  opt.trials = 1000;
  opt.stop_at = trivial_upper_bound(m);  // satisfied instantly
  const auto r = row_packing_ebmf(m, opt);
  EXPECT_LE(r.trials_run, 2u);
}

TEST(RowPacking, SortedOrderRunsOnce) {
  Rng rng(1);
  const auto m = BinaryMatrix::random(8, 8, 0.4, rng);
  RowPackingOptions opt;
  opt.trials = 100;
  opt.order = RowOrder::SortedByOnes;
  const auto r = row_packing_ebmf(m, opt);
  EXPECT_LE(r.trials_run, 2u);  // one pass per orientation
  EXPECT_TRUE(validate_partition(m, r.partition).ok);
}

TEST(RowPacking, TransposeCanWin) {
  // A matrix with many distinct rows but few distinct columns: the
  // transpose orientation must be picked up.
  const auto m = BinaryMatrix::parse("10;01;11;10;01");
  RowPackingOptions opt;
  opt.trials = 5;
  const auto r = row_packing_ebmf(m, opt);
  EXPECT_LE(r.partition.size(), 2u);
  EXPECT_TRUE(validate_partition(m, r.partition).ok);
}

// Property sweep: on every family, every trial count, packing stays valid
// and within the bracket [rank, trivial].
struct SweepParam {
  std::size_t rows, cols;
  double occupancy;
  std::uint64_t seed;
};

class RowPackingSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(RowPackingSweep, ValidAndBracketed) {
  const auto param = GetParam();
  Rng rng(param.seed);
  for (int i = 0; i < 10; ++i) {
    const auto m =
        BinaryMatrix::random(param.rows, param.cols, param.occupancy, rng);
    RowPackingOptions opt;
    opt.trials = 10;
    opt.seed = param.seed + static_cast<std::uint64_t>(i);
    const auto r = row_packing_ebmf(m, opt);
    const auto v = validate_partition(m, r.partition);
    ASSERT_TRUE(v.ok) << v.reason;
    if (!m.is_zero()) {
      EXPECT_GE(r.partition.size(), real_rank(m));
      EXPECT_LE(r.partition.size(), trivial_upper_bound(m));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RowPackingSweep,
    ::testing::Values(SweepParam{5, 5, 0.2, 1}, SweepParam{5, 5, 0.5, 2},
                      SweepParam{5, 5, 0.8, 3}, SweepParam{10, 10, 0.1, 4},
                      SweepParam{10, 10, 0.5, 5}, SweepParam{10, 10, 0.9, 6},
                      SweepParam{10, 20, 0.3, 7}, SweepParam{10, 30, 0.5, 8},
                      SweepParam{20, 10, 0.4, 9}, SweepParam{30, 30, 0.2, 10},
                      SweepParam{1, 10, 0.5, 11}, SweepParam{10, 1, 0.5, 12}));

TEST(RowPacking, OptimalOnKnownOptimalFamily) {
  // Paper Observation 2: row packing always finds the optimum on family 2.
  Rng rng(31337);
  for (std::size_t k = 1; k <= 6; ++k) {
    for (int i = 0; i < 5; ++i) {
      const auto inst = benchgen::known_optimal_matrix(8, 8, k, rng);
      RowPackingOptions opt;
      opt.trials = 10;
      const auto r = row_packing_ebmf(inst.matrix, opt);
      EXPECT_TRUE(validate_partition(inst.matrix, r.partition).ok);
      EXPECT_EQ(r.partition.size(), inst.optimal);
    }
  }
}

TEST(RowPacking, MoreTrialsNeverHurt) {
  Rng rng(2718);
  for (int t = 0; t < 10; ++t) {
    const auto gap = benchgen::gap_matrix(8, 8, 3, rng);
    RowPackingOptions one;
    one.trials = 1;
    one.seed = 100 + t;
    RowPackingOptions many = one;
    many.trials = 64;
    const auto r1 = row_packing_ebmf(gap.matrix, one);
    const auto rm = row_packing_ebmf(gap.matrix, many);
    EXPECT_LE(rm.partition.size(), r1.partition.size());
  }
}

TEST(RowPacking, MatchesBruteForceOnTinyMatrices) {
  // With enough trials, row packing reaches the optimum on most tiny
  // instances; we assert validity plus a quality margin of +1.
  Rng rng(909);
  int optimal_hits = 0;
  int cases = 0;
  for (int t = 0; t < 25; ++t) {
    const auto m = BinaryMatrix::random(4, 4, 0.5, rng);
    if (m.is_zero()) continue;
    const auto brute = brute_force_ebmf(m);
    ASSERT_TRUE(brute.has_value());
    RowPackingOptions opt;
    opt.trials = 50;
    opt.seed = t;
    const auto r = row_packing_ebmf(m, opt);
    ++cases;
    EXPECT_LE(r.partition.size(), brute->binary_rank + 1);
    if (r.partition.size() == brute->binary_rank) ++optimal_hits;
  }
  // Strong majority of tiny cases should be solved optimally.
  EXPECT_GE(optimal_hits * 10, cases * 8);
}

}  // namespace
}  // namespace ebmf
