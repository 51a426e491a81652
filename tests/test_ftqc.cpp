// Tests for the FTQC tensor structure (paper §V): product partitions,
// Watson's bounds, the surface-code patterns, and the qLDPC conjecture's
// statistical backdrop.

#include <gtest/gtest.h>

#include "core/bounds.h"
#include "core/fooling.h"
#include "ftqc/patterns.h"
#include "ftqc/tensor.h"
#include "ftqc/two_level.h"
#include "oracle_ebmf.h"
#include "support/rng.h"
#include "support/stopwatch.h"

namespace ebmf::ftqc {
namespace {

TEST(Kron, BitVecDefinition) {
  const auto a = BitVec::from_string("101");
  const auto b = BitVec::from_string("10");
  EXPECT_EQ(kron(a, b).to_string(), "100010");
}

TEST(Kron, EmptyFactors) {
  const auto a = BitVec::from_string("11");
  const BitVec zero(2);
  EXPECT_TRUE(kron(a, zero).none());
  EXPECT_EQ(kron(a, zero).size(), 4u);
}

TEST(Kron, RectangleCellCountMultiplies) {
  const Rectangle r1{BitVec::from_string("110"), BitVec::from_string("101")};
  const Rectangle r2{BitVec::from_string("01"), BitVec::from_string("11")};
  const auto k = kron(r1, r2);
  EXPECT_EQ(k.cell_count(), r1.cell_count() * r2.cell_count());
}

TEST(TensorPartition, ValidOnProductMatrix) {
  Rng rng(66);
  for (int t = 0; t < 10; ++t) {
    const auto a = BinaryMatrix::random(3, 3, 0.5, rng);
    const auto b = BinaryMatrix::random(2, 4, 0.5, rng);
    if (a.is_zero() || b.is_zero()) continue;
    const auto pa = brute_force_ebmf(a);
    const auto pb = brute_force_ebmf(b);
    ASSERT_TRUE(pa && pb);
    const auto product = tensor_partition(pa->partition, pb->partition);
    const auto big = BinaryMatrix::kron(a, b);
    const auto v = validate_partition(big, product);
    EXPECT_TRUE(v.ok) << v.reason;
    EXPECT_EQ(product.size(), pa->partition.size() * pb->partition.size());
  }
}

TEST(TensorPartition, UpperBoundRespectsBruteForce) {
  // r_B(A (x) B) <= r_B(A) r_B(B); check against brute force on tiny cases.
  Rng rng(67);
  for (int t = 0; t < 6; ++t) {
    const auto a = BinaryMatrix::random(2, 3, 0.6, rng);
    const auto b = BinaryMatrix::random(2, 2, 0.6, rng);
    if (a.is_zero() || b.is_zero()) continue;
    const auto ra = brute_force_ebmf(a);
    const auto rb = brute_force_ebmf(b);
    const auto big = BinaryMatrix::kron(a, b);
    const auto rbig = brute_force_ebmf(big);
    ASSERT_TRUE(ra && rb && rbig);
    EXPECT_LE(rbig->binary_rank, ra->binary_rank * rb->binary_rank);
    // Watson's Eq. 5 from below.
    const auto phi_a = max_fooling_set(a).size();
    const auto phi_b = max_fooling_set(b).size();
    EXPECT_GE(rbig->binary_rank,
              watson_lower_bound(ra->binary_rank, phi_a, rb->binary_rank,
                                 phi_b));
  }
}

TEST(Patterns, TransversalPatchIsOneRectangle) {
  const auto m = transversal_patch(5);
  EXPECT_EQ(m.ones_count(), 25u);
  EXPECT_EQ(real_rank(m), 1u);
  EXPECT_EQ(max_fooling_set(m).size(), 1u);
}

TEST(Patterns, CheckerboardProperties) {
  const auto m = checkerboard_patch(4, 0);
  EXPECT_EQ(m.ones_count(), 8u);
  const auto m1 = checkerboard_patch(4, 1);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      EXPECT_NE(m.test(i, j), m1.test(i, j));
  // Checkerboard has exactly 2 distinct nonzero rows -> r_B <= 2.
  EXPECT_EQ(trivial_upper_bound(m), 2u);
  EXPECT_EQ(real_rank(m), 2u);
}

TEST(Patterns, BoundaryRowPatch) {
  const auto m = boundary_row_patch(4, 2);
  EXPECT_EQ(m.ones_count(), 4u);
  EXPECT_TRUE(m.test(2, 0));
  EXPECT_FALSE(m.test(0, 0));
  EXPECT_EQ(real_rank(m), 1u);
  EXPECT_THROW((void)boundary_row_patch(3, 3), ContractViolation);
}

TEST(TwoLevel, TransversalPhysicalIsOptimalByLogicalAlone) {
  // Paper §V: when M is all-ones, phi(M) = r_B(M) = 1, so the logical
  // partition is provably optimal for the tensor problem.
  Rng rng(68);
  const auto logical = logical_pattern(3, 3, 0.6, rng);
  if (logical.is_zero()) GTEST_SKIP();
  const auto physical = transversal_patch(3);
  const auto r = solve_two_level(logical, physical);
  EXPECT_EQ(r.phi_physical, 1u);
  ASSERT_TRUE(r.logical.proven_optimal());
  EXPECT_EQ(r.upper_bound, r.logical.depth());
  EXPECT_TRUE(r.certified_optimal());
  // The product partition really is a partition of the tensor pattern.
  const auto big = BinaryMatrix::kron(logical, physical);
  EXPECT_TRUE(validate_partition(big, r.product_partition).ok);
}

TEST(TwoLevel, BoundsBracketAndWitnessValid) {
  Rng rng(69);
  const auto logical = logical_pattern(3, 4, 0.5, rng);
  const auto physical = checkerboard_patch(3, 0);
  if (logical.is_zero()) GTEST_SKIP();
  const auto r = solve_two_level(logical, physical);
  EXPECT_LE(r.lower_bound, r.upper_bound);
  const auto big = BinaryMatrix::kron(logical, physical);
  EXPECT_TRUE(validate_partition(big, r.product_partition).ok);
}

TEST(TwoLevel, FoolingSearchesKeepToTheRequestBudget) {
  // Both φ searches share the request's budget. The exact search is
  // exponential in the worst case; on this 24×24 logical pattern it alone
  // needs about twice the 0.2 s budget, on top of the two solves.
  Rng rng(3);
  const auto logical = logical_pattern(24, 24, 0.5, rng);
  const auto physical = checkerboard_patch(3, 0);
  engine::SolveRequest request;
  const double budget_s = 0.2;
  request.budget = Budget::after(budget_s);
  Stopwatch sw;
  const auto r = solve_two_level(logical, physical, request);
  EXPECT_LE(sw.seconds(), budget_s * 1.1 + 0.05);
  EXPECT_LE(r.lower_bound, r.upper_bound);
  const auto big = BinaryMatrix::kron(logical, physical);
  EXPECT_TRUE(validate_partition(big, r.product_partition).ok);
}

TEST(Qldpc, WideBlocksUsuallyFullRank) {
  // Backdrop of the paper's §V conjecture: at fixed occupancy, wide block
  // matrices are full-rank (row addressing optimal) far more often than
  // square ones.
  Rng rng(70);
  const int trials = 30;
  int full_wide = 0;
  int full_square = 0;
  for (int t = 0; t < trials; ++t) {
    const auto wide = qldpc_block_pattern(10, 30, 0.3, rng);
    const auto square = qldpc_block_pattern(10, 10, 0.3, rng);
    if (real_rank(wide) == 10) ++full_wide;
    if (real_rank(square) == 10) ++full_square;
  }
  EXPECT_GE(full_wide, full_square);
  EXPECT_GE(full_wide, trials * 9 / 10);
}

}  // namespace
}  // namespace ebmf::ftqc
