// Edge-shape and contract tests across the public API surface: degenerate
// matrices (1x1, single row/column, all-ones, identity), and the
// precondition checks that keep misuse diagnosable.

#include <gtest/gtest.h>

#include "addressing/schedule.h"
#include "core/bounds.h"
#include "core/fooling.h"
#include "core/preprocess.h"
#include "core/row_packing.h"
#include "core/trivial.h"
#include "oracle_ebmf.h"
#include "smt/sap.h"

namespace ebmf {
namespace {

// ---- degenerate shapes through the whole pipeline -----------------------

struct Shape {
  const char* name;
  const char* text;
  std::size_t expected_depth;
};

class DegenerateShapes : public ::testing::TestWithParam<Shape> {};

TEST_P(DegenerateShapes, WholePipelineAgrees) {
  const auto& param = GetParam();
  const auto m = BinaryMatrix::parse(param.text);
  // SAP
  const auto r = sap_solve(m);
  EXPECT_TRUE(r.proven_optimal()) << param.name;
  EXPECT_EQ(r.depth(), param.expected_depth) << param.name;
  // brute force agrees
  const auto brute = brute_force_ebmf(m);
  ASSERT_TRUE(brute.has_value());
  EXPECT_EQ(brute->binary_rank, param.expected_depth) << param.name;
  // heuristics bracket
  RowPackingOptions opt;
  opt.trials = 10;
  EXPECT_GE(row_packing_ebmf(m, opt).partition.size(), param.expected_depth);
  // schedule constructible
  const addressing::Schedule schedule(m, r.partition);
  EXPECT_EQ(schedule.depth(), param.expected_depth);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DegenerateShapes,
    ::testing::Values(Shape{"one_by_one", "1", 1},
                      Shape{"one_by_one_zero", "0", 0},
                      Shape{"single_row", "101101", 1},
                      Shape{"single_col", "1;0;1;1", 1},
                      Shape{"all_ones_rect", "1111;1111;1111", 1},
                      Shape{"identity4", "1000;0100;0010;0001", 4},
                      Shape{"anti_diag", "001;010;100", 3},
                      Shape{"upper_triangular", "111;011;001", 3},
                      Shape{"two_blocks", "1100;1100;0011;0011", 2},
                      Shape{"cross", "010;111;010", 2},
                      Shape{"L_shape", "100;100;111", 2},
                      // ring = all-ones minus center: full rows block +
                      // the pierced row's two sides
                      Shape{"ring", "111;101;111", 2}));

// ---- contract checks ------------------------------------------------------

TEST(Contracts, BitVecBoundsInDebugOnly) {
  // set/test index checks are EBMF_ASSERT (debug); size-mismatch checks are
  // EBMF_EXPECTS (always on).
  BitVec a(4);
  BitVec b(5);
  EXPECT_THROW(a |= b, ContractViolation);
}

TEST(Contracts, MatrixParseRejectsJunk) {
  EXPECT_THROW((void)BinaryMatrix::parse("12"), ContractViolation);
}

TEST(Contracts, SolverModelAccessRequiresSat) {
  sat::Solver s;
  const auto v = s.new_var();
  EXPECT_THROW((void)s.model_true(sat::pos(v)), ContractViolation);
}

TEST(Contracts, ScheduleRejectsShapeMismatch) {
  const auto m = BinaryMatrix::parse("11;11");
  const Partition wrong{
      Rectangle{BitVec::from_string("111"), BitVec::from_string("11")}};
  EXPECT_THROW((addressing::Schedule{m, wrong}), ContractViolation);
}

TEST(Contracts, RowPackingRejectsBadOrder) {
  const auto m = BinaryMatrix::parse("11;11");
  EXPECT_THROW((void)row_packing_pass(m, {0, 0}), ContractViolation);
  EXPECT_THROW((void)row_packing_pass(m, {0}), ContractViolation);
}

// ---- cross-shape consistency ---------------------------------------------

TEST(EdgeCases, SingleRowAlwaysDepthOneOrZero) {
  Rng rng(71);
  for (int t = 0; t < 20; ++t) {
    const auto m = BinaryMatrix::random(1, 12, 0.4, rng);
    const auto r = sap_solve(m);
    EXPECT_TRUE(r.proven_optimal());
    EXPECT_EQ(r.depth(), m.is_zero() ? 0u : 1u);
  }
}

TEST(EdgeCases, PermutationMatrixNeedsN) {
  Rng rng(72);
  for (std::size_t n : {2u, 4u, 7u}) {
    const auto perm = rng.permutation(n);
    BinaryMatrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m.set(i, perm[i]);
    const auto r = sap_solve(m);
    EXPECT_TRUE(r.proven_optimal());
    EXPECT_EQ(r.depth(), n);
    // Permutation matrices are their own fooling sets.
    EXPECT_EQ(max_fooling_set(m).size(), n);
  }
}

TEST(EdgeCases, FullMatrixMinusOneCell) {
  // All-ones minus a single 0: depth 2 — the unpierced rows as one block,
  // the pierced row's remaining columns as the other.
  for (std::size_t n : {2u, 3u, 5u}) {
    BinaryMatrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) m.set(i, j);
    m.set(n / 2, n / 2, false);
    const auto r = sap_solve(m);
    EXPECT_TRUE(r.proven_optimal());
    EXPECT_EQ(r.depth(), 2u) << n;
  }
}

TEST(EdgeCases, TallThinAndShortWideAgree) {
  Rng rng(73);
  const auto tall = BinaryMatrix::random(20, 3, 0.5, rng);
  const auto r_tall = sap_solve(tall);
  const auto r_wide = sap_solve(tall.transposed());
  EXPECT_TRUE(r_tall.proven_optimal());
  EXPECT_TRUE(r_wide.proven_optimal());
  EXPECT_EQ(r_tall.depth(), r_wide.depth());
}

TEST(EdgeCases, CheckerboardNeedsTwo) {
  for (std::size_t n : {2u, 4u, 6u}) {
    BinaryMatrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        if ((i + j) % 2 == 0) m.set(i, j);
    const auto r = sap_solve(m);
    EXPECT_TRUE(r.proven_optimal());
    EXPECT_EQ(r.depth(), 2u) << n;
  }
}

}  // namespace
}  // namespace ebmf
