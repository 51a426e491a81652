// Tests for the Eq.-4 label formula: both CNF lowerings must decide
// "r_B(M) <= b" exactly, agree with brute force, and extract valid
// partitions.

#include "smt/label_formula.h"

#include <gtest/gtest.h>

#include "core/bounds.h"
#include "oracle_ebmf.h"
#include "oracle_sat.h"
#include "support/rng.h"

namespace ebmf::smt {
namespace {

sat::SolveResult decide(const BinaryMatrix& m, std::size_t b,
                        LabelEncoding enc, bool sym = true) {
  EncoderOptions opt;
  opt.encoding = enc;
  opt.symmetry_breaking = sym;
  LabelFormula f(m, b, opt);
  return f.solve();
}

class EncodingTest : public ::testing::TestWithParam<LabelEncoding> {};

TEST_P(EncodingTest, SingleRectangleMatrix) {
  const auto m = BinaryMatrix::parse("111;111");
  EXPECT_EQ(decide(m, 1, GetParam()), sat::SolveResult::Sat);
}

TEST_P(EncodingTest, DiagonalNeedsN) {
  BinaryMatrix m(4, 4);
  for (std::size_t i = 0; i < 4; ++i) m.set(i, i);
  EXPECT_EQ(decide(m, 4, GetParam()), sat::SolveResult::Sat);
  EXPECT_EQ(decide(m, 3, GetParam()), sat::SolveResult::Unsat);
}

TEST_P(EncodingTest, Eq2MatrixNeedsThree) {
  // Paper Eq. 2: fooling bound 2, but r_B = 3.
  const auto m = BinaryMatrix::parse("110;011;111");
  EXPECT_EQ(decide(m, 3, GetParam()), sat::SolveResult::Sat);
  EXPECT_EQ(decide(m, 2, GetParam()), sat::SolveResult::Unsat);
}

TEST_P(EncodingTest, ComplementIdentityThree) {
  // §II example: the GF(2)-style 2-term factorization is NOT a valid EBMF
  // (the real sum hits 2), so 2 rectangles are impossible; 3 suffice
  // ({0,1}×{2}, {1,2}×{0}, {0,2}×{1}).
  const auto m = BinaryMatrix::parse("011;101;110");
  EXPECT_EQ(real_rank(m), 3u);
  EXPECT_EQ(decide(m, 3, GetParam()), sat::SolveResult::Sat);
  EXPECT_EQ(decide(m, 2, GetParam()), sat::SolveResult::Unsat);
}

TEST_P(EncodingTest, PaperFig1bFiveRectangles) {
  const auto m = BinaryMatrix::parse(
      "101100;010011;101010;010101;111000;000111");
  EXPECT_EQ(decide(m, 5, GetParam()), sat::SolveResult::Sat);
  EXPECT_EQ(decide(m, 4, GetParam()), sat::SolveResult::Unsat);
}

TEST_P(EncodingTest, ExtractedPartitionIsValidAndSmall) {
  const auto m = BinaryMatrix::parse("1100;1110;0011;0011");
  EncoderOptions opt;
  opt.encoding = GetParam();
  LabelFormula f(m, 4, opt);
  ASSERT_EQ(f.solve(), sat::SolveResult::Sat);
  const auto p = f.extract_partition();
  EXPECT_LE(p.size(), 4u);
  const auto v = validate_partition(m, p);
  EXPECT_TRUE(v.ok) << v.reason;
}

TEST_P(EncodingTest, NarrowingWalksDownToOptimum) {
  const auto m = BinaryMatrix::parse("1100;1110;0011;0011");
  const auto brute = brute_force_ebmf(m);
  ASSERT_TRUE(brute.has_value());
  EncoderOptions opt;
  opt.encoding = GetParam();
  LabelFormula f(m, 4, opt);
  std::size_t best = 5;
  while (f.solve() == sat::SolveResult::Sat) {
    const auto p = f.extract_partition();
    EXPECT_TRUE(validate_partition(m, p).ok);
    best = p.size();
    if (best == 1) break;
    f.narrow(best - 1);
  }
  EXPECT_EQ(best, brute->binary_rank);
}

TEST_P(EncodingTest, StatsPopulated) {
  const auto m = BinaryMatrix::parse("1100;1110;0011;0011");
  EncoderOptions opt;
  opt.encoding = GetParam();
  LabelFormula f(m, 3, opt);
  EXPECT_EQ(f.stats().cells, m.ones_count());
  EXPECT_GT(f.stats().variables, 0u);
  EXPECT_GT(f.stats().clauses, 0u);
  EXPECT_GT(f.stats().neq_pairs + f.stats().implication_pairs, 0u);
}

TEST_P(EncodingTest, SymmetryBreakingPreservesAnswers) {
  Rng rng(12121);
  for (int t = 0; t < 10; ++t) {
    const auto m = BinaryMatrix::random(4, 5, 0.5, rng);
    if (m.is_zero()) continue;
    const auto ub = trivial_upper_bound(m);
    for (std::size_t b = 1; b <= ub; ++b) {
      const auto with = decide(m, b, GetParam(), true);
      const auto without = decide(m, b, GetParam(), false);
      EXPECT_EQ(with, without) << "b=" << b << "\n" << m.to_string();
    }
  }
}

TEST_P(EncodingTest, AgreesWithBruteForceAcrossAllBounds) {
  Rng rng(808);
  for (int t = 0; t < 12; ++t) {
    const auto m = BinaryMatrix::random(4, 4, 0.4 + 0.04 * t, rng);
    if (m.is_zero()) continue;
    const auto brute = brute_force_ebmf(m);
    ASSERT_TRUE(brute.has_value());
    const auto ub = trivial_upper_bound(m);
    for (std::size_t b = 1; b <= ub; ++b) {
      const auto expect = b >= brute->binary_rank ? sat::SolveResult::Sat
                                                  : sat::SolveResult::Unsat;
      EXPECT_EQ(decide(m, b, GetParam()), expect)
          << "b=" << b << " rB=" << brute->binary_rank << "\n"
          << m.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Encodings, EncodingTest,
                         ::testing::Values(LabelEncoding::OneHot,
                                           LabelEncoding::Binary));

TEST(LabelFormula, EncodingsAgreeOnRandomDecisions) {
  Rng rng(515);
  for (int t = 0; t < 15; ++t) {
    const auto m = BinaryMatrix::random(5, 5, 0.45, rng);
    if (m.is_zero()) continue;
    const auto ub = trivial_upper_bound(m);
    for (std::size_t b = 1; b <= ub; ++b) {
      EXPECT_EQ(decide(m, b, LabelEncoding::OneHot),
                decide(m, b, LabelEncoding::Binary))
          << "b=" << b << "\n" << m.to_string();
    }
  }
}

TEST(LabelFormula, RejectsZeroBoundAndEmptyMatrix) {
  const auto m = BinaryMatrix::parse("10;01");
  EXPECT_THROW((LabelFormula{m, 0}), ContractViolation);
  const BinaryMatrix z(2, 2);
  EXPECT_THROW((LabelFormula{z, 1}), ContractViolation);
}

TEST(LabelFormula, NarrowValidatesArguments) {
  const auto m = BinaryMatrix::parse("10;01");
  LabelFormula f(m, 2);
  EXPECT_THROW(f.narrow(2), ContractViolation);
  EXPECT_THROW(f.narrow(0), ContractViolation);
}

TEST(LabelFormula, ExportedCnfAgreesWithExternalSolver) {
  // The DIMACS snapshot must be equisatisfiable with the in-process
  // formula — checked by handing it to the independent DPLL engine.
  Rng rng(606);
  for (int t = 0; t < 8; ++t) {
    const auto m = BinaryMatrix::random(3, 4, 0.5, rng);
    if (m.is_zero()) continue;
    const auto ub = trivial_upper_bound(m);
    for (std::size_t b = 1; b <= ub; ++b) {
      LabelFormula f(m, b);
      const auto internal = f.solve();
      const auto external = sat::brute_force_sat(f.export_cnf());
      EXPECT_EQ(internal == sat::SolveResult::Sat, external.has_value())
          << "b=" << b << "\n" << m.to_string();
    }
  }
}

TEST(LabelFormula, ExportReflectsNarrowing) {
  BinaryMatrix m(3, 3);
  for (std::size_t i = 0; i < 3; ++i) m.set(i, i);  // diagonal: r_B = 3
  LabelFormula f(m, 3);
  ASSERT_EQ(f.solve(), sat::SolveResult::Sat);
  EXPECT_TRUE(sat::brute_force_sat(f.export_cnf()).has_value());
  f.narrow(2);  // now UNSAT
  ASSERT_EQ(f.solve(), sat::SolveResult::Unsat);
  EXPECT_FALSE(sat::brute_force_sat(f.export_cnf()).has_value());
}

TEST(LabelFormula, BudgetNeverFabricatesSat) {
  // 8x8 identity at bound 7 is UNSAT (pigeonhole on the diagonal); with a
  // one-conflict budget the solver may give up, but must never answer Sat.
  BinaryMatrix m(8, 8);
  for (std::size_t i = 0; i < 8; ++i) m.set(i, i);
  LabelFormula f(m, 7);
  sat::Budget budget;
  budget.max_conflicts = 1;
  const auto r = f.solve(budget);
  EXPECT_TRUE(r == sat::SolveResult::Unknown || r == sat::SolveResult::Unsat);
}

}  // namespace
}  // namespace ebmf::smt
