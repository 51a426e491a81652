// Tests for the don't-care (vacancy) extension: masked validation and the
// completion solver under both semantics.

#include "completion/completion_solver.h"

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "smt/sap.h"
#include "support/rng.h"
#include "support/stopwatch.h"

namespace ebmf::completion {
namespace {

TEST(Masked, ParseClassifiesCells) {
  const auto m = MaskedMatrix::parse("10*;x01");
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.at(0, 0), Cell::One);
  EXPECT_EQ(m.at(0, 1), Cell::Zero);
  EXPECT_EQ(m.at(0, 2), Cell::DontCare);
  EXPECT_EQ(m.at(1, 0), Cell::DontCare);
  EXPECT_EQ(m.at(1, 2), Cell::One);
  EXPECT_EQ(m.dont_care_count(), 2u);
  // Pattern view reads don't-cares as 0.
  EXPECT_FALSE(m.pattern().test(0, 2));
}

TEST(Masked, ValidateRespectsSemantics) {
  // Pattern: diag ones, anti-diag don't-cares. The full 2x2 rectangle
  // covers each DC once - fine under both semantics.
  const auto m = MaskedMatrix::parse("1*;*1");
  const Partition full{
      Rectangle{BitVec::from_string("11"), BitVec::from_string("11")}};
  EXPECT_TRUE(validate_masked(m, full, false));
  EXPECT_TRUE(validate_masked(m, full, true));
  // Two rectangles that overlap on the DC at (1,0): Free ok, AtMostOnce no.
  const Partition overlapping{
      Rectangle{BitVec::from_string("11"), BitVec::from_string("10")},
      Rectangle{BitVec::from_string("01"), BitVec::from_string("11")}};
  EXPECT_TRUE(validate_masked(m, overlapping, false));
  EXPECT_FALSE(validate_masked(m, overlapping, true));
  std::string why;
  EXPECT_FALSE(validate_masked(m, overlapping, true, &why));
  EXPECT_NE(why.find("don't-care"), std::string::npos);
}

TEST(Masked, ValidateRejectsZeroCoverAndDoubleOne) {
  const auto m = MaskedMatrix::parse("10;01");
  const Partition bad{
      Rectangle{BitVec::from_string("11"), BitVec::from_string("11")}};
  std::string why;
  EXPECT_FALSE(validate_masked(m, bad, false, &why));
  EXPECT_NE(why.find("zero cell"), std::string::npos);
}

TEST(Completion, DontCareBridgesRectangles) {
  // Without DCs the diagonal needs 2 rectangles; with the anti-diagonal as
  // vacancies a single full rectangle suffices.
  const auto m = MaskedMatrix::parse("1*;*1");
  const auto r = solve_masked(m);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_EQ(r.partition.size(), 1u);
  EXPECT_TRUE(validate_masked(m, r.partition, false));
  // The DC-as-0 heuristic needed 2.
  EXPECT_EQ(r.heuristic_size, 2u);
}

TEST(Completion, NoDontCaresMatchesSap) {
  Rng rng(31);
  for (int t = 0; t < 6; ++t) {
    const auto pattern = BinaryMatrix::random(5, 5, 0.5, rng);
    if (pattern.is_zero()) continue;
    MaskedMatrix m(5, 5);
    for (std::size_t i = 0; i < 5; ++i)
      for (std::size_t j = 0; j < 5; ++j)
        if (pattern.test(i, j)) m.set(i, j, Cell::One);
    const auto masked = solve_masked(m);
    const auto plain = sap_solve(pattern);
    ASSERT_TRUE(plain.proven_optimal());
    ASSERT_TRUE(masked.proven_optimal);
    EXPECT_EQ(masked.partition.size(), plain.depth());
  }
}

TEST(Completion, ZeroPatternEmptyResult) {
  const auto m = MaskedMatrix::parse("**;**");
  const auto r = solve_masked(m);
  EXPECT_TRUE(r.partition.empty());
  EXPECT_TRUE(r.proven_optimal);
}

TEST(Completion, SemanticsOrdering) {
  // Free <= AtMostOnce <= DC-as-0, on random masked instances.
  Rng rng(77);
  for (int t = 0; t < 8; ++t) {
    MaskedMatrix m(4, 4);
    bool has_one = false;
    for (std::size_t i = 0; i < 4; ++i)
      for (std::size_t j = 0; j < 4; ++j) {
        const auto roll = rng.below(10);
        if (roll < 4) {
          m.set(i, j, Cell::One);
          has_one = true;
        } else if (roll < 6) {
          m.set(i, j, Cell::DontCare);
        }
      }
    if (!has_one) continue;
    CompletionOptions free_opt;
    CompletionOptions strict_opt;
    strict_opt.semantics = DontCareSemantics::AtMostOnce;
    const auto rf = solve_masked(m, free_opt);
    const auto rs = solve_masked(m, strict_opt);
    ASSERT_TRUE(rf.proven_optimal);
    ASSERT_TRUE(rs.proven_optimal);
    EXPECT_LE(rf.partition.size(), rs.partition.size());
    const auto plain = sap_solve(m.pattern());
    ASSERT_TRUE(plain.proven_optimal());
    EXPECT_LE(rs.partition.size(), plain.depth());
    EXPECT_TRUE(validate_masked(m, rf.partition, false));
    EXPECT_TRUE(validate_masked(m, rs.partition, true));
  }
}

TEST(Completion, SatDisabledStillValid) {
  const auto m = MaskedMatrix::parse("1*1;0x0;101");
  CompletionOptions opt;
  opt.use_sat = false;
  const auto r = solve_masked(m, opt);
  EXPECT_TRUE(validate_masked(m, r.partition, true));
}

// The masked formula has Θ(cells²·b) clauses and is built without a
// deadline check, so a dense pattern must be refused before encoding: the
// reply is the packing bracket, in time, instead of seconds of encoding
// (40×40) or an exhausted address space (60×60).
// With no deadline, the same refusal comes from a fixed ceiling on the
// formula's size: masked 60×60 (ones at 0.5, don't-cares at 5%) would need
// about 11 GB of clauses and exhausted the address space.
TEST(Completion, RefusesAFormulaPastItsMemoryCeilingWithNoDeadline) {
  Rng rng(1);
  MaskedMatrix m(60, 60);
  for (std::size_t i = 0; i < 60; ++i)
    for (std::size_t j = 0; j < 60; ++j) {
      if (rng.uniform01() < 0.05)
        m.set(i, j, Cell::DontCare);
      else if (rng.uniform01() < 0.5)
        m.set(i, j, Cell::One);
    }
  const auto r = solve_masked(m);
  EXPECT_EQ(r.sat_calls, 0u);
  EXPECT_FALSE(r.proven_optimal);
  EXPECT_EQ(r.partition.size(), r.heuristic_size);
  EXPECT_LT(r.lower_bound, r.partition.size());
  EXPECT_TRUE(validate_masked(m, r.partition, false));

  const engine::Engine engine;
  const auto report =
      engine.solve(engine::SolveRequest::with_mask(m, "auto"));
  EXPECT_EQ(report.strategy, "completion");
  EXPECT_EQ(report.status, engine::Status::Bounded);
}

TEST(Completion, KeepsToItsBudgetOnDensePatterns) {
  constexpr double kBudget = 1.0;
  const engine::Engine engine;
  for (const std::size_t n : {40u, 60u}) {
    Rng rng(1);
    const BinaryMatrix m = BinaryMatrix::random(n, n, 0.5, rng);
    auto request = engine::SolveRequest::dense(m, "completion");
    const Stopwatch clock;
    request.budget = Budget::after(kBudget);
    const auto report = engine.solve(request);
    EXPECT_LE(clock.seconds(), kBudget * 1.1 + 0.05) << n;
    EXPECT_TRUE(validate_partition(m, report.partition).ok) << n;
    EXPECT_GE(report.depth(), report.lower_bound) << n;
  }
}

}  // namespace
}  // namespace ebmf::completion
