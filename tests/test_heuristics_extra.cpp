// Tests for the vacancy-aware masked row packing.

#include <gtest/gtest.h>

#include "completion/completion_solver.h"
#include "completion/masked_packing.h"
#include "core/bounds.h"
#include "oracle_ebmf.h"
#include "support/rng.h"

namespace ebmf {
namespace {

// ---- masked (vacancy-aware) packing --------------------------------------

TEST(MaskedPacking, BridgesAcrossVacancies) {
  const auto m = completion::MaskedMatrix::parse("1*;*1");
  const auto p = completion::masked_packing_pass(m, {0, 1});
  // Row 0 creates rectangle cols {0}; row 1's allowed = {0,1}, rect {0}
  // covers nothing of row 1's ones {1} -> residue {1} new rect. Still 2
  // here (packing only bridges when a rectangle covers some 1), but the
  // result must be Free-valid.
  EXPECT_TRUE(validate_masked(m, p, false));
}

TEST(MaskedPacking, VacancyLetsRectangleGrow) {
  // Rows: 110, 1*1 — the {0,1} rectangle from row 0 fits row 1 through the
  // vacancy at (1,1)? ones(1) = {0,2}, allowed(1) = {0,1,2}; rect cols
  // {0,1} covers one 1 ({0}) -> grows, residue {2}. Depth 2; DC-as-0
  // packing needs 2 as well, but the grown rectangle spans both rows.
  const auto m = completion::MaskedMatrix::parse("110;1*1");
  const auto p = completion::masked_packing_pass(m, {0, 1});
  EXPECT_TRUE(validate_masked(m, p, false));
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0].rows.count(), 2u);  // the bridge happened
}

TEST(MaskedPacking, NoVacanciesMatchesPlainPacking) {
  Rng rng(64);
  for (int t = 0; t < 10; ++t) {
    const auto pattern = BinaryMatrix::random(6, 6, 0.5, rng);
    completion::MaskedMatrix m(6, 6);
    for (std::size_t i = 0; i < 6; ++i)
      for (std::size_t j = 0; j < 6; ++j)
        if (pattern.test(i, j)) m.set(i, j, completion::Cell::One);
    const auto p = completion::masked_packing_pass(m, {0, 1, 2, 3, 4, 5});
    // Same as plain packing without basis update on the same order.
    const auto plain = row_packing_pass(pattern, {0, 1, 2, 3, 4, 5},
                                        /*basis_update=*/false);
    EXPECT_EQ(p.size(), plain.size());
  }
}

TEST(MaskedPacking, MultiTrialValidAndMonotone) {
  Rng rng(65);
  for (int t = 0; t < 10; ++t) {
    completion::MaskedMatrix m(6, 6);
    for (std::size_t i = 0; i < 6; ++i)
      for (std::size_t j = 0; j < 6; ++j) {
        const auto roll = rng.below(10);
        if (roll < 4)
          m.set(i, j, completion::Cell::One);
        else if (roll < 6)
          m.set(i, j, completion::Cell::DontCare);
      }
    RowPackingOptions one;
    one.trials = 1;
    one.seed = 7 + t;
    RowPackingOptions many = one;
    many.trials = 30;
    const auto r1 = completion::masked_row_packing(m, one);
    const auto rm = completion::masked_row_packing(m, many);
    EXPECT_TRUE(validate_masked(m, r1.partition, false));
    EXPECT_TRUE(validate_masked(m, rm.partition, false));
    EXPECT_LE(rm.partition.size(), r1.partition.size());
  }
}

TEST(MaskedPacking, ImprovesSolverUpperBound) {
  // A pattern where vacancies bridge otherwise-separate rows; the solver's
  // heuristic phase (which now includes masked packing) must start at or
  // below the DC-as-0 bound.
  const auto m = completion::MaskedMatrix::parse(
      "11**"
      ";**11"
      ";11**"
      ";**11");
  completion::CompletionOptions opt;
  const auto r = completion::solve_masked(m, opt);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_LE(r.partition.size(), 2u);
  EXPECT_TRUE(validate_masked(m, r.partition, false));
}

}  // namespace
}  // namespace ebmf
