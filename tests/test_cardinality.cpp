// Tests for cardinality encodings: every encoding must admit exactly the
// assignments with the right number of true literals (checked by model
// enumeration with blocking clauses).

#include "sat/cardinality.h"

#include <gtest/gtest.h>

#include <set>

#include "sat/solver.h"

namespace ebmf::sat {
namespace {

/// Enumerate all models projected onto `lits`, returning the set of true
/// subsets (as bitmasks). Uses blocking clauses; fine for <= 12 literals.
std::set<std::uint32_t> project_models(Solver& s, const std::vector<Lit>& lits) {
  std::set<std::uint32_t> seen;
  while (s.solve() == SolveResult::Sat) {
    std::uint32_t mask = 0;
    Clause block;
    for (std::size_t i = 0; i < lits.size(); ++i) {
      if (s.model_true(lits[i])) {
        mask |= 1u << i;
        block.push_back(lits[i].neg());
      } else {
        block.push_back(lits[i]);
      }
    }
    seen.insert(mask);
    if (!s.add_clause(block)) break;
  }
  return seen;
}

std::size_t popcount32(std::uint32_t x) {
  std::size_t c = 0;
  while (x != 0) {
    c += x & 1;
    x >>= 1;
  }
  return c;
}

std::vector<Lit> fresh_lits(Solver& s, std::size_t n) {
  std::vector<Lit> lits;
  for (std::size_t i = 0; i < n; ++i) lits.push_back(pos(s.new_var()));
  return lits;
}

class AmoTest : public ::testing::TestWithParam<
                    std::tuple<std::size_t, AmoEncoding>> {};

TEST_P(AmoTest, ExactlyTheAmoModels) {
  const auto [n, enc] = GetParam();
  Solver s;
  const auto lits = fresh_lits(s, n);
  add_at_most_one(s, lits, enc);
  const auto models = project_models(s, lits);
  std::size_t expected = n + 1;  // empty + singletons
  EXPECT_EQ(models.size(), expected);
  for (auto m : models) EXPECT_LE(popcount32(m), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, AmoTest,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{4}, std::size_t{7},
                                         std::size_t{9}, std::size_t{12}),
                       ::testing::Values(AmoEncoding::Pairwise,
                                         AmoEncoding::Commander)));

class ExactlyOneTest : public ::testing::TestWithParam<
                           std::tuple<std::size_t, AmoEncoding>> {};

TEST_P(ExactlyOneTest, ExactlyTheSingletons) {
  const auto [n, enc] = GetParam();
  Solver s;
  const auto lits = fresh_lits(s, n);
  add_exactly_one(s, lits, enc);
  const auto models = project_models(s, lits);
  EXPECT_EQ(models.size(), n);
  for (auto m : models) EXPECT_EQ(popcount32(m), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ExactlyOneTest,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{3},
                                         std::size_t{8}, std::size_t{11}),
                       ::testing::Values(AmoEncoding::Pairwise,
                                         AmoEncoding::Commander)));

}  // namespace
}  // namespace ebmf::sat
