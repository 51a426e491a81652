// Tests for the Eq. 3 rank ladder (GF(2), then mod 2^31 − 1) against two
// independent checks: a test-local exact elimination over ℤ, and the ranks
// the benchgen generators plant by construction.

#include "linalg/rank.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "benchgen/generators.h"
#include "benchgen/suites.h"
#include "core/bounds.h"
#include "core/matrix.h"
#include "core/preprocess.h"
#include "support/rng.h"

namespace ebmf {
namespace {

std::vector<BitVec> rows_of(const BinaryMatrix& m) { return m.row_vectors(); }

/// The largest min(m, n) the oracle below is exact for.
constexpr std::size_t kOracleLimit = 30;

/// Exact rank over ℚ by fraction-free (Bareiss) elimination on __int128.
/// After step k every entry is a (k+1)-order minor of M; by Hadamard a 0/1
/// minor of order ≤ 30 is below 1.3e14, so each cross product difference
/// stays below 3e28 < 2^127 while min(m, n) ≤ 30.
std::size_t exact_rank(const BinaryMatrix& m) {
  if (std::min(m.rows(), m.cols()) > kOracleLimit) {
    ADD_FAILURE() << "exact_rank is exact only up to min(m, n) = "
                  << kOracleLimit;
    return 0;
  }
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  std::vector<std::vector<__int128>> a(rows, std::vector<__int128>(cols));
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) a[i][j] = m.test(i, j) ? 1 : 0;
  __int128 prev = 1;
  std::size_t rank = 0;
  for (std::size_t col = 0; col < cols && rank < rows; ++col) {
    std::size_t pivot = rank;
    while (pivot < rows && a[pivot][col] == 0) ++pivot;
    if (pivot == rows) continue;
    std::swap(a[pivot], a[rank]);
    for (std::size_t i = rank + 1; i < rows; ++i) {
      for (std::size_t j = col + 1; j < cols; ++j) {
        const __int128 num = a[rank][col] * a[i][j] - a[i][col] * a[rank][j];
        EXPECT_TRUE(num % prev == 0);  // Bareiss: the division is exact
        a[i][j] = num / prev;
      }
      a[i][col] = 0;
    }
    prev = a[rank][col];
    ++rank;
  }
  return rank;
}

TEST(Rank, EmptyAndZero) {
  EXPECT_EQ(real_rank({}, 0), 0u);
  BinaryMatrix z(4, 5);
  EXPECT_EQ(real_rank(rows_of(z), 5), 0u);
  EXPECT_EQ(rank_gf2(rows_of(z), 5), 0u);
  EXPECT_EQ(rank_mod_p(rows_of(z), 5), 0u);
  EXPECT_EQ(exact_rank(z), 0u);
  EXPECT_EQ(real_rank(rows_of(BinaryMatrix(3, 0)), 0), 0u);
}

TEST(Rank, Identity) {
  BinaryMatrix id(6, 6);
  for (std::size_t i = 0; i < 6; ++i) id.set(i, i);
  EXPECT_EQ(real_rank(rows_of(id), 6), 6u);
  EXPECT_EQ(rank_gf2(rows_of(id), 6), 6u);
  EXPECT_EQ(rank_mod_p(rows_of(id), 6), 6u);
}

TEST(Rank, AllOnesIsRankOne) {
  BinaryMatrix ones(5, 7);
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 7; ++j) ones.set(i, j);
  EXPECT_EQ(real_rank(rows_of(ones), 7), 1u);
  EXPECT_EQ(exact_rank(ones), 1u);
}

TEST(Rank, DuplicateRowsDontCount) {
  const auto m = BinaryMatrix::parse("1100;1100;0011;0011;1111");
  // row0=row1, row2=row3, row4=row0+row2 -> rank 2.
  EXPECT_EQ(real_rank(rows_of(m), 4), 2u);
}

TEST(Rank, Gf2DiffersFromRealRank) {
  // The classic parity example (also the paper's Eq. 2 matrix shape):
  // rank over GF(2) collapses because rows sum to zero mod 2, so the
  // ladder must climb to the mod-p rung.
  const auto m = BinaryMatrix::parse("011;101;110");
  EXPECT_EQ(rank_gf2(rows_of(m), 3), 2u);
  EXPECT_EQ(rank_mod_p(rows_of(m), 3), 3u);
  EXPECT_EQ(real_rank(rows_of(m), 3), 3u);
  EXPECT_EQ(exact_rank(m), 3u);
}

TEST(Rank, Eq2MatrixFullRank) {
  // The paper's Eq. 2 matrix: r_B = 3 and rank 3 here too.
  const auto m = BinaryMatrix::parse("110;011;111");
  EXPECT_EQ(real_rank(rows_of(m), 3), 3u);
}

TEST(Rank, WideAndTallAgreeWithTranspose) {
  Rng rng(4242);
  for (int trial = 0; trial < 30; ++trial) {
    const auto m = BinaryMatrix::random(6, 11, 0.4, rng);
    const auto mt = m.transposed();
    EXPECT_EQ(real_rank(rows_of(m), m.cols()),
              real_rank(rows_of(mt), mt.cols()));
  }
}

TEST(Rank, LadderMatchesExactOracleOnRandom) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const auto m = BinaryMatrix::random(8, 8, 0.5, rng);
    const auto exact = exact_rank(m);
    EXPECT_EQ(real_rank(rows_of(m), 8), exact);
    EXPECT_EQ(rank_mod_p(rows_of(m), 8), exact);  // exact below rank 23
    EXPECT_LE(rank_gf2(rows_of(m), 8), exact);    // GF(2) can only drop
  }
}

TEST(Rank, RankBoundedByDims) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const auto m = BinaryMatrix::random(5, 9, 0.6, rng);
    const auto r = real_rank(rows_of(m), 9);
    EXPECT_LE(r, 5u);
  }
}

// Planted ranks past the oracle's reach: known_optimal_matrix builds
// M = C·R from k independent columns C and k disjoint row supports R, so
// rank M = k exactly; every one of these is GF(2)-deficient at 60×60, so
// the answer comes from the mod-p rung, including ranks above 22.
TEST(Rank, PlantedRanksExactPastTheOracle) {
  Rng rng(123);
  for (const std::size_t k : {1u, 5u, 15u, 22u, 23u, 30u, 45u, 59u}) {
    const auto planted = benchgen::known_optimal_matrix(60, 60, k, rng);
    EXPECT_EQ(real_rank(planted.matrix), k) << "k=" << k;
    EXPECT_LE(rank_gf2(rows_of(planted.matrix), 60), k);
  }
  // gap_matrix's pair rows are k splits of one base row: rank k + 1.
  for (const std::size_t k : {2u, 10u, 21u, 25u, 30u}) {
    const auto gap = benchgen::gap_matrix(60, 60, k, rng);
    const std::vector<BitVec> pairs(gap.matrix.row_vectors().begin(),
                                    gap.matrix.row_vectors().begin() +
                                        static_cast<std::ptrdiff_t>(2 * k));
    EXPECT_EQ(real_rank(pairs, 60), gap.pair_rank) << "k=" << k;
    EXPECT_GE(real_rank(gap.matrix), gap.pair_rank);
  }
}

TEST(Rank, KroneckerRankMultiplicative) {
  Rng rng(55);
  for (int trial = 0; trial < 10; ++trial) {
    const auto a = BinaryMatrix::random(4, 5, 0.5, rng);
    const auto b = BinaryMatrix::random(3, 4, 0.5, rng);
    const auto k = BinaryMatrix::kron(a, b);
    EXPECT_EQ(real_rank(rows_of(k), k.cols()),
              real_rank(rows_of(a), a.cols()) *
                  real_rank(rows_of(b), b.cols()));
  }
}

// Differential check of every rung against the exact oracle on ≥ 2,000
// seeded matrices up to 30×30: random at the paper's occupancies, planted
// low rank (known_optimal_matrix), and gap pairs plus noise (gap_matrix).
// The ladder must equal the exact rank; each rung may only undercount, and
// the mod-p rung must be exact wherever the rank is ≤ 22.
TEST(Rank, DifferentialAgainstExactOracle) {
  std::vector<double> occupancies = benchgen::paper_occupancies_small();
  for (const double occ : benchgen::paper_occupancies_large())
    occupancies.push_back(occ);
  Rng rng(2024);
  std::size_t gf2_short = 0;
  constexpr int kTrials = 2400;
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::size_t rows = 1 + rng.below(kOracleLimit);
    const std::size_t cols = 1 + rng.below(kOracleLimit);
    BinaryMatrix m;
    if (trial % 3 == 1) {
      const std::size_t k = 1 + rng.below(std::min(rows, cols));
      m = benchgen::known_optimal_matrix(rows, cols, k, rng).matrix;
    } else if (trial % 3 == 2 && rows >= 2 && cols >= 6) {
      const std::size_t k = 1 + rng.below(std::min(rows / 2, cols / 3));
      m = benchgen::gap_matrix(rows, cols, k, rng).matrix;
    } else {
      m = BinaryMatrix::random(rows, cols,
                               occupancies[rng.below(occupancies.size())], rng);
    }
    const std::size_t exact = exact_rank(m);
    const std::size_t gf2 = rank_gf2(rows_of(m), cols);
    const std::size_t modp = rank_mod_p(rows_of(m), cols);
    ASSERT_EQ(real_rank(m), exact) << "trial " << trial << "\n"
                                   << m.to_string();
    EXPECT_LE(gf2, exact);
    EXPECT_LE(modp, exact);
    if (exact <= 22) EXPECT_EQ(modp, exact);
    if (gf2 < exact) ++gf2_short;
  }
  // The mod-p rung must actually be exercised, not just the GF(2) exit.
  EXPECT_GT(gf2_short, static_cast<std::size_t>(kTrials / 50));
}

// The `exact-paper` benchmark's instances — Table 1's suites at a fifth of
// the paper's counts, seeds 2024 + … — and every preprocessed component SAP
// solves: the ladder must give the exact rank that exact-ℚ elimination gave.
// Matrices past the oracle's limit (the 100×100 rand rows) are pinned to
// the ranks fraction-free BigInt elimination computed for them.
TEST(Rank, ExactPaperInstancesMatchExactRank) {
  using namespace benchgen;
  constexpr std::uint64_t s = 2024;
  std::vector<Instance> all;
  const auto add = [&](std::vector<Instance> suite) {
    for (auto& inst : suite) all.push_back(std::move(inst));
  };
  add(random_suite(10, 10, paper_occupancies_small(), 2, s + 1));
  add(random_suite(10, 20, paper_occupancies_small(), 2, s + 2));
  add(random_suite(10, 30, paper_occupancies_small(), 2, s + 3));
  add(random_suite(100, 100, paper_occupancies_large(), 2, s + 4));
  add(known_optimal_suite(10, 10, 10, 2, s + 5));
  for (const std::size_t k : {3u, 4u, 5u})
    add(gap_suite(10, 10, {k}, 20, s + 5 + k));
  add(gap_suite(10, 10, {2}, 20, s + 7));
  ASSERT_EQ(all.size(), 164u);  // 160 admitted + 4 screened-out gap k=2

  // Whole matrix, then each large component, in instance order.
  const std::vector<std::size_t> pinned = {58,  50,  72,  62,  74,  73,
                                           100, 100, 99,  99,  100, 100,
                                           100, 100, 100, 100, 100, 100};
  std::size_t next_pinned = 0;
  const auto check = [&](const BinaryMatrix& m) {
    const std::size_t ladder = real_rank(m);
    if (std::min(m.rows(), m.cols()) <= kOracleLimit) {
      EXPECT_EQ(ladder, exact_rank(m));
    } else {
      ASSERT_LT(next_pinned, pinned.size());
      EXPECT_EQ(ladder, pinned[next_pinned++]);
    }
  };
  for (const Instance& inst : all) {
    check(inst.matrix);
    if (inst.family == "opt")  // planted: rank = r_B = k
      EXPECT_EQ(real_rank(inst.matrix), inst.known_optimal);
    const DuplicateReduction reduction = reduce_duplicates(inst.matrix);
    for (const Component& component : split_components(reduction.reduced))
      check(component.matrix);
  }
  EXPECT_EQ(next_pinned, pinned.size());
}

// Paper Observation 1 backdrop: wide random matrices are almost surely
// full-rank at moderate occupancy.
class FullRankTendency
    : public ::testing::TestWithParam<std::pair<std::size_t, double>> {};

TEST_P(FullRankTendency, WideMatricesUsuallyFullRank) {
  const auto [cols, occ] = GetParam();
  Rng rng(1000 + cols);
  int full = 0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    const auto m = BinaryMatrix::random(10, cols, occ, rng);
    if (real_rank(rows_of(m), cols) == 10) ++full;
  }
  EXPECT_GE(full, trials - 2);  // ≥ 90% full rank
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FullRankTendency,
    ::testing::Values(std::make_pair(std::size_t{20}, 0.3),
                      std::make_pair(std::size_t{20}, 0.5),
                      std::make_pair(std::size_t{30}, 0.2),
                      std::make_pair(std::size_t{30}, 0.5)));

}  // namespace
}  // namespace ebmf
