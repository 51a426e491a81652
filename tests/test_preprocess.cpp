// Tests for the exactness-preserving reductions: duplicate collapse and
// connected-component split, plus their interaction with SAP.

#include "core/preprocess.h"

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "core/bounds.h"
#include "oracle_ebmf.h"
#include "smt/sap.h"
#include "support/rng.h"

namespace ebmf {
namespace {

TEST(Dedup, CollapsesDuplicatesAndZeros) {
  const auto m = BinaryMatrix::parse(
      "1100"
      ";1100"
      ";0000"
      ";0011"
      ";1100");
  const auto r = reduce_duplicates(m);
  EXPECT_EQ(r.reduced.rows(), 2u);  // {1100}, {0011}
  EXPECT_EQ(r.reduced.cols(), 2u);  // cols 0==1, 2==3
  EXPECT_EQ(r.row_groups[0], (std::vector<std::size_t>{0, 1, 4}));
  EXPECT_EQ(r.row_groups[1], (std::vector<std::size_t>{3}));
  EXPECT_EQ(r.col_groups[0], (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(r.col_groups[1], (std::vector<std::size_t>{2, 3}));
}

/// The BitVec-keyed reduction reduce_duplicates replaced, kept as the
/// reference: equal nonzero rows grouped through a hash map in
/// first-occurrence order, then the same for the columns of the
/// row-reduced matrix, and the reduced matrix filled cell by cell.
DuplicateReduction reduce_duplicates_reference(const BinaryMatrix& m) {
  const auto group = [](const std::vector<BitVec>& lines) {
    std::unordered_map<BitVec, std::size_t, BitVecHash> index_of;
    std::vector<std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].none()) continue;
      auto [it, inserted] = index_of.try_emplace(lines[i], groups.size());
      if (inserted) groups.emplace_back();
      groups[it->second].push_back(i);
    }
    return groups;
  };
  DuplicateReduction out;
  out.original_rows = m.rows();
  out.original_cols = m.cols();
  out.row_groups = group(m.row_vectors());
  BinaryMatrix row_reduced(out.row_groups.size(), m.cols());
  for (std::size_t i = 0; i < out.row_groups.size(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      if (m.test(out.row_groups[i][0], j)) row_reduced.set(i, j);
  out.col_groups = group(row_reduced.transposed().row_vectors());
  out.reduced = BinaryMatrix(out.row_groups.size(), out.col_groups.size());
  for (std::size_t i = 0; i < out.row_groups.size(); ++i)
    for (std::size_t j = 0; j < out.col_groups.size(); ++j)
      if (row_reduced.test(i, out.col_groups[j][0])) out.reduced.set(i, j);
  return out;
}

TEST(Dedup, MatchesTheBitVecKeyedReductionOnRandomMatrices) {
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    // Draw a few distinct lines, then repeat them (and zero lines) at
    // random positions, so both duplicate groups and zeros are common.
    const std::size_t m = 1 + rng.below(trial % 3 == 0 ? 150 : 40);
    const std::size_t n = 1 + rng.below(trial % 4 == 0 ? 200 : 70);
    const BinaryMatrix base =
        BinaryMatrix::random(1 + rng.below(m), n, 0.05 + 0.5 * rng.uniform01(),
                             rng);
    std::vector<std::size_t> column_source(n);
    for (std::size_t j = 0; j < n; ++j)
      column_source[j] = j > 0 && rng.chance(0.2) ? rng.below(j) : j;
    BinaryMatrix a(m, n + rng.below(3));  // trailing zero columns
    for (std::size_t i = 0; i < m; ++i) {
      if (rng.chance(0.15)) continue;  // zero row
      const std::size_t source = rng.below(base.rows());
      for (std::size_t j = 0; j < n; ++j)
        if (base.test(source, column_source[j])) a.set(i, j);
    }
    const DuplicateReduction got = reduce_duplicates(a);
    const DuplicateReduction want = reduce_duplicates_reference(a);
    EXPECT_EQ(got.row_groups, want.row_groups) << "trial " << trial;
    EXPECT_EQ(got.col_groups, want.col_groups) << "trial " << trial;
    EXPECT_EQ(got.reduced, want.reduced) << "trial " << trial;
    EXPECT_EQ(got.original_rows, want.original_rows);
    EXPECT_EQ(got.original_cols, want.original_cols);
  }
}

TEST(Dedup, ZeroMatrixReducesToEmpty) {
  const BinaryMatrix z(3, 3);
  const auto r = reduce_duplicates(z);
  EXPECT_EQ(r.reduced.rows(), 0u);
  EXPECT_EQ(r.reduced.cols(), 0u);
}

TEST(Dedup, IdempotentOnIrreducible) {
  const auto m = BinaryMatrix::parse("110;011;111");
  const auto r = reduce_duplicates(m);
  EXPECT_EQ(r.reduced, m);
}

TEST(Dedup, PreservesRankAndBinaryRank) {
  Rng rng(41);
  for (int t = 0; t < 15; ++t) {
    auto m = BinaryMatrix::random(4, 4, 0.5, rng);
    // Duplicate some rows/cols by hand: append row 0 and col 0 copies.
    BinaryMatrix big(6, 5);
    for (std::size_t i = 0; i < 4; ++i)
      for (std::size_t j = 0; j < 4; ++j)
        if (m.test(i, j)) big.set(i, j);
    for (std::size_t j = 0; j < 4; ++j) {
      if (m.test(0, j)) big.set(4, j);
      if (m.test(1, j)) big.set(5, j);
    }
    for (std::size_t i = 0; i < 4; ++i)
      if (m.test(i, 0)) big.set(i, 4);
    if (m.test(0, 0)) big.set(4, 4);
    if (m.test(1, 0)) big.set(5, 4);
    if (big.is_zero()) continue;
    const auto r = reduce_duplicates(big);
    EXPECT_EQ(real_rank(r.reduced), real_rank(big));
    const auto brute_red = brute_force_ebmf(r.reduced);
    const auto brute_big = brute_force_ebmf(big);
    ASSERT_TRUE(brute_red && brute_big);
    EXPECT_EQ(brute_red->binary_rank, brute_big->binary_rank);
  }
}

TEST(Dedup, ExpandedPartitionIsValid) {
  const auto m = BinaryMatrix::parse(
      "1100"
      ";1100"
      ";0011"
      ";0011");
  const auto r = reduce_duplicates(m);
  const auto brute = brute_force_ebmf(r.reduced);
  ASSERT_TRUE(brute.has_value());
  const auto expanded = expand_partition(brute->partition, r);
  const auto v = validate_partition(m, expanded);
  EXPECT_TRUE(v.ok) << v.reason;
  EXPECT_EQ(expanded.size(), brute->binary_rank);
}

TEST(Components, BlockDiagonalSplits) {
  const auto m = BinaryMatrix::parse(
      "1100"
      ";1000"
      ";0011"
      ";0001");
  const auto comps = split_components(m);
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[0].matrix.rows() + comps[1].matrix.rows(), 4u);
  std::size_t total_ones = 0;
  for (const auto& c : comps) total_ones += c.matrix.ones_count();
  EXPECT_EQ(total_ones, m.ones_count());
}

TEST(Components, ConnectedMatrixIsOneComponent) {
  const auto m = BinaryMatrix::parse("110;011;111");
  const auto comps = split_components(m);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].matrix, m);
}

TEST(Components, ZeroMatrixHasNone) {
  const BinaryMatrix z(4, 4);
  EXPECT_TRUE(split_components(z).empty());
}

TEST(Components, InterleavedComponentsSeparate) {
  // Odd/even column groups interleaved across rows.
  const auto m = BinaryMatrix::parse(
      "1010"
      ";0101"
      ";1010");
  const auto comps = split_components(m);
  ASSERT_EQ(comps.size(), 2u);
}

TEST(Components, LiftedPartitionsConcatenateValidly) {
  Rng rng(43);
  for (int t = 0; t < 15; ++t) {
    const auto m = BinaryMatrix::random(8, 8, 0.12, rng);  // sparse: splits
    const auto comps = split_components(m);
    Partition combined;
    for (const auto& comp : comps) {
      const auto brute = brute_force_ebmf(comp.matrix);
      ASSERT_TRUE(brute.has_value());
      auto lifted = lift_partition(brute->partition, comp, 8, 8);
      combined.insert(combined.end(), lifted.begin(), lifted.end());
    }
    const auto v = validate_partition(m, combined);
    EXPECT_TRUE(v.ok) << v.reason;
  }
}

TEST(Components, RankIsAdditive) {
  Rng rng(44);
  for (int t = 0; t < 10; ++t) {
    const auto m = BinaryMatrix::random(10, 10, 0.1, rng);
    const auto comps = split_components(m);
    std::size_t sum = 0;
    for (const auto& c : comps) sum += real_rank(c.matrix);
    EXPECT_EQ(sum, real_rank(m));
  }
}

TEST(SapPreprocess, SameAnswerWithAndWithout) {
  Rng rng(45);
  for (int t = 0; t < 10; ++t) {
    const auto m = BinaryMatrix::random(6, 6, 0.25, rng);
    if (m.is_zero()) continue;
    SapOptions with;
    with.preprocess = true;
    SapOptions without;
    without.preprocess = false;
    const auto a = sap_solve(m, with);
    const auto b = sap_solve(m, without);
    ASSERT_TRUE(a.proven_optimal());
    ASSERT_TRUE(b.proven_optimal());
    EXPECT_EQ(a.depth(), b.depth()) << m.to_string();
    EXPECT_EQ(a.rank_lower, b.rank_lower);
    EXPECT_TRUE(validate_partition(m, a.partition).ok);
  }
}

TEST(SapPreprocess, SparseLargeMatrixExactlySolved) {
  // The paper's "too large for SMT" regime: 60x60 at 2% shatters into tiny
  // components, each exactly solvable - preprocessing turns the whole
  // instance provably optimal.
  Rng rng(46);
  const auto m = BinaryMatrix::random(60, 60, 0.02, rng);
  SapOptions opt;
  opt.budget.deadline = Deadline::after(20.0);
  const auto r = sap_solve(m, opt);
  EXPECT_TRUE(r.proven_optimal());
  EXPECT_TRUE(validate_partition(m, r.partition).ok);
}

TEST(SapPreprocess, DuplicateHeavyMatrixShrinks) {
  // 12 copies of 3 distinct rows: the reduced problem is 3 rows.
  Rng rng(47);
  const auto base = BinaryMatrix::random(3, 8, 0.5, rng);
  std::vector<BitVec> rows;
  for (int copy = 0; copy < 4; ++copy)
    for (std::size_t i = 0; i < 3; ++i) rows.push_back(base.row(i));
  const auto m = BinaryMatrix::from_rows(rows, 8);
  if (m.is_zero()) GTEST_SKIP();
  const auto r = sap_solve(m);
  EXPECT_TRUE(r.proven_optimal());
  EXPECT_LE(r.depth(), 3u);
  EXPECT_TRUE(validate_partition(m, r.partition).ok);
}

}  // namespace
}  // namespace ebmf
