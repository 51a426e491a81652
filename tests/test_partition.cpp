// Tests for Rectangle, Partition and exact validation.

#include "core/partition.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "support/rng.h"

namespace ebmf {
namespace {

Rectangle rect(const std::string& rows, const std::string& cols) {
  return Rectangle{BitVec::from_string(rows), BitVec::from_string(cols)};
}

TEST(Rectangle, Basics) {
  const auto r = rect("101", "0110");
  EXPECT_TRUE(r.contains(0, 1));
  EXPECT_TRUE(r.contains(2, 2));
  EXPECT_FALSE(r.contains(1, 1));
  EXPECT_FALSE(r.contains(0, 0));
  EXPECT_EQ(r.cell_count(), 4u);
  EXPECT_FALSE(r.empty());
  EXPECT_TRUE(rect("000", "0110").empty());
  EXPECT_TRUE(rect("101", "0000").empty());
}

TEST(Rectangle, Transposed) {
  const auto r = rect("10", "011");
  const auto t = r.transposed();
  EXPECT_EQ(t.rows.to_string(), "011");
  EXPECT_EQ(t.cols.to_string(), "10");
}

TEST(Validate, AcceptsExactPartition) {
  const auto m = BinaryMatrix::parse("110;110;001");
  const Partition p{rect("110", "110"), rect("001", "001")};
  const auto v = validate_partition(m, p);
  EXPECT_TRUE(v.ok) << v.reason;
}

TEST(Validate, AcceptsEmptyPartitionOfZeroMatrix) {
  const BinaryMatrix z(3, 3);
  EXPECT_TRUE(validate_partition(z, {}).ok);
}

TEST(Validate, RejectsEmptyPartitionOfNonzero) {
  const auto m = BinaryMatrix::parse("100;000;000");
  const auto v = validate_partition(m, {});
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.reason.find("not fully covered"), std::string::npos);
}

TEST(Validate, RejectsCoveringZero) {
  const auto m = BinaryMatrix::parse("11;10");
  const Partition p{rect("11", "11")};  // covers the 0 at (1,1)
  const auto v = validate_partition(m, p);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.reason.find("covers a 0"), std::string::npos);
}

TEST(Validate, RejectsOverlap) {
  const auto m = BinaryMatrix::parse("11;11");
  const Partition p{rect("11", "11"), rect("10", "10")};
  const auto v = validate_partition(m, p);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.reason.find("overlaps"), std::string::npos);
}

TEST(Validate, RejectsIncompleteCover) {
  const auto m = BinaryMatrix::parse("11;11");
  const Partition p{rect("10", "11")};
  EXPECT_FALSE(validate_partition(m, p).ok);
}

TEST(Validate, RejectsEmptyRectangle) {
  const auto m = BinaryMatrix::parse("11;11");
  const Partition p{rect("11", "11"), rect("00", "11")};
  const auto v = validate_partition(m, p);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.reason.find("empty"), std::string::npos);
}

TEST(Validate, RejectsWrongShape) {
  const auto m = BinaryMatrix::parse("11;11");
  const Partition p{rect("111", "11")};
  const auto v = validate_partition(m, p);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.reason.find("shape"), std::string::npos);
}

TEST(Validate, PaperFigure1bPartition) {
  // Fig. 1b of the paper: 6x6 pattern partitioned into 5 rectangles.
  const auto m = BinaryMatrix::parse(
      "101100"
      ";010011"
      ";101010"
      ";010101"
      ";111000"
      ";000111");
  // Partition mirroring the figure's markers: rows {0,2} x cols {0,2},
  // rows {1,3} x cols {1,5}... constructed to be valid (one of several).
  const Partition p{
      rect("101000", "101000"),  // circles: rows 0,2 cols 0,2
      rect("010100", "010000"),  // rows 1,3 col 1
      rect("100010", "010000") /*unused placeholder*/};
  // The placeholder partition is intentionally wrong: it must be rejected.
  EXPECT_FALSE(validate_partition(m, p).ok);
}

/// Reference validator with one BitVec of covered cells per row. The
/// differential test below holds validate_partition to its verdicts and
/// reason strings.
ValidationResult reference_validate(const BinaryMatrix& m, const Partition& p) {
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  std::vector<BitVec> covered(rows, BitVec(cols));
  for (std::size_t t = 0; t < p.size(); ++t) {
    const Rectangle& r = p[t];
    if (r.rows.size() != rows || r.cols.size() != cols)
      return {false, "rectangle " + std::to_string(t) + " has wrong shape"};
    if (r.empty())
      return {false, "rectangle " + std::to_string(t) + " is empty"};
    for (std::size_t i = r.rows.find_first(); i < rows;
         i = r.rows.find_next(i)) {
      if (!r.cols.subset_of(m.row(i)))
        return {false, "rectangle " + std::to_string(t) + " covers a 0 in row " +
                           std::to_string(i)};
      if (covered[i].intersects(r.cols))
        return {false, "rectangle " + std::to_string(t) +
                           " overlaps a previous rectangle in row " +
                           std::to_string(i)};
      covered[i] |= r.cols;
    }
  }
  for (std::size_t i = 0; i < rows; ++i)
    if (!(covered[i] == m.row(i)))
      return {false, "row " + std::to_string(i) + " not fully covered"};
  return {true, {}};
}

/// A random valid partition of `rows` x `cols`: disjoint random rectangles,
/// the matrix being their union.
std::pair<BinaryMatrix, Partition> random_partitioned(std::size_t rows,
                                                       std::size_t cols,
                                                       Rng& rng) {
  BinaryMatrix m(rows, cols);
  Partition p;
  for (int attempt = 0; attempt < 12; ++attempt) {
    Rectangle r{BitVec(rows), BitVec(cols)};
    for (std::size_t i = 0; i < rows; ++i)
      if (rng.chance(0.2)) r.rows.set(i);
    for (std::size_t j = 0; j < cols; ++j)
      if (rng.chance(0.2)) r.cols.set(j);
    if (r.empty()) continue;
    bool disjoint = true;
    for (std::size_t i = r.rows.find_first(); i < rows; i = r.rows.find_next(i))
      disjoint = disjoint && m.row(i).disjoint(r.cols);
    if (!disjoint) continue;
    for (std::size_t i = r.rows.find_first(); i < rows; i = r.rows.find_next(i))
      for (std::size_t j = r.cols.find_first(); j < cols; j = r.cols.find_next(j))
        m.set(i, j);
    p.push_back(std::move(r));
  }
  return {std::move(m), std::move(p)};
}

TEST(Validate, MatchesThePerRowBitVecValidatorOnRandomPartitions) {
  const std::vector<std::string> kinds = {"wrong shape", "is empty",
                                          "covers a 0", "overlaps",
                                          "not fully covered"};
  Rng rng(63);
  for (const std::size_t cols : {63, 64, 65, 129}) {
    std::set<std::string> seen;
    for (int trial = 0; trial < 400; ++trial) {
      const std::size_t rows = 1 + rng.below(20);
      auto [m, p] = random_partitioned(rows, cols, rng);
      if (!p.empty()) {
        Rectangle& r = p[rng.below(p.size())];
        switch (trial % 7) {
          case 0:
            break;
          case 1:
            r.cols = BitVec(cols + (trial % 2 == 0 ? 1 : 0));
            r.rows = BitVec(rows + (trial % 2 == 0 ? 0 : 1));
            break;
          case 2:
            r.cols = BitVec(cols);
            break;
          case 3:
            r.cols.set(rng.below(cols));
            break;
          case 4:
            p.push_back(p[rng.below(p.size())]);
            break;
          case 5:
            p.erase(p.begin() + static_cast<std::ptrdiff_t>(rng.below(p.size())));
            break;
          default:
            r.rows.set(rng.below(rows));
            r.cols.set(rng.below(cols));
            break;
        }
      }
      const ValidationResult expected = reference_validate(m, p);
      const ValidationResult actual = validate_partition(m, p);
      ASSERT_EQ(actual.ok, expected.ok) << cols << " cols, trial " << trial;
      ASSERT_EQ(actual.reason, expected.reason)
          << cols << " cols, trial " << trial;
      if (actual.ok) seen.insert("ok");
      for (const std::string& kind : kinds)
        if (actual.reason.find(kind) != std::string::npos) seen.insert(kind);
    }
    EXPECT_TRUE(seen.count("ok")) << cols;
    for (const std::string& kind : kinds)
      EXPECT_TRUE(seen.count(kind)) << kind << " at " << cols << " cols";
  }
}

TEST(PartitionUnion, RebuildsCoveredCells) {
  const auto m = BinaryMatrix::parse("110;110;001");
  const Partition p{rect("110", "110"), rect("001", "001")};
  EXPECT_EQ(partition_union(p, 3, 3), m);
}

TEST(PartitionTransposed, ValidOnTransposedMatrix) {
  const auto m = BinaryMatrix::parse("110;110;001");
  const Partition p{rect("110", "110"), rect("001", "001")};
  EXPECT_TRUE(validate_partition(m.transposed(), transposed(p)).ok);
}

TEST(RenderPartition, MarksCellsByRectangle) {
  const auto m = BinaryMatrix::parse("110;110;001");
  const Partition p{rect("110", "110"), rect("001", "001")};
  EXPECT_EQ(render_partition(m, p), "00.\n00.\n..1");
}

}  // namespace
}  // namespace ebmf
