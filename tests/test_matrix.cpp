// Tests for BinaryMatrix.

#include "core/matrix.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "support/rng.h"

namespace ebmf {
namespace {

/// The per-character parser BinaryMatrix::parse replaced, kept as the
/// reference: rows split on ';' and '\n', blank rows dropped, ' ', '\t'
/// and '\r' skipped anywhere, any other byte rejected, and the rows handed
/// to from_strings (which rejects ragged ones).
BinaryMatrix parse_reference(const std::string& text) {
  std::vector<std::string> rows;
  std::string cur;
  for (const char ch : text) {
    if (ch == ';' || ch == '\n') {
      if (!cur.empty()) rows.push_back(std::move(cur));
      cur.clear();
    } else if (ch == '0' || ch == '1') {
      cur.push_back(ch);
    } else {
      EBMF_EXPECTS(ch == ' ' || ch == '\t' || ch == '\r');
    }
  }
  if (!cur.empty()) rows.push_back(std::move(cur));
  return BinaryMatrix::from_strings(rows);
}

/// A random `rows` x `cols` grid as text: mixed ';' and '\n' separators
/// (sometimes doubled, leading or trailing) and, when `blanks`, spaces,
/// tabs and CRs dropped inside the cell runs.
std::string grid_text(std::size_t rows, std::size_t cols, bool blanks,
                      Rng& rng) {
  static const char kBlanks[] = {' ', '\t', '\r'};
  std::string text;
  if (rng.chance(0.2)) text += ';';
  for (std::size_t i = 0; i < rows; ++i) {
    if (i != 0) {
      text += rng.chance(0.5) ? ';' : '\n';
      if (rng.chance(0.1)) text += rng.chance(0.5) ? ';' : '\n';
    }
    for (std::size_t j = 0; j < cols; ++j) {
      if (blanks && rng.chance(0.05)) text += kBlanks[rng.below(3)];
      text += rng.chance(0.4) ? '1' : '0';
    }
  }
  if (rng.chance(0.2)) text += '\n';
  return text;
}

/// Both parsers accept `text` and agree, or both reject it.
void expect_same_parse(const std::string& text) {
  bool reference_threw = false;
  BinaryMatrix expected;
  try {
    expected = parse_reference(text);
  } catch (const ContractViolation&) {
    reference_threw = true;
  }
  if (reference_threw) {
    EXPECT_THROW((void)BinaryMatrix::parse(text), ContractViolation) << text;
    return;
  }
  EXPECT_EQ(BinaryMatrix::parse(text), expected) << text;
}

TEST(Matrix, DefaultEmpty) {
  BinaryMatrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.is_zero());
  EXPECT_EQ(m.ones_count(), 0u);
}

TEST(Matrix, ParseAndToString) {
  const auto m = BinaryMatrix::parse("101;010;110");
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_TRUE(m.test(0, 0));
  EXPECT_FALSE(m.test(0, 1));
  EXPECT_TRUE(m.test(2, 1));
  EXPECT_EQ(m.to_string(), "101\n010\n110");
}

TEST(Matrix, ParseAcceptsNewlinesAndSpaces) {
  const auto m = BinaryMatrix::parse("10 1\n0 10\n");
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
}

TEST(Matrix, ParseRejectsGarbage) {
  EXPECT_THROW((void)BinaryMatrix::parse("10;2x"), ContractViolation);
}

TEST(MatrixParse, MatchesPerCharacterParserOnRandomGrids) {
  Rng rng(2024);
  for (const std::size_t cols : {1, 7, 8, 9, 63, 64, 65, 200}) {
    for (int trial = 0; trial < 24; ++trial) {
      const std::size_t rows = 1 + rng.below(12);
      const std::string text = grid_text(rows, cols, trial % 2 == 1, rng);
      expect_same_parse(text);
      const BinaryMatrix m = BinaryMatrix::parse(text);
      EXPECT_EQ(m.rows(), rows);
      EXPECT_EQ(m.cols(), cols);
    }
  }
}

TEST(MatrixParse, BlanksInsideAnEightByteRun) {
  // Every offset of a blank inside (and at either edge of) a 16-cell row.
  for (const char blank : {' ', '\t', '\r'}) {
    for (std::size_t at = 0; at <= 16; ++at) {
      std::string row = "0110100111010010";
      row.insert(at, 1, blank);
      const std::string text = row + ";" + row + "\n" + row;
      expect_same_parse(text);
      EXPECT_EQ(BinaryMatrix::parse(text).row(0).to_string(),
                "0110100111010010");
    }
  }
}

TEST(MatrixParse, InvalidByteInsideARunThrows) {
  for (const char bad : {'2', 'x', '*', '\0', '/', ':', '\x81'}) {
    for (std::size_t at = 0; at < 17; ++at) {
      std::string text = "10110100101101001;01001011010010110";
      text[at] = bad;
      EXPECT_THROW((void)parse_reference(text), ContractViolation);
      EXPECT_THROW((void)BinaryMatrix::parse(text), ContractViolation)
          << "bad byte " << static_cast<int>(bad) << " at " << at;
    }
  }
}

TEST(MatrixParse, RaggedRowsThrow) {
  Rng rng(9);
  for (const std::size_t cols : {1, 7, 8, 9, 63, 64, 65, 200}) {
    std::string text = grid_text(3, cols, false, rng);
    text += ';' + std::string(cols + 1, '1');
    expect_same_parse(text);
    EXPECT_THROW((void)BinaryMatrix::parse(text), ContractViolation);
    std::string shorter = grid_text(2, cols + 1, true, rng) + "\n" +
                          std::string(cols, '0');
    expect_same_parse(shorter);
    EXPECT_THROW((void)BinaryMatrix::parse(shorter), ContractViolation);
  }
}

TEST(Matrix, FromStringsRejectsRaggedRows) {
  EXPECT_THROW((void)BinaryMatrix::from_strings({"101", "10"}),
               ContractViolation);
}

TEST(Matrix, SetAndCount) {
  BinaryMatrix m(4, 6);
  m.set(0, 0);
  m.set(3, 5);
  m.set(1, 2);
  m.set(1, 2, false);
  EXPECT_EQ(m.ones_count(), 2u);
  EXPECT_FALSE(m.is_zero());
}

TEST(Matrix, OnesRowMajor) {
  const auto m = BinaryMatrix::parse("010;101");
  using P = std::pair<std::size_t, std::size_t>;
  const std::vector<P> expected{{0, 1}, {1, 0}, {1, 2}};
  EXPECT_EQ(m.ones(), expected);
}

TEST(Matrix, ColExtraction) {
  const auto m = BinaryMatrix::parse("10;11;01");
  EXPECT_EQ(m.col(0).to_string(), "110");
  EXPECT_EQ(m.col(1).to_string(), "011");
}

TEST(Matrix, TransposeInvolution) {
  Rng rng(5);
  for (int t = 0; t < 10; ++t) {
    const auto m = BinaryMatrix::random(7, 4, 0.4, rng);
    const auto mtt = m.transposed().transposed();
    EXPECT_EQ(m, mtt);
  }
}

TEST(Matrix, TransposeShapeAndEntries) {
  const auto m = BinaryMatrix::parse("110;001");
  const auto t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(m.test(i, j), t.test(j, i));
}

TEST(Matrix, PermutedRows) {
  const auto m = BinaryMatrix::parse("100;010;001");
  const auto p = m.permuted_rows({2, 0, 1});
  EXPECT_EQ(p.to_string(), "001\n100\n010");
  EXPECT_THROW((void)m.permuted_rows({0, 1}), ContractViolation);
}

TEST(Matrix, KronSmall) {
  const auto a = BinaryMatrix::parse("10;01");
  const auto b = BinaryMatrix::parse("11;10");
  const auto k = BinaryMatrix::kron(a, b);
  EXPECT_EQ(k.rows(), 4u);
  EXPECT_EQ(k.cols(), 4u);
  EXPECT_EQ(k.to_string(), "1100\n1000\n0011\n0010");
}

TEST(Matrix, KronWithAllOnesReplicates) {
  const auto a = BinaryMatrix::parse("10;01");
  const auto ones = BinaryMatrix::parse("11;11");
  const auto k = BinaryMatrix::kron(a, ones);
  EXPECT_EQ(k.ones_count(), a.ones_count() * 4);
}

TEST(Matrix, KronEntriesMatchDefinition) {
  Rng rng(77);
  const auto a = BinaryMatrix::random(3, 4, 0.5, rng);
  const auto b = BinaryMatrix::random(2, 5, 0.5, rng);
  const auto k = BinaryMatrix::kron(a, b);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      for (std::size_t x = 0; x < b.rows(); ++x)
        for (std::size_t y = 0; y < b.cols(); ++y)
          EXPECT_EQ(k.test(i * b.rows() + x, j * b.cols() + y),
                    a.test(i, j) && b.test(x, y));
}

TEST(Matrix, RandomOccupancyCalibrated) {
  Rng rng(31);
  const auto m = BinaryMatrix::random(100, 100, 0.3, rng);
  const double occ = static_cast<double>(m.ones_count()) / (100.0 * 100.0);
  EXPECT_NEAR(occ, 0.3, 0.03);
}

TEST(Matrix, RandomDeterministicPerSeed) {
  Rng rng1(8);
  Rng rng2(8);
  EXPECT_EQ(BinaryMatrix::random(6, 6, 0.5, rng1),
            BinaryMatrix::random(6, 6, 0.5, rng2));
}

TEST(Matrix, EqualityDetectsDifferences) {
  auto a = BinaryMatrix::parse("10;01");
  auto b = a;
  EXPECT_EQ(a, b);
  b.set(0, 1);
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace ebmf
