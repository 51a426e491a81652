// Tests for ebmf::canon: lift round-trips (property-style over benchgen
// matrices), permutation-invariant keys for the workloads the cache serves,
// and determinism of the canonical form.

#include "service/canon.h"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "benchgen/generators.h"
#include "engine/engine.h"
#include "ftqc/patterns.h"
#include "support/rng.h"

namespace ebmf::canon {
namespace {

/// Apply row/column permutations: out[i][j] = m[row_perm[i]][col_perm[j]].
BinaryMatrix permuted(const BinaryMatrix& m,
                      const std::vector<std::size_t>& row_perm,
                      const std::vector<std::size_t>& col_perm) {
  BinaryMatrix out(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      if (m.test(row_perm[i], col_perm[j])) out.set(i, j);
  return out;
}

TEST(Canon, CanonicalPatternPreservesBinaryRankWitness) {
  // Solving the canonical pattern and lifting must give a valid partition
  // of the original with the same depth — the cache's core contract.
  Rng rng(42);
  const engine::Engine engine;
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t m = 4 + rng.below(8);
    const std::size_t n = 4 + rng.below(8);
    const double occupancy = 0.1 + 0.1 * static_cast<double>(trial % 6);
    const BinaryMatrix a = benchgen::random_matrix(m, n, occupancy, rng);
    const Canonical canonical = canonicalize(a);
    auto request = engine::SolveRequest::dense(canonical.pattern, "heuristic");
    request.trials = 20;
    const auto report = engine.solve(request);
    const Partition lifted = lift(report.partition, canonical);
    const auto validation = validate_partition(a, lifted);
    EXPECT_TRUE(validation.ok) << validation.reason;
    EXPECT_EQ(lifted.size(), report.partition.size());
  }
}

TEST(Canon, LiftRoundTripsForKnownOptimalFamily) {
  Rng rng(7);
  for (int trial = 0; trial < 6; ++trial) {
    const auto inst = benchgen::known_optimal_matrix(10, 10, 4, rng);
    const Canonical canonical = canonicalize(inst.matrix);
    const engine::Engine engine;
    const auto report = engine.solve(
        engine::SolveRequest::dense(canonical.pattern, "heuristic"));
    const Partition lifted = lift(report.partition, canonical);
    EXPECT_TRUE(validate_partition(inst.matrix, lifted).ok);
  }
}

TEST(Canon, KeyInvariantUnderRowColPermutation) {
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    const BinaryMatrix a = benchgen::random_matrix(8, 9, 0.35, rng);
    const auto row_perm = rng.permutation(a.rows());
    const auto col_perm = rng.permutation(a.cols());
    const BinaryMatrix b = permuted(a, row_perm, col_perm);
    const Canonical ca = canonicalize(a);
    const Canonical cb = canonicalize(b);
    EXPECT_EQ(ca.key, cb.key) << "trial " << trial;
    EXPECT_EQ(ca.pattern, cb.pattern) << "trial " << trial;
  }
}

TEST(Canon, FtqcPatchVariantsShareOneCanonicalForm) {
  // The service's headline repeats: the same per-patch pattern shifted
  // around. Boundary rows at different offsets and the two checkerboard
  // parities must all collapse onto one cache entry.
  const Canonical row2 = canonicalize(ftqc::boundary_row_patch(7, 2));
  const Canonical row5 = canonicalize(ftqc::boundary_row_patch(7, 5));
  EXPECT_EQ(row2.key, row5.key);
  EXPECT_EQ(row2.pattern, row5.pattern);

  const Canonical even = canonicalize(ftqc::checkerboard_patch(6, 0));
  const Canonical odd = canonicalize(ftqc::checkerboard_patch(6, 1));
  EXPECT_EQ(even.key, odd.key);
  EXPECT_EQ(even.pattern, odd.pattern);
}

TEST(Canon, ComponentOrderIsCanonical) {
  // The same two blocks laid out in either diagonal order canonicalize
  // identically (components are re-sorted by content).
  const BinaryMatrix x = BinaryMatrix::parse("110;011;111");
  const BinaryMatrix y = BinaryMatrix::parse("11;10");
  BinaryMatrix xy(5, 5);
  BinaryMatrix yx(5, 5);
  for (const auto& [i, j] : x.ones()) {
    xy.set(i, j);
    yx.set(i + 2, j + 2);
  }
  for (const auto& [i, j] : y.ones()) {
    xy.set(i + 3, j + 3);
    yx.set(i, j);
  }
  const Canonical a = canonicalize(xy);
  const Canonical b = canonicalize(yx);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.pattern, b.pattern);
  EXPECT_EQ(a.components.size(), 2u);
}

TEST(Canon, DuplicatesCollapse) {
  // Duplicate rows/cols and zero lines vanish from the canonical form.
  const BinaryMatrix a = BinaryMatrix::parse("1010;1010;0000;0101");
  const Canonical c = canonicalize(a);
  EXPECT_EQ(c.pattern.rows(), 2u);
  EXPECT_EQ(c.pattern.cols(), 2u);
  // An all-ones row pattern of any width dedups to a single 1x1 block.
  const Canonical one = canonicalize(ftqc::transversal_patch(5));
  EXPECT_EQ(one.pattern.rows(), 1u);
  EXPECT_EQ(one.pattern.cols(), 1u);
}

TEST(Canon, DistinctPatternsGetDistinctKeys) {
  const Canonical a = canonicalize(BinaryMatrix::parse("110;011;111"));
  const Canonical b = canonicalize(
      BinaryMatrix::parse("101100;010011;101010;010101;111000;000111"));
  EXPECT_NE(a.key, b.key);
  // Mixing the strategy name produces a distinct key for the same pattern.
  EXPECT_NE(a.key, a.key.mixed_with("sap"));
  EXPECT_NE(a.key.mixed_with("sap"), a.key.mixed_with("heuristic"));
}

TEST(Canon, ZeroAndEmptyMatricesAreStable) {
  const Canonical zero = canonicalize(BinaryMatrix(4, 6));
  EXPECT_EQ(zero.pattern.rows(), 0u);
  EXPECT_EQ(zero.pattern.cols(), 0u);
  EXPECT_TRUE(lift({}, zero).empty());
  const Canonical empty = canonicalize(BinaryMatrix());
  EXPECT_EQ(zero.key, empty.key);  // both canonicalize to the 0x0 pattern
}

TEST(Canon, KeyHexIsStable32Digits) {
  const Canonical c = canonicalize(BinaryMatrix::parse("10;01"));
  EXPECT_EQ(c.key.hex().size(), 32u);
  EXPECT_EQ(c.key.hex(), canonicalize(BinaryMatrix::parse("10;01")).key.hex());
}

/// The base pattern of each bench_service cache family, generated from
/// seed 2024 in the order the families draw from one generator.
std::vector<std::pair<std::string, BinaryMatrix>> service_family_patterns() {
  Rng rng(2024);
  std::vector<std::pair<std::string, BinaryMatrix>> out;
  for (std::size_t row = 0; row < 13; ++row)
    out.emplace_back("boundary_row(13," + std::to_string(row) + ")",
                     ftqc::boundary_row_patch(13, row));
  out.emplace_back("checkerboard(12,0)", ftqc::checkerboard_patch(12, 0));
  out.emplace_back("checkerboard(12,1)", ftqc::checkerboard_patch(12, 1));
  out.emplace_back("logical(48x48,0.04)",
                   ftqc::logical_pattern(48, 48, 0.04, rng));
  out.emplace_back("qldpc(12,18,0.3)",
                   ftqc::qldpc_block_pattern(12, 18, 0.3, rng));
  out.emplace_back("kron(logical(4x4,0.5),checkerboard(3))",
                   BinaryMatrix::kron(ftqc::logical_pattern(4, 4, 0.5, rng),
                                      ftqc::checkerboard_patch(3, 0)));
  out.emplace_back("gap(20x20,k=6)",
                   benchgen::gap_matrix(20, 20, 6, rng).matrix);
  return out;
}

TEST(Canon, GoldenKeysOfTheServiceFamilies) {
  // The canonical form is a wire and storage contract: cache snapshots are
  // keyed by it and a router fleet shards by it, so a change to any key
  // below strands every saved entry and splits a mixed-version fleet.
  // Logical scale, then the physical kron(pattern, d=4 checkerboard patch).
  const std::string boundary = "8b2de55a4af806c40167085b5a6954bb";
  const std::string boundary_physical = "b8db9c181b6d1de60504c6261af351f1";
  const std::string checker = "b8db9c181b6d1de60504c6261af351f1";
  const std::string checker_physical = "fafb8dcf7a88e2aa5afca019881226dd";
  std::vector<std::pair<std::string, std::string>> golden(
      13, {boundary, boundary_physical});
  golden.insert(golden.end(),
                {{checker, checker_physical},
                 {checker, checker_physical},
                 {"6bd5da5f5a88698ffdb0b5509ba8bd74",
                  "cec6f50378682030c59b806f5804a61f"},
                 {"ee5036d23e77e32a20c16426662767d5",
                  "b58240aa664ab8dd97a06d02e0904252"},
                 {"46ff9529c4e5b7812ff0c61edfef01d6",
                  "7dbc1322e7dcc2510a4dcd6294f79626"},
                 {"c55f5ae31cbc4a790217e3833cc07866",
                  "62948fd6d0b8545ec42419b8f6de0629"}});
  const auto families = service_family_patterns();
  ASSERT_EQ(families.size(), golden.size());
  const BinaryMatrix patch = ftqc::checkerboard_patch(4, 0);
  for (std::size_t f = 0; f < families.size(); ++f) {
    const auto& [name, pattern] = families[f];
    EXPECT_EQ(canonicalize(pattern).key.hex(), golden[f].first) << name;
    EXPECT_EQ(canonicalize(BinaryMatrix::kron(pattern, patch)).key.hex(),
              golden[f].second)
        << "kron(" << name << ", checkerboard(4))";
  }
}

TEST(Canon, PermutedPhysicalFamilyPatternsKeepTheirKey) {
  // The served traffic: every family pattern at the physical scale, in
  // fresh row/column orientations, lands on its golden key.
  Rng rng(9001);
  const BinaryMatrix patch = ftqc::checkerboard_patch(4, 0);
  for (const auto& [name, pattern] : service_family_patterns()) {
    const BinaryMatrix physical = BinaryMatrix::kron(pattern, patch);
    const CacheKey key = canonicalize(physical).key;
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<std::size_t> rows(physical.rows());
      std::vector<std::size_t> cols(physical.cols());
      std::iota(rows.begin(), rows.end(), 0);
      std::iota(cols.begin(), cols.end(), 0);
      rng.shuffle(rows);
      rng.shuffle(cols);
      EXPECT_EQ(canonicalize(permuted(physical, rows, cols)).key, key)
          << name;
    }
  }
}

}  // namespace
}  // namespace ebmf::canon
