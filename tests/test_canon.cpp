// Tests for ebmf::canon: lift round-trips (property-style over benchgen
// matrices), permutation-invariant keys for the workloads the cache serves,
// and determinism of the canonical form.

#include "service/canon.h"

#include <gtest/gtest.h>

#include <cstdio>
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

/// Twenty seeded patterns that reach every branch of the component sort:
/// components with 65+ columns and with rows + cols > 64 (the 8-round
/// refinement), three or more components, circulant and kron blocks whose
/// refinement colors tie (the content tie-break and the pass loop), and
/// duplicate and zero lines for the dedup step. Each is shown in a random
/// orientation.
std::vector<BinaryMatrix> golden_random_patterns() {
  const auto block_diagonal = [](const std::vector<BinaryMatrix>& blocks) {
    std::size_t rows = 0;
    std::size_t cols = 0;
    for (const BinaryMatrix& b : blocks) {
      rows += b.rows();
      cols += b.cols();
    }
    BinaryMatrix out(rows, cols);
    std::size_t r0 = 0;
    std::size_t c0 = 0;
    for (const BinaryMatrix& b : blocks) {
      for (const auto& [i, j] : b.ones()) out.set(r0 + i, c0 + j);
      r0 += b.rows();
      c0 += b.cols();
    }
    return out;
  };
  std::vector<BinaryMatrix> out;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    BinaryMatrix base;
    switch (seed % 5) {
      case 0:  // one wide component
        base = benchgen::random_matrix(20 + rng.below(30), 65 + rng.below(40),
                                       0.09, rng);
        break;
      case 1: {  // three to five blocks
        std::vector<BinaryMatrix> blocks;
        const std::size_t count = 3 + rng.below(3);
        for (std::size_t b = 0; b < count; ++b)
          blocks.push_back(benchgen::random_matrix(
              6 + rng.below(25), 6 + rng.below(25), 0.3, rng));
        base = block_diagonal(blocks);
        break;
      }
      case 2: {  // circulant: every line has the same refinement color
        const std::size_t n = 30 + rng.below(50);
        const std::size_t a = 1 + rng.below(n / 2);
        const std::size_t b = a + 1 + rng.below(n / 2 - 1);
        base = BinaryMatrix(n, n);
        for (std::size_t i = 0; i < n; ++i)
          for (const std::size_t shift : {std::size_t{0}, a, b})
            base.set(i, (i + shift) % n);
        break;
      }
      case 3:  // kron blocks: symmetric orbits and repeated components
        base = BinaryMatrix::kron(
            benchgen::random_matrix(5 + rng.below(5), 5 + rng.below(5), 0.4,
                                    rng),
            ftqc::checkerboard_patch(3 + rng.below(2), rng.below(2)));
        break;
      default:  // a circulant next to random blocks
        base = block_diagonal(
            {benchgen::random_matrix(40, 30, 0.1, rng),
             benchgen::random_matrix(12, 12, 0.3, rng),
             BinaryMatrix::kron(ftqc::checkerboard_patch(4, 0),
                                ftqc::checkerboard_patch(2, 1))});
        break;
    }
    // Duplicate a few lines and add a zero row and column.
    std::vector<std::size_t> rows(base.rows());
    std::vector<std::size_t> cols(base.cols());
    std::iota(rows.begin(), rows.end(), 0);
    std::iota(cols.begin(), cols.end(), 0);
    for (std::size_t k = 0; k < 3; ++k) {
      rows.push_back(rng.below(base.rows()));
      cols.push_back(rng.below(base.cols()));
    }
    BinaryMatrix grown(rows.size() + 1, cols.size() + 1);
    for (std::size_t i = 0; i < rows.size(); ++i)
      for (std::size_t j = 0; j < cols.size(); ++j)
        if (base.test(rows[i], cols[j])) grown.set(i, j);
    out.push_back(permuted(grown, rng.permutation(grown.rows()),
                           rng.permutation(grown.cols())));
  }
  return out;
}

/// FNV-1a over the whole lift record, so a golden value pins the sort's
/// permutations and pass count as well as the canonical pattern.
std::string lift_record_digest(const Canonical& c) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t value) {
    for (int b = 0; b < 8; ++b) {
      h ^= (value >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& order : c.row_order)
    for (const std::size_t i : order) mix(i);
  mix(~0ULL);
  for (const auto& order : c.col_order)
    for (const std::size_t j : order) mix(j);
  mix(~0ULL);
  for (const std::size_t offset : c.row_offset) mix(offset);
  for (const std::size_t offset : c.col_offset) mix(offset);
  mix(c.sort_passes);
  char buffer[20];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(h));
  return buffer;
}

TEST(Canon, GoldenKeysOfSeededRandomPatterns) {
  // The canonical form is a wire and storage contract (see
  // GoldenKeysOfTheServiceFamilies). These pin it, lift record included, on
  // inputs that reach every branch of the component sort.
  const std::vector<std::pair<std::string, std::string>> golden = {
      {"edf80b346e50a8d84796588fbb08a27b", "2965374e01d8d837"},
      {"455bda9ac8dbba627bbcf46a89debaa5", "2201b318ce426a77"},
      {"c9504c7665b2f74560fa6d46b4fba962", "4b98726ca0de8157"},
      {"58dd08c4302b710416d7df9ca1dd5d1b", "f1721e9ebd476c2c"},
      {"644d9b11a2478a08aa3497cbe7b887fb", "d0b01ca815dfdb4d"},
      {"f997e43fb138f141b0dcd4d1903b950e", "fd2f375bb1f4a026"},
      {"05ecb031027067a43f3babcf5f37c633", "98d331632243fc15"},
      {"40c38b15338e84b123a9c53ca6afd966", "682fcc78d3c1e57b"},
      {"bf4714f535ee15cb8c482bc63708a7b4", "ffbcedb8d0db6c10"},
      {"a371a84bb1c5c20874a6ac6de469e09b", "55ed27f8604983b5"},
      {"a60a4e5cdb623787ef1176f439a73d60", "b026e2c38fd6217b"},
      {"6ad0b1ba604e007733c2fdc3ff5af1b8", "fbd003c142f748e7"},
      {"fd67a5b23cae239f84ba54b8ac3f00e8", "7eefa1707a708ef7"},
      {"d97db35cb4a36bdf6b67e83e6454a760", "2f5b9c8232261f2b"},
      {"5f54463c7ae89c8f24a02218fb1390ac", "7daf60f142aba4b5"},
      {"01b2c941469b2c87fe2828a87fa3e640", "de324f467f12487f"},
      {"f775dabd8d3198050f4516d263fbaa5a", "8aeaf83ce8f030d7"},
      {"53f1878f5b3818ddadf87fde4b80b0da", "18838728dccb7b7a"},
      {"33fe0d03462f61571474d3297b26a140", "79100702fac91e26"},
      {"6fc103b21da4ee0d2d44613c397ea1c2", "12b0ed1d3b779f6c"},
  };
  const std::vector<BinaryMatrix> patterns = golden_random_patterns();
  ASSERT_EQ(patterns.size(), golden.size());
  bool wide = false;
  bool eight_rounds = false;
  bool three_components = false;
  bool duplicates = false;
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    const Canonical c = canonicalize(patterns[p]);
    EXPECT_EQ(c.key.hex(), golden[p].first) << "pattern " << p;
    EXPECT_EQ(lift_record_digest(c), golden[p].second) << "pattern " << p;
    for (const Component& component : c.components) {
      wide |= component.matrix.cols() >= 65;
      eight_rounds |= component.matrix.rows() + component.matrix.cols() > 64;
    }
    three_components |= c.components.size() >= 3;
    duplicates |= c.reduction.reduced.rows() + 1 < patterns[p].rows() &&
                  c.reduction.reduced.cols() + 1 < patterns[p].cols();
  }
  EXPECT_TRUE(wide);
  EXPECT_TRUE(eight_rounds);
  EXPECT_TRUE(three_components);
  EXPECT_TRUE(duplicates);
}

/// Reference lift in two steps: into the reduced matrix through the
/// component maps, then expand_partition over the duplicate groups.
Partition two_step_lift(const Partition& p, const Canonical& c) {
  Partition reduced;
  for (const Rectangle& r : p) {
    std::size_t comp = c.row_offset.size();
    while (comp > 0 && c.row_offset[comp - 1] > r.rows.find_first()) --comp;
    --comp;
    const Component& component = c.components[comp];
    Rectangle lifted{BitVec(c.reduction.reduced.rows()),
                     BitVec(c.reduction.reduced.cols())};
    for (std::size_t i = r.rows.find_first(); i < r.rows.size();
         i = r.rows.find_next(i))
      lifted.rows.set(
          component.row_map[c.row_order[comp][i - c.row_offset[comp]]]);
    for (std::size_t j = r.cols.find_first(); j < r.cols.size();
         j = r.cols.find_next(j))
      lifted.cols.set(
          component.col_map[c.col_order[comp][j - c.col_offset[comp]]]);
    reduced.push_back(std::move(lifted));
  }
  return expand_partition(reduced, c.reduction);
}

TEST(Canon, LiftMatchesTheTwoStepLift) {
  const engine::Engine engine;
  for (const BinaryMatrix& pattern : golden_random_patterns()) {
    const Canonical c = canonicalize(pattern);
    auto request = engine::SolveRequest::dense(c.pattern, "heuristic");
    request.trials = 4;
    const Partition canonical_partition = engine.solve(request).partition;
    const Partition lifted = lift(canonical_partition, c);
    EXPECT_EQ(lifted, two_step_lift(canonical_partition, c));
    EXPECT_TRUE(validate_partition(pattern, lifted).ok);
  }
}

}  // namespace
}  // namespace ebmf::canon
