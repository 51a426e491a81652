#include "benchgen/generators.h"

#include <algorithm>
#include <set>

#include "linalg/rank.h"
#include "support/contracts.h"

namespace ebmf::benchgen {

BinaryMatrix random_matrix(std::size_t m, std::size_t n, double occupancy,
                           Rng& rng) {
  return BinaryMatrix::random(m, n, occupancy, rng);
}

KnownOptimal known_optimal_matrix(std::size_t m, std::size_t n, std::size_t k,
                                  Rng& rng) {
  EBMF_EXPECTS(k >= 1 && k <= std::min(m, n));
  // Disjoint rows: give each of the k groups a distinct seed column, then
  // scatter the remaining columns (each joins a random group or none).
  std::vector<BitVec> row_sets(k, BitVec(n));
  const auto seeds = rng.sample(n, k);
  std::vector<bool> taken(n, false);
  for (std::size_t g = 0; g < k; ++g) {
    row_sets[g].set(seeds[g]);
    taken[seeds[g]] = true;
  }
  for (std::size_t j = 0; j < n; ++j) {
    if (taken[j]) continue;
    if (rng.chance(0.25)) continue;  // column stays empty
    row_sets[rng.below(k)].set(j);
  }

  // Independent columns: resample until the k×m stack has real rank k.
  std::vector<BitVec> col_sets;
  for (int attempt = 0; attempt < 1000; ++attempt) {
    col_sets.clear();
    for (std::size_t g = 0; g < k; ++g) {
      BitVec c(m);
      for (std::size_t i = 0; i < m; ++i)
        if (rng.chance(0.5)) c.set(i);
      if (c.none()) c.set(rng.below(m));
      col_sets.push_back(std::move(c));
    }
    if (real_rank(col_sets, m) == k) break;
    col_sets.clear();
  }
  EBMF_ENSURES(!col_sets.empty());  // random 0/1 vectors reach rank k quickly

  KnownOptimal out;
  out.optimal = k;
  out.matrix = BinaryMatrix(m, n);
  for (std::size_t g = 0; g < k; ++g)
    for (std::size_t i = 0; i < m; ++i)
      if (col_sets[g].test(i))
        for (std::size_t j = row_sets[g].find_first(); j < n;
             j = row_sets[g].find_next(j))
          out.matrix.set(i, j);
  EBMF_ENSURES(real_rank(out.matrix.row_vectors(), n) == k);
  return out;
}

GapInstance gap_matrix(std::size_t m, std::size_t n, std::size_t k, Rng& rng) {
  EBMF_EXPECTS(k >= 1 && 2 * k <= m);
  EBMF_EXPECTS(n >= k + 1);
  for (int attempt = 0; attempt < 1000; ++attempt) {
    // A base row with enough 1s to support k distinct splits and rank k+1.
    BitVec base(n);
    for (std::size_t j = 0; j < n; ++j)
      if (rng.chance(0.5)) base.set(j);
    if (base.count() < k + 1) continue;

    // k distinct unordered splits base = half + (base − half), halves proper.
    std::vector<BitVec> rows;
    std::set<BitVec> seen_halves;
    bool ok = true;
    for (std::size_t p = 0; p < k && ok; ++p) {
      bool found = false;
      for (int tries = 0; tries < 200; ++tries) {
        BitVec half(n);
        for (std::size_t j = base.find_first(); j < n; j = base.find_next(j))
          if (rng.chance(0.5)) half.set(j);
        if (half.none() || half == base) continue;
        BitVec other = base - half;
        if (seen_halves.count(half) != 0 || seen_halves.count(other) != 0)
          continue;
        seen_halves.insert(half);
        seen_halves.insert(other);
        rows.push_back(std::move(half));
        rows.push_back(std::move(other));
        found = true;
        break;
      }
      ok = found;
    }
    if (!ok) continue;
    if (real_rank(rows, n) != k + 1) continue;

    // Fill the remaining rows with 50%-occupancy noise.
    GapInstance out;
    out.pairs = k;
    out.pair_rank = k + 1;
    while (rows.size() < m) {
      BitVec r(n);
      for (std::size_t j = 0; j < n; ++j)
        if (rng.chance(0.5)) r.set(j);
      rows.push_back(std::move(r));
    }
    out.matrix = BinaryMatrix::from_rows(std::move(rows), n);
    return out;
  }
  EBMF_ENSURES(false);  // parameters admit an instance; sampling cannot fail
  return {};
}

BinaryMatrix qldpc_block_matrix(std::size_t blocks, std::size_t width,
                                double occupancy, Rng& rng) {
  // Offset-pattern library: ~blocks/64 base patterns (at least one), each
  // contributing itself plus up to 4 split pairs (half + complement-half
  // of the base support, the family-3 mechanism). Each block then draws
  // its row from the library, so rows repeat across blocks while the
  // pair-halves keep the real rank well below the binary rank.
  const std::size_t groups = std::max<std::size_t>(1, blocks / 64);
  constexpr std::size_t kSplitsPerBase = 4;
  std::vector<BitVec> library;
  for (std::size_t g = 0; g < groups; ++g) {
    BitVec base(width);
    for (std::size_t j = 0; j < width; ++j)
      if (rng.chance(occupancy)) base.set(j);
    if (base.count() < 2) {
      // Too sparse to split — use the base pattern as-is.
      if (base.none()) base.set(rng.below(width));
      library.push_back(std::move(base));
      continue;
    }
    library.push_back(base);
    std::set<BitVec> seen;
    for (std::size_t p = 0; p < kSplitsPerBase; ++p) {
      for (int tries = 0; tries < 64; ++tries) {
        BitVec half(width);
        for (std::size_t j = base.find_first(); j < width;
             j = base.find_next(j))
          if (rng.chance(0.5)) half.set(j);
        if (half.none() || half == base) continue;
        BitVec other = base - half;
        if (seen.count(half) != 0 || seen.count(other) != 0) continue;
        seen.insert(half);
        seen.insert(other);
        library.push_back(std::move(half));
        library.push_back(std::move(other));
        break;
      }
    }
  }
  std::vector<BitVec> rows;
  rows.reserve(blocks);
  for (std::size_t b = 0; b < blocks; ++b)
    rows.push_back(library[rng.below(library.size())]);
  return BinaryMatrix::from_rows(std::move(rows), width);
}

BinaryMatrix neutral_atom_matrix(std::size_t m, std::size_t n,
                                 double occupancy, Rng& rng) {
  BinaryMatrix out(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    const double row_occ =
        std::min(1.0, occupancy * (0.5 + rng.uniform01()));
    for (std::size_t j = 0; j < n; ++j)
      if (rng.chance(row_occ)) out.set(i, j);
  }
  return out;
}

}  // namespace ebmf::benchgen
