#include "linalg/rank.h"

#include <algorithm>
#include <cstdint>

#include "support/contracts.h"

namespace ebmf {

namespace {

/// The prime of the mod-p rung: the Mersenne prime 2^31 − 1.
constexpr std::uint32_t kRankPrime = 2147483647u;

/// Verify all rows share the declared width.
void check_rows(const std::vector<BitVec>& rows, std::size_t cols) {
  for (const auto& r : rows) EBMF_EXPECTS(r.size() == cols);
}

/// The mod-p rung keeps its entries as lazy residues: ≡ the true entry mod
/// p, but anywhere in [0, p + 2], so zero is 0 or p. Reducing x < 2^63
/// into that range takes two shift-add folds (2^31 ≡ 1 mod p) and no
/// compare, which leaves the row update free to vectorize.
std::uint32_t fold(std::uint64_t x) {
  x = (x & kRankPrime) + (x >> 31);  // < 3 · 2^31
  x = (x & kRankPrime) + (x >> 31);  // ≤ p + 2
  return static_cast<std::uint32_t>(x);
}

bool is_zero_mod_p(std::uint32_t lazy) {
  return lazy == 0 || lazy == kRankPrime;
}

/// a · b mod p in [0, p), for lazy residues a and b.
std::uint32_t mul_mod(std::uint32_t a, std::uint32_t b) {
  const std::uint32_t lazy = fold(std::uint64_t{a} * b);
  return lazy >= kRankPrime ? lazy - kRankPrime : lazy;
}

/// a^(p−2) = a^(−1) mod p (Fermat), for a lazy residue a ≢ 0.
std::uint32_t inverse_mod(std::uint32_t a) {
  std::uint32_t result = 1;
  for (std::uint32_t e = kRankPrime - 2; e != 0; e >>= 1) {
    if (e & 1u) result = mul_mod(result, a);
    a = mul_mod(a, a);
  }
  return result;
}

}  // namespace

// Both eliminations below pick the first row at or below `rank` with a
// nonzero entry in `col` as the pivot. Every row between `rank` and the
// pivot is zero there, and so is the row swapped down into the pivot's
// slot, so only the rows after the pivot need eliminating.

std::size_t rank_gf2(const std::vector<BitVec>& rows, std::size_t cols) {
  check_rows(rows, cols);
  const std::size_t m = rows.size();
  const std::size_t words = (cols + 63) / 64;
  std::vector<std::uint64_t> a(m * words);
  for (std::size_t i = 0; i < m; ++i)
    std::copy(rows[i].words().begin(), rows[i].words().end(),
              a.begin() + static_cast<std::ptrdiff_t>(i * words));

  std::size_t rank = 0;
  for (std::size_t col = 0; col < cols && rank < m; ++col) {
    const std::size_t w = col >> 6;
    const std::uint64_t bit = std::uint64_t{1} << (col & 63);
    std::size_t pivot = rank;
    while (pivot < m && (a[pivot * words + w] & bit) == 0) ++pivot;
    if (pivot == m) continue;
    std::uint64_t* top = &a[rank * words];
    if (pivot != rank)
      std::swap_ranges(top + w, top + words, &a[pivot * words + w]);
    for (std::size_t i = pivot + 1; i < m; ++i) {
      std::uint64_t* row = &a[i * words];
      if ((row[w] & bit) == 0) continue;
      for (std::size_t k = w; k < words; ++k) row[k] ^= top[k];
    }
    ++rank;
  }
  return rank;
}

std::size_t rank_mod_p(const std::vector<BitVec>& rows, std::size_t cols) {
  check_rows(rows, cols);
  const std::size_t m = rows.size();
  std::vector<std::uint32_t> a(m * cols);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = rows[i].find_first(); j < cols;
         j = rows[i].find_next(j))
      a[i * cols + j] = 1;

  std::size_t rank = 0;
  for (std::size_t col = 0; col < cols && rank < m; ++col) {
    std::size_t pivot = rank;
    while (pivot < m && is_zero_mod_p(a[pivot * cols + col])) ++pivot;
    if (pivot == m) continue;
    std::uint32_t* top = &a[rank * cols];
    if (pivot != rank)
      std::swap_ranges(top + col, top + cols, &a[pivot * cols + col]);
    const std::uint32_t inv = inverse_mod(top[col]);
    for (std::size_t i = pivot + 1; i < m; ++i) {
      std::uint32_t* row = &a[i * cols];
      if (is_zero_mod_p(row[col])) continue;
      // row −= (row[col] / top[col]) · top, from col + 1 on. With neg < p
      // and lazy entries ≤ p + 2, every sum stays below 2^62 + 2^32.
      const std::uint64_t neg = kRankPrime - mul_mod(row[col], inv);
      for (std::size_t j = col + 1; j < cols; ++j)
        row[j] = fold(row[j] + neg * top[j]);
    }
    ++rank;
  }
  return rank;
}

std::size_t real_rank(const std::vector<BitVec>& rows, std::size_t cols) {
  const std::size_t full = std::min(rows.size(), cols);
  const std::size_t gf2 = rank_gf2(rows, cols);
  if (gf2 == full) return gf2;
  return std::max(gf2, rank_mod_p(rows, cols));
}

}  // namespace ebmf
