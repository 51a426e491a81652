// Canonicalization: dedup + component split + iterated row/col sort, the
// 128-bit content key, and the lift back to the original index space.

#include "service/canon.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "support/contracts.h"

namespace ebmf::canon {

namespace {

// FNV-1a, 64-bit per lane; the two lanes use independent offset bases so
// the 128-bit key is not just a repeated 64-bit hash.
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
constexpr std::uint64_t kFnvOffsetHi = 14695981039346656037ULL;
constexpr std::uint64_t kFnvOffsetLo = 0x6c62272e07bb0142ULL;

void fnv_byte(std::uint64_t& h, unsigned char byte) {
  h ^= byte;
  h *= kFnvPrime;
}

void fnv_u64(std::uint64_t& h, std::uint64_t value) {
  for (int b = 0; b < 8; ++b) fnv_byte(h, (value >> (8 * b)) & 0xff);
}

CacheKey hash_matrix(const BinaryMatrix& m) {
  CacheKey key{kFnvOffsetHi, kFnvOffsetLo};
  fnv_u64(key.hi, m.rows());
  fnv_u64(key.hi, m.cols());
  fnv_u64(key.lo, m.cols());
  fnv_u64(key.lo, m.rows());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (const std::uint64_t w : m.row(i).words()) {
      fnv_u64(key.hi, w);
      fnv_u64(key.lo, ~w);
    }
  }
  return key;
}

/// Strict total order used for both row and column sorting: heavier lines
/// first, ties broken by content. Lines of a deduplicated component are
/// pairwise distinct, so ties never survive to the content comparison.
bool line_before(const BitVec& a, const BitVec& b) {
  const std::size_t ca = a.count();
  const std::size_t cb = b.count();
  if (ca != cb) return ca > cb;
  return b < a;
}

/// Permutation-invariant row/column colors by Weisfeiler–Leman-style
/// refinement on the bipartite row/column graph: a line's color is
/// repeatedly re-hashed from the sorted multiset of the colors of the lines
/// it intersects. Colors depend only on the isomorphism type of a line's
/// neighbourhood, never on input order, so sorting by color first makes the
/// canonical order invariant whenever refinement tells the lines apart —
/// which it does for random patterns with high probability. Symmetric
/// orbits keep equal colors and fall through to the content tie-break.
struct WlColors {
  std::vector<std::uint64_t> row;
  std::vector<std::uint64_t> col;
};

std::uint64_t hash_multiset(std::uint64_t own,
                            std::vector<std::uint64_t>& neighbours) {
  std::sort(neighbours.begin(), neighbours.end());
  std::uint64_t h = kFnvOffsetHi;
  fnv_u64(h, own);
  for (const std::uint64_t value : neighbours) fnv_u64(h, value);
  return h;
}

WlColors wl_colors(const BinaryMatrix& m) {
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  // The bipartite adjacency, built once for every round: row i's columns
  // are row_adj[row_start[i] .. row_start[i+1]), column j's rows likewise.
  std::vector<std::size_t> row_start(rows + 1, 0);
  std::vector<std::size_t> col_start(cols + 1, 0);
  std::vector<std::size_t> row_adj;
  row_adj.reserve(m.ones_count());
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = m.row(i).find_first(); j < cols;
         j = m.row(i).find_next(j)) {
      row_adj.push_back(j);
      ++col_start[j + 1];
    }
    row_start[i + 1] = row_adj.size();
  }
  for (std::size_t j = 0; j < cols; ++j) col_start[j + 1] += col_start[j];
  std::vector<std::size_t> col_adj(row_adj.size());
  {
    std::vector<std::size_t> fill(col_start.begin(), col_start.end() - 1);
    for (std::size_t i = 0; i < rows; ++i)
      for (std::size_t k = row_start[i]; k < row_start[i + 1]; ++k)
        col_adj[fill[row_adj[k]]++] = i;
  }

  WlColors colors;
  colors.row.resize(rows);
  colors.col.resize(cols);
  for (std::size_t i = 0; i < rows; ++i)
    colors.row[i] = 0x517cc1b727220a95ULL * (row_start[i + 1] - row_start[i]);
  for (std::size_t j = 0; j < cols; ++j)
    colors.col[j] = 0x2545f4914f6cdd1dULL * (col_start[j + 1] - col_start[j]);

  // A few rounds individualize everything refinement can; components are
  // small after dedup, so a fixed cap is plenty.
  const std::size_t rounds = rows + cols > 64 ? 8 : 6;
  std::vector<std::uint64_t> scratch;
  WlColors next;
  next.row.resize(rows);
  next.col.resize(cols);
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < rows; ++i) {
      scratch.clear();
      for (std::size_t k = row_start[i]; k < row_start[i + 1]; ++k)
        scratch.push_back(colors.col[row_adj[k]]);
      next.row[i] = hash_multiset(colors.row[i], scratch);
    }
    for (std::size_t j = 0; j < cols; ++j) {
      scratch.clear();
      for (std::size_t k = col_start[j]; k < col_start[j + 1]; ++k)
        scratch.push_back(colors.row[col_adj[k]]);
      next.col[j] = hash_multiset(colors.col[j], scratch);
    }
    std::swap(colors, next);
  }
  return colors;
}

/// Sorted order of the rows of `m`: color first (invariant), content next.
std::vector<std::size_t> row_sort_order(
    const BinaryMatrix& m, const std::vector<std::uint64_t>& colors) {
  std::vector<std::size_t> order(m.rows());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (colors[a] != colors[b]) return colors[a] > colors[b];
    return line_before(m.row(a), m.row(b));
  });
  return order;
}

bool is_identity(const std::vector<std::size_t>& order) {
  for (std::size_t i = 0; i < order.size(); ++i)
    if (order[i] != i) return false;
  return true;
}

/// old_to_new composed: after applying `step` on top of `accumulated`,
/// canonical index i shows original index accumulated[step[i]].
std::vector<std::size_t> compose(const std::vector<std::size_t>& accumulated,
                                 const std::vector<std::size_t>& step) {
  std::vector<std::size_t> out(step.size());
  for (std::size_t i = 0; i < step.size(); ++i) out[i] = accumulated[step[i]];
  return out;
}

/// One component's canonical form: the sorted matrix plus the permutations
/// mapping canonical indices back to component-local ones.
struct SortedComponent {
  BinaryMatrix matrix;
  std::vector<std::size_t> row_order;
  std::vector<std::size_t> col_order;
  std::size_t passes = 0;
};

/// Alternate row and column sorts until a full pass changes nothing. The
/// alternation converges in practice within a few passes; the cap keeps the
/// function total on any adversarial input (the result is then merely a
/// deterministic — still sound — non-fixpoint form).
SortedComponent sort_component(const BinaryMatrix& m) {
  constexpr std::size_t kMaxPasses = 32;
  SortedComponent out;
  out.matrix = m;
  out.row_order.resize(m.rows());
  out.col_order.resize(m.cols());
  std::iota(out.row_order.begin(), out.row_order.end(), 0);
  std::iota(out.col_order.begin(), out.col_order.end(), 0);

  // Colors travel with their lines through every permutation below.
  WlColors colors = wl_colors(m);

  const auto permute_values = [](std::vector<std::uint64_t>& values,
                                 const std::vector<std::size_t>& order) {
    std::vector<std::uint64_t> next(values.size());
    for (std::size_t i = 0; i < order.size(); ++i) next[i] = values[order[i]];
    values = std::move(next);
  };

  for (; out.passes < kMaxPasses; ++out.passes) {
    const std::vector<std::size_t> rows =
        row_sort_order(out.matrix, colors.row);
    if (!is_identity(rows)) {
      out.matrix = out.matrix.permuted_rows(rows);
      out.row_order = compose(out.row_order, rows);
      permute_values(colors.row, rows);
    }
    const BinaryMatrix transposed = out.matrix.transposed();
    const std::vector<std::size_t> cols =
        row_sort_order(transposed, colors.col);
    if (is_identity(rows) && is_identity(cols)) break;
    if (!is_identity(cols)) {
      out.matrix = transposed.permuted_rows(cols).transposed();
      out.col_order = compose(out.col_order, cols);
      permute_values(colors.col, cols);
    }
  }
  return out;
}

/// Canonical order of the sorted components: larger first, content last.
bool component_before(const SortedComponent& a, const SortedComponent& b) {
  const std::size_t ones_a = a.matrix.ones_count();
  const std::size_t ones_b = b.matrix.ones_count();
  if (ones_a != ones_b) return ones_a > ones_b;
  if (a.matrix.rows() != b.matrix.rows())
    return a.matrix.rows() > b.matrix.rows();
  if (a.matrix.cols() != b.matrix.cols())
    return a.matrix.cols() > b.matrix.cols();
  for (std::size_t i = 0; i < a.matrix.rows(); ++i) {
    if (a.matrix.row(i) == b.matrix.row(i)) continue;
    return line_before(a.matrix.row(i), b.matrix.row(i));
  }
  return false;
}

}  // namespace

CacheKey CacheKey::mixed_with(const std::string& bytes) const {
  CacheKey out = *this;
  for (const char c : bytes) {
    fnv_byte(out.hi, static_cast<unsigned char>(c));
    fnv_byte(out.lo, static_cast<unsigned char>(c) ^ 0x5a);
  }
  return out;
}

std::string CacheKey::hex() const {
  char buffer[36];
  std::snprintf(buffer, sizeof buffer, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buffer;
}

Canonical canonicalize(const BinaryMatrix& m) {
  Canonical c;
  c.original_rows = m.rows();
  c.original_cols = m.cols();
  c.reduction = reduce_duplicates(m);
  std::vector<Component> components = split_components(c.reduction.reduced);

  // Equal component matrices sort identically, so each distinct one is
  // sorted once: kron(pattern, patch) repeats every block once per class
  // of equal patch rows.
  std::vector<SortedComponent> sorted;
  sorted.reserve(components.size());
  std::unordered_map<std::uint64_t, std::size_t> first_with_hash;
  for (const Component& component : components) {
    const BinaryMatrix& block = component.matrix;
    std::uint64_t h = block.rows() * 0x9e3779b97f4a7c15ULL + block.cols();
    for (std::size_t i = 0; i < block.rows(); ++i)
      for (const std::uint64_t w : block.row(i).words())
        h = (h ^ w) * 0xff51afd7ed558ccdULL;
    const auto [it, fresh] = first_with_hash.try_emplace(h, sorted.size());
    if (!fresh && components[it->second].matrix == block)
      sorted.push_back(sorted[it->second]);
    else
      sorted.push_back(sort_component(block));
    c.sort_passes = std::max(c.sort_passes, sorted.back().passes);
  }

  // Order the components canonically, carrying their lift records along.
  std::vector<std::size_t> order(components.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return component_before(sorted[a], sorted[b]);
  });

  std::size_t total_rows = 0;
  std::size_t total_cols = 0;
  for (const SortedComponent& s : sorted) {
    total_rows += s.matrix.rows();
    total_cols += s.matrix.cols();
  }

  // Block-diagonal assembly: each block row is shifted into place.
  std::vector<BitVec> pattern_rows;
  pattern_rows.reserve(total_rows);
  std::size_t row_at = 0;
  std::size_t col_at = 0;
  for (const std::size_t idx : order) {
    SortedComponent& s = sorted[idx];
    for (std::size_t i = 0; i < s.matrix.rows(); ++i) {
      pattern_rows.emplace_back(total_cols);
      pattern_rows.back().or_at(s.matrix.row(i), col_at);
    }
    c.row_offset.push_back(row_at);
    c.col_offset.push_back(col_at);
    row_at += s.matrix.rows();
    col_at += s.matrix.cols();
    c.components.push_back(std::move(components[idx]));
    c.row_order.push_back(std::move(s.row_order));
    c.col_order.push_back(std::move(s.col_order));
  }
  c.pattern = BinaryMatrix::from_rows(std::move(pattern_rows), total_cols);
  c.key = hash_matrix(c.pattern);
  return c;
}

Partition lift(const Partition& p, const Canonical& c) {
  // Canonical-space partition -> reduced-matrix space. A rectangle of a
  // valid partition never spans two diagonal blocks (a spanning rectangle
  // would cover an off-block zero), so each maps inside one component.
  Partition reduced_partition;
  reduced_partition.reserve(p.size());
  const std::size_t reduced_rows = c.reduction.reduced.rows();
  const std::size_t reduced_cols = c.reduction.reduced.cols();
  for (const Rectangle& r : p) {
    EBMF_EXPECTS(!r.empty());
    const std::size_t first_row = r.rows.find_first();
    // The block whose row range contains first_row.
    std::size_t comp = c.row_offset.size();
    while (comp > 0 && c.row_offset[comp - 1] > first_row) --comp;
    EBMF_EXPECTS(comp > 0);
    --comp;
    const Component& component = c.components[comp];
    Rectangle lifted{BitVec(reduced_rows), BitVec(reduced_cols)};
    for (std::size_t i = r.rows.find_first(); i < r.rows.size();
         i = r.rows.find_next(i)) {
      EBMF_EXPECTS(i >= c.row_offset[comp] &&
                   i - c.row_offset[comp] < c.row_order[comp].size());
      const std::size_t local = c.row_order[comp][i - c.row_offset[comp]];
      lifted.rows.set(component.row_map[local]);
    }
    for (std::size_t j = r.cols.find_first(); j < r.cols.size();
         j = r.cols.find_next(j)) {
      EBMF_EXPECTS(j >= c.col_offset[comp] &&
                   j - c.col_offset[comp] < c.col_order[comp].size());
      const std::size_t local = c.col_order[comp][j - c.col_offset[comp]];
      lifted.cols.set(component.col_map[local]);
    }
    reduced_partition.push_back(std::move(lifted));
  }
  return expand_partition(reduced_partition, c.reduction);
}

}  // namespace ebmf::canon
