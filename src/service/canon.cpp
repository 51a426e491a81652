// Canonicalization: dedup + component split + iterated row/col sort, the
// 128-bit content key, and the lift back to the original index space.

#include "service/canon.h"

#include <algorithm>
#include <bit>
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

/// One side of the bipartite graph: line i's neighbours are
/// adj[start[i] .. start[i+1]), and `by_degree` lists the lines by
/// ascending degree, so that lines hashed side by side have similar lengths.
struct Side {
  std::vector<std::size_t> start;
  std::vector<std::size_t> adj;
  std::vector<std::size_t> by_degree;
};

/// A set of equal-length lines as flat words: line i is
/// words[i * width .. (i + 1) * width), bit j of the line at word j / 64.
struct Lines {
  std::size_t count = 0;
  std::size_t width = 0;
  std::vector<std::uint64_t> words;

  [[nodiscard]] const std::uint64_t* line(std::size_t i) const {
    return words.data() + i * width;
  }
};

/// Buffers that one canonicalize call reuses for all of its components.
struct SortScratch {
  Side row_side;
  Side col_side;
  std::vector<std::size_t> tally;
  WlColors colors;
  WlColors next;
  std::vector<std::uint64_t> gathered;
  Lines by_col;
  std::vector<std::size_t> ones;
  std::vector<std::size_t> order;
  std::vector<std::size_t> indices;
  std::vector<std::uint64_t> values;
};

/// Lines of `side` by ascending degree (a counting sort).
void order_by_degree(Side& side, std::vector<std::size_t>& tally) {
  const std::size_t n = side.start.size() - 1;
  std::size_t max_degree = 0;
  for (std::size_t i = 0; i < n; ++i)
    max_degree = std::max(max_degree, side.start[i + 1] - side.start[i]);
  tally.assign(max_degree + 2, 0);
  for (std::size_t i = 0; i < n; ++i)
    ++tally[side.start[i + 1] - side.start[i] + 1];
  for (std::size_t d = 1; d < tally.size(); ++d) tally[d] += tally[d - 1];
  side.by_degree.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    side.by_degree[tally[side.start[i + 1] - side.start[i]]++] = i;
}

/// fnv_u64 on four independent hashes at once: the byte steps alternate
/// between the lanes, so four serial multiply chains run side by side.
inline void fnv_u64_x4(std::uint64_t (&h)[4], const std::uint64_t (&v)[4]) {
  for (int b = 0; b < 64; b += 8) {
    h[0] = (h[0] ^ ((v[0] >> b) & 0xff)) * kFnvPrime;
    h[1] = (h[1] ^ ((v[1] >> b) & 0xff)) * kFnvPrime;
    h[2] = (h[2] ^ ((v[2] >> b) & 0xff)) * kFnvPrime;
    h[3] = (h[3] ^ ((v[3] >> b) & 0xff)) * kFnvPrime;
  }
}

/// One refinement round of one side: next[i] = FNV-1a over own[i] and then
/// the ascending colors of i's neighbours, as hashing each line on its own
/// would give. `gathered` holds one slot per edge. Lines are hashed four at
/// a time in degree order; a lane whose line is done keeps its hash
/// through a select.
void refine_side(const Side& side, const std::vector<std::uint64_t>& own,
                 const std::vector<std::uint64_t>& neighbour_colors,
                 std::vector<std::uint64_t>& gathered,
                 std::vector<std::uint64_t>& next) {
  const std::size_t n = side.start.size() - 1;
  for (std::size_t i = 0; i < n; ++i) {
    // Insertion sort: degrees after dedup are small.
    const std::size_t first = side.start[i];
    for (std::size_t k = first; k < side.start[i + 1]; ++k) {
      const std::uint64_t value = neighbour_colors[side.adj[k]];
      std::size_t at = k;
      for (; at > first && gathered[at - 1] > value; --at)
        gathered[at] = gathered[at - 1];
      gathered[at] = value;
    }
  }
  for (std::size_t g = 0; g < n; g += 4) {
    std::size_t line[4] = {};
    std::size_t at[4] = {};
    std::size_t length[4] = {};
    std::uint64_t h[4] = {};
    std::uint64_t v[4] = {};
    for (std::size_t l = 0; l < 4; ++l) {
      // A short last group repeats its last line, whose hash is then
      // written twice.
      line[l] = side.by_degree[std::min(g + l, n - 1)];
      at[l] = side.start[line[l]];
      length[l] = side.start[line[l] + 1] - at[l];
      h[l] = kFnvOffsetHi;
      v[l] = own[line[l]];
    }
    fnv_u64_x4(h, v);
    const std::size_t steps =
        std::max({length[0], length[1], length[2], length[3]});
    for (std::size_t k = 0; k < steps; ++k) {
      std::uint64_t t[4] = {h[0], h[1], h[2], h[3]};
      for (std::size_t l = 0; l < 4; ++l)
        v[l] = k < length[l] ? gathered[at[l] + k] : 0;
      fnv_u64_x4(t, v);
      for (std::size_t l = 0; l < 4; ++l) h[l] = k < length[l] ? t[l] : h[l];
    }
    for (std::size_t l = 0; l < 4; ++l) next[line[l]] = h[l];
  }
}

/// The refined colors of `m`'s rows and columns, left in `s.colors`.
void wl_colors(const BinaryMatrix& m, SortScratch& s) {
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  // The bipartite adjacency, built once for every round.
  Side& row_side = s.row_side;
  Side& col_side = s.col_side;
  row_side.start.assign(rows + 1, 0);
  col_side.start.assign(cols + 1, 0);
  row_side.adj.clear();
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = m.row(i).find_first(); j < cols;
         j = m.row(i).find_next(j)) {
      row_side.adj.push_back(j);
      ++col_side.start[j + 1];
    }
    row_side.start[i + 1] = row_side.adj.size();
  }
  for (std::size_t j = 0; j < cols; ++j)
    col_side.start[j + 1] += col_side.start[j];
  col_side.adj.resize(row_side.adj.size());
  s.tally.assign(col_side.start.begin(), col_side.start.end() - 1);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t k = row_side.start[i]; k < row_side.start[i + 1]; ++k)
      col_side.adj[s.tally[row_side.adj[k]]++] = i;
  order_by_degree(row_side, s.tally);
  order_by_degree(col_side, s.tally);

  s.colors.row.resize(rows);
  s.colors.col.resize(cols);
  for (std::size_t i = 0; i < rows; ++i)
    s.colors.row[i] =
        0x517cc1b727220a95ULL * (row_side.start[i + 1] - row_side.start[i]);
  for (std::size_t j = 0; j < cols; ++j)
    s.colors.col[j] =
        0x2545f4914f6cdd1dULL * (col_side.start[j + 1] - col_side.start[j]);

  // A few rounds individualize everything refinement can; components are
  // small after dedup, so a fixed cap is plenty.
  const std::size_t rounds = rows + cols > 64 ? 8 : 6;
  s.gathered.resize(row_side.adj.size());
  s.next.row.resize(rows);
  s.next.col.resize(cols);
  for (std::size_t round = 0; round < rounds; ++round) {
    refine_side(row_side, s.colors.row, s.colors.col, s.gathered, s.next.row);
    refine_side(col_side, s.colors.col, s.colors.row, s.gathered, s.next.col);
    std::swap(s.colors, s.next);
  }
}

std::size_t line_ones(const Lines& lines, std::size_t i) {
  std::size_t c = 0;
  for (std::size_t w = 0; w < lines.width; ++w)
    c += static_cast<std::size_t>(std::popcount(lines.line(i)[w]));
  return c;
}

/// Strict total order used for both row and column sorting: heavier lines
/// first, ties broken by content (the larger word sequence first). Lines of
/// a deduplicated component are pairwise distinct, so ties never survive to
/// the content comparison.
bool line_before(const Lines& a, std::size_t i, std::size_t ones_a,
                 const Lines& b, std::size_t j, std::size_t ones_b) {
  if (ones_a != ones_b) return ones_a > ones_b;
  return std::lexicographical_compare(b.line(j), b.line(j) + b.width,
                                      a.line(i), a.line(i) + a.width);
}

/// The lines of `to` become the columns of `from`, which has `bits` bits
/// per line. Walks set bits only, so a sparse component costs its ones.
void transpose_into(const Lines& from, std::size_t bits, Lines& to) {
  to.count = bits;
  to.width = (from.count + 63) / 64;
  to.words.assign(to.count * to.width, 0);
  for (std::size_t i = 0; i < from.count; ++i) {
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    for (std::size_t w = 0; w < from.width; ++w)
      for (std::uint64_t x = from.line(i)[w]; x != 0; x &= x - 1) {
        const auto j = w * 64 + static_cast<std::size_t>(std::countr_zero(x));
        to.words[j * to.width + (i >> 6)] |= bit;
      }
  }
}

/// Sorted order of the lines into `order`: color first (invariant), then
/// line_before, with each line's ones counted once per sort.
void sort_order(const Lines& lines, const std::vector<std::uint64_t>& colors,
                std::vector<std::size_t>& ones,
                std::vector<std::size_t>& order) {
  ones.resize(lines.count);
  for (std::size_t i = 0; i < lines.count; ++i) ones[i] = line_ones(lines, i);
  order.resize(lines.count);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (colors[a] != colors[b]) return colors[a] > colors[b];
    return line_before(lines, a, ones[a], lines, b, ones[b]);
  });
}

bool is_identity(const std::vector<std::size_t>& order) {
  for (std::size_t i = 0; i < order.size(); ++i)
    if (order[i] != i) return false;
  return true;
}

/// values[i] becomes old values[order[i]]. On a permutation record this
/// composes: canonical index i then shows original index accumulated[step[i]].
template <typename T>
void permute(std::vector<T>& values, const std::vector<std::size_t>& order,
             std::vector<T>& scratch) {
  scratch.resize(values.size());
  for (std::size_t i = 0; i < order.size(); ++i) scratch[i] = values[order[i]];
  values.swap(scratch);
}

/// Line i becomes old line order[i].
void permute_lines(Lines& lines, const std::vector<std::size_t>& order,
                   std::vector<std::uint64_t>& scratch) {
  scratch.resize(lines.words.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    std::copy_n(lines.line(order[i]), lines.width,
                scratch.begin() + static_cast<std::ptrdiff_t>(i * lines.width));
  lines.words.swap(scratch);
}

/// One component's canonical form: the sorted rows plus the permutations
/// mapping canonical indices back to component-local ones.
struct SortedComponent {
  Lines rows;
  std::size_t cols = 0;
  std::size_t ones = 0;
  std::vector<std::size_t> row_order;
  std::vector<std::size_t> col_order;
  std::size_t passes = 0;
};

/// Alternate row and column sorts until a full pass changes nothing. The
/// alternation converges in practice within a few passes; the cap keeps the
/// function total on any adversarial input (the result is then merely a
/// deterministic — still sound — non-fixpoint form). The rows are kept as
/// flat words next to a column-major copy, and each is re-derived from the
/// other only after the other's lines moved.
SortedComponent sort_component(const BinaryMatrix& m, SortScratch& s) {
  constexpr std::size_t kMaxPasses = 32;
  SortedComponent out;
  out.cols = m.cols();
  out.ones = m.ones_count();
  out.row_order.resize(m.rows());
  out.col_order.resize(m.cols());
  std::iota(out.row_order.begin(), out.row_order.end(), 0);
  std::iota(out.col_order.begin(), out.col_order.end(), 0);
  out.rows.count = m.rows();
  out.rows.width = (m.cols() + 63) / 64;
  out.rows.words.reserve(out.rows.count * out.rows.width);
  for (const BitVec& row : m.row_vectors())
    out.rows.words.insert(out.rows.words.end(), row.words().begin(),
                          row.words().end());
  // A single line sorts to itself; after dedup that is the 1x1 block.
  if (m.rows() <= 1 && m.cols() <= 1) return out;

  // Colors travel with their lines through every permutation below.
  wl_colors(m, s);
  Lines& by_col = s.by_col;
  transpose_into(out.rows, m.cols(), by_col);
  for (; out.passes < kMaxPasses; ++out.passes) {
    sort_order(out.rows, s.colors.row, s.ones, s.order);
    const bool rows_moved = !is_identity(s.order);
    if (rows_moved) {
      permute_lines(out.rows, s.order, s.values);
      permute(out.row_order, s.order, s.indices);
      permute(s.colors.row, s.order, s.values);
      transpose_into(out.rows, m.cols(), by_col);
    }
    sort_order(by_col, s.colors.col, s.ones, s.order);
    const bool cols_moved = !is_identity(s.order);
    if (!rows_moved && !cols_moved) break;
    if (cols_moved) {
      permute_lines(by_col, s.order, s.values);
      permute(out.col_order, s.order, s.indices);
      permute(s.colors.col, s.order, s.values);
      transpose_into(by_col, m.rows(), out.rows);
    }
  }
  return out;
}

/// Canonical order of the sorted components: larger first, content last.
bool component_before(const SortedComponent& a, const SortedComponent& b) {
  if (a.ones != b.ones) return a.ones > b.ones;
  if (a.rows.count != b.rows.count) return a.rows.count > b.rows.count;
  if (a.cols != b.cols) return a.cols > b.cols;
  for (std::size_t i = 0; i < a.rows.count; ++i) {
    if (std::equal(a.rows.line(i), a.rows.line(i) + a.rows.width,
                   b.rows.line(i)))
      continue;
    return line_before(a.rows, i, line_ones(a.rows, i), b.rows, i,
                       line_ones(b.rows, i));
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
  // of equal patch rows. sorted_of[k] is component k's entry in `sorted`.
  SortScratch scratch;
  std::vector<SortedComponent> sorted;
  sorted.reserve(components.size());
  std::vector<std::size_t> sorted_of(components.size());
  std::unordered_map<std::uint64_t, std::size_t> first_with_hash;
  for (std::size_t k = 0; k < components.size(); ++k) {
    const BinaryMatrix& block = components[k].matrix;
    std::uint64_t h = block.rows() * 0x9e3779b97f4a7c15ULL + block.cols();
    for (std::size_t i = 0; i < block.rows(); ++i)
      for (const std::uint64_t w : block.row(i).words())
        h = (h ^ w) * 0xff51afd7ed558ccdULL;
    const auto [it, fresh] = first_with_hash.try_emplace(h, k);
    if (!fresh && components[it->second].matrix == block) {
      sorted_of[k] = sorted_of[it->second];
    } else {
      sorted_of[k] = sorted.size();
      sorted.push_back(sort_component(block, scratch));
    }
    c.sort_passes = std::max(c.sort_passes, sorted[sorted_of[k]].passes);
  }

  // Order the components canonically, carrying their lift records along.
  std::vector<std::size_t> order(components.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return component_before(sorted[sorted_of[a]], sorted[sorted_of[b]]);
  });

  std::size_t total_rows = 0;
  std::size_t total_cols = 0;
  for (const std::size_t k : sorted_of) {
    total_rows += sorted[k].rows.count;
    total_cols += sorted[k].cols;
  }

  // Block-diagonal assembly: each block row's words are shifted into place.
  std::vector<BitVec> pattern_rows;
  pattern_rows.reserve(total_rows);
  c.components.reserve(components.size());
  c.row_order.reserve(components.size());
  c.col_order.reserve(components.size());
  c.row_offset.reserve(components.size());
  c.col_offset.reserve(components.size());
  std::vector<std::uint64_t> row_words((total_cols + 63) / 64, 0);
  std::size_t row_at = 0;
  std::size_t col_at = 0;
  for (const std::size_t idx : order) {
    const SortedComponent& s = sorted[sorted_of[idx]];
    const std::size_t base = col_at / 64;
    const std::size_t shift = col_at % 64;
    for (std::size_t i = 0; i < s.rows.count; ++i) {
      for (std::size_t w = 0; w < s.rows.width; ++w) {
        const std::uint64_t x = s.rows.line(i)[w];
        row_words[base + w] |= x << shift;
        if (shift != 0 && base + w + 1 < row_words.size())
          row_words[base + w + 1] |= x >> (64 - shift);
      }
      pattern_rows.push_back(BitVec::from_words(total_cols, row_words));
      std::fill(row_words.begin() + static_cast<std::ptrdiff_t>(base),
                row_words.begin() +
                    static_cast<std::ptrdiff_t>(std::min(
                        row_words.size(), base + s.rows.width + 1)),
                0);
    }
    c.row_offset.push_back(row_at);
    c.col_offset.push_back(col_at);
    row_at += s.rows.count;
    col_at += s.cols;
    c.components.push_back(std::move(components[idx]));
    c.row_order.push_back(s.row_order);
    c.col_order.push_back(s.col_order);
  }
  c.pattern = BinaryMatrix::from_rows(std::move(pattern_rows), total_cols);
  c.key = hash_matrix(c.pattern);
  return c;
}

Partition lift(const Partition& p, const Canonical& c) {
  // Canonical space -> reduced space -> original space in one step per
  // line: canonical row i of block b is the component's local row
  // row_order[b][i - row_offset[b]], which is reduced row row_map[local],
  // which stands for every original row in its duplicate group. A rectangle
  // of a valid partition never spans two diagonal blocks (a spanning
  // rectangle would cover an off-block zero), so each maps inside one
  // component.
  Partition out;
  out.reserve(p.size());
  for (const Rectangle& r : p) {
    EBMF_EXPECTS(!r.empty());
    // The block whose row range contains the first row.
    std::size_t comp = static_cast<std::size_t>(
        std::upper_bound(c.row_offset.begin(), c.row_offset.end(),
                         r.rows.find_first()) -
        c.row_offset.begin());
    EBMF_EXPECTS(comp > 0);
    --comp;
    const Component& component = c.components[comp];
    Rectangle lifted{BitVec(c.original_rows), BitVec(c.original_cols)};
    for (std::size_t i = r.rows.find_first(); i < r.rows.size();
         i = r.rows.find_next(i)) {
      EBMF_EXPECTS(i >= c.row_offset[comp] &&
                   i - c.row_offset[comp] < c.row_order[comp].size());
      const std::size_t local = c.row_order[comp][i - c.row_offset[comp]];
      for (const std::size_t row :
           c.reduction.row_groups[component.row_map[local]])
        lifted.rows.set(row);
    }
    for (std::size_t j = r.cols.find_first(); j < r.cols.size();
         j = r.cols.find_next(j)) {
      EBMF_EXPECTS(j >= c.col_offset[comp] &&
                   j - c.col_offset[comp] < c.col_order[comp].size());
      const std::size_t local = c.col_order[comp][j - c.col_offset[comp]];
      for (const std::size_t col :
           c.reduction.col_groups[component.col_map[local]])
        lifted.cols.set(col);
    }
    out.push_back(std::move(lifted));
  }
  return out;
}

}  // namespace ebmf::canon
