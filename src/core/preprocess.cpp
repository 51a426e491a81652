#include "core/preprocess.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>

namespace ebmf {

namespace {

/// Group the indices of equal nonzero lines, in first-occurrence order.
/// Line i is the `words` words at line(i). The lines are not copied: an
/// open-addressing table maps each line's hash to the group whose first
/// member it equals.
template <class LineWords>
std::vector<std::vector<std::size_t>> group_equal_lines(std::size_t count,
                                                        std::size_t words,
                                                        LineWords line) {
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t capacity = 16;
  while (capacity < 2 * count) capacity <<= 1;
  std::vector<std::size_t> slot_group(capacity, kNone);
  std::vector<std::uint64_t> slot_hash(capacity);
  std::vector<std::size_t> group_of(count, kNone);
  std::vector<std::size_t> first;  // first member of each group
  std::vector<std::size_t> size;   // members of each group
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t* w = line(i);
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    bool any = false;
    for (std::size_t k = 0; k < words; ++k) {
      any = any || w[k] != 0;
      h = (h ^ w[k]) * 0xff51afd7ed558ccdULL;
      h ^= h >> 32;
    }
    if (!any) continue;
    for (std::size_t s = h & (capacity - 1);; s = (s + 1) & (capacity - 1)) {
      if (slot_group[s] == kNone) {
        slot_group[s] = first.size();
        slot_hash[s] = h;
        first.push_back(i);
        size.push_back(0);
      } else if (slot_hash[s] != h ||
                 !std::equal(w, w + words, line(first[slot_group[s]]))) {
        continue;
      }
      group_of[i] = slot_group[s];
      ++size[group_of[i]];
      break;
    }
  }
  std::vector<std::vector<std::size_t>> groups(first.size());
  for (std::size_t g = 0; g < groups.size(); ++g) groups[g].reserve(size[g]);
  for (std::size_t i = 0; i < count; ++i)
    if (group_of[i] != kNone) groups[group_of[i]].push_back(i);
  return groups;
}

/// Disjoint-set forest for the component split.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

DuplicateReduction reduce_duplicates(const BinaryMatrix& m) {
  DuplicateReduction out;
  out.original_rows = m.rows();
  out.original_cols = m.cols();

  // Pass 1: group duplicate rows.
  out.row_groups =
      group_equal_lines(m.rows(), (m.cols() + 63) / 64,
                        [&](std::size_t i) { return m.row(i).words().data(); });
  const std::size_t rows = out.row_groups.size();

  // Pass 2: group duplicate columns of the row-reduced matrix, whose
  // columns are laid out flat, `stride` words each.
  const std::size_t stride = (rows + 63) / 64;
  std::vector<std::uint64_t> columns(m.cols() * stride, 0);
  for (std::size_t i = 0; i < rows; ++i) {
    const BitVec& row = m.row(out.row_groups[i][0]);
    for (std::size_t j = row.find_first(); j < m.cols(); j = row.find_next(j))
      columns[j * stride + (i >> 6)] |= std::uint64_t{1} << (i & 63);
  }
  out.col_groups = group_equal_lines(m.cols(), stride, [&](std::size_t j) {
    return columns.data() + j * stride;
  });
  const std::size_t cols = out.col_groups.size();

  // The reduced matrix: representative rows restricted to representative
  // columns — whole-row copies when no column was dropped.
  std::vector<BitVec> reduced;
  reduced.reserve(rows);
  if (cols == m.cols()) {
    for (const std::vector<std::size_t>& group : out.row_groups)
      reduced.push_back(m.row(group[0]));
  } else {
    reduced.assign(rows, BitVec(cols));
    for (std::size_t j = 0; j < cols; ++j) {
      const std::uint64_t* column = &columns[out.col_groups[j][0] * stride];
      for (std::size_t k = 0; k < stride; ++k)
        for (std::uint64_t w = column[k]; w != 0; w &= w - 1)
          reduced[k * 64 + static_cast<std::size_t>(std::countr_zero(w))]
              .set(j);
    }
  }
  out.reduced = BinaryMatrix::from_rows(std::move(reduced), cols);
  return out;
}

Partition expand_partition(const Partition& p, const DuplicateReduction& r) {
  Partition out;
  out.reserve(p.size());
  for (const Rectangle& rect : p) {
    Rectangle big{BitVec(r.original_rows), BitVec(r.original_cols)};
    for (std::size_t i = rect.rows.find_first(); i < rect.rows.size();
         i = rect.rows.find_next(i))
      for (std::size_t orig : r.row_groups[i]) big.rows.set(orig);
    for (std::size_t j = rect.cols.find_first(); j < rect.cols.size();
         j = rect.cols.find_next(j))
      for (std::size_t orig : r.col_groups[j]) big.cols.set(orig);
    out.push_back(std::move(big));
  }
  return out;
}

std::vector<Component> split_components(const BinaryMatrix& m) {
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  // Vertices: [0, rows) are rows, [rows, rows+cols) are columns.
  UnionFind uf(rows + cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = m.row(i).find_first(); j < cols;
         j = m.row(i).find_next(j))
      uf.unite(i, rows + j);

  // Collect member rows/cols per root, restricted to nonzero rows/cols;
  // components are numbered by their first row.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> component_of_root(rows + cols, kNone);
  std::vector<Component> components;
  for (std::size_t i = 0; i < rows; ++i) {
    if (m.row(i).none()) continue;
    std::size_t& c = component_of_root[uf.find(i)];
    if (c == kNone) {
      c = components.size();
      components.emplace_back();
    }
    components[c].row_map.push_back(i);
  }
  // col_pos[j] = column j's index inside its component.
  std::vector<std::size_t> col_pos(cols, kNone);
  for (std::size_t j = 0; j < cols; ++j) {
    const std::size_t c = component_of_root[uf.find(rows + j)];
    if (c == kNone) continue;  // empty column
    col_pos[j] = components[c].col_map.size();
    components[c].col_map.push_back(j);
  }

  for (Component& comp : components) {
    const std::size_t width = comp.col_map.size();
    std::vector<BitVec> comp_rows;
    comp_rows.reserve(comp.row_map.size());
    for (const std::size_t i : comp.row_map) {
      const BitVec& row = m.row(i);
      if (width == cols) {  // every column is in this component
        comp_rows.push_back(row);
        continue;
      }
      BitVec local(width);
      for (std::size_t j = row.find_first(); j < cols; j = row.find_next(j))
        local.set(col_pos[j]);
      comp_rows.push_back(std::move(local));
    }
    comp.matrix = BinaryMatrix::from_rows(std::move(comp_rows), width);
  }
  return components;
}

Partition lift_partition(const Partition& p, const Component& component,
                         std::size_t original_rows,
                         std::size_t original_cols) {
  Partition out;
  out.reserve(p.size());
  for (const Rectangle& rect : p) {
    Rectangle big{BitVec(original_rows), BitVec(original_cols)};
    for (std::size_t i = rect.rows.find_first(); i < rect.rows.size();
         i = rect.rows.find_next(i))
      big.rows.set(component.row_map[i]);
    for (std::size_t j = rect.cols.find_first(); j < rect.cols.size();
         j = rect.cols.find_next(j))
      big.cols.set(component.col_map[j]);
    out.push_back(std::move(big));
  }
  return out;
}

}  // namespace ebmf
