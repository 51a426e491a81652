#include "core/partition.h"

#include <algorithm>
#include <cstdint>
#include <sstream>

namespace ebmf {

ValidationResult validate_partition(const BinaryMatrix& m, const Partition& p) {
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  const std::size_t width = (cols + 63) / 64;
  // Covered cells, row-major words; overlap and zero-coverage are detected
  // on the fly.
  std::vector<std::uint64_t> covered(rows * width, 0);
  for (std::size_t t = 0; t < p.size(); ++t) {
    const Rectangle& r = p[t];
    if (r.rows.size() != rows || r.cols.size() != cols)
      return {false, "rectangle " + std::to_string(t) + " has wrong shape"};
    if (r.empty())
      return {false, "rectangle " + std::to_string(t) + " is empty"};
    const std::uint64_t* const rect_cols = r.cols.words().data();
    for (std::size_t i = r.rows.find_first(); i < rows;
         i = r.rows.find_next(i)) {
      const std::uint64_t* const row = m.row(i).words().data();
      std::uint64_t* const cover = covered.data() + i * width;
      std::uint64_t outside = 0;
      std::uint64_t overlap = 0;
      for (std::size_t w = 0; w < width; ++w) {
        outside |= rect_cols[w] & ~row[w];
        overlap |= rect_cols[w] & cover[w];
      }
      if (outside != 0)
        return {false, "rectangle " + std::to_string(t) + " covers a 0 in row " +
                           std::to_string(i)};
      if (overlap != 0)
        return {false, "rectangle " + std::to_string(t) +
                           " overlaps a previous rectangle in row " +
                           std::to_string(i)};
      for (std::size_t w = 0; w < width; ++w) cover[w] |= rect_cols[w];
    }
  }
  for (std::size_t i = 0; i < rows; ++i)
    if (!std::equal(covered.begin() + static_cast<std::ptrdiff_t>(i * width),
                    covered.begin() + static_cast<std::ptrdiff_t>((i + 1) * width),
                    m.row(i).words().begin()))
      return {false, "row " + std::to_string(i) + " not fully covered"};
  return {true, {}};
}

BinaryMatrix partition_union(const Partition& p, std::size_t rows,
                             std::size_t cols) {
  BinaryMatrix out(rows, cols);
  for (const Rectangle& r : p)
    for (std::size_t i = r.rows.find_first(); i < rows;
         i = r.rows.find_next(i))
      for (std::size_t j = r.cols.find_first(); j < cols;
           j = r.cols.find_next(j))
        out.set(i, j);
  return out;
}

Partition transposed(const Partition& p) {
  Partition out;
  out.reserve(p.size());
  for (const Rectangle& r : p) out.push_back(r.transposed());
  return out;
}

std::string render_partition(const BinaryMatrix& m, const Partition& p) {
  static const std::string kSymbols =
      "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
  std::vector<std::string> grid(m.rows(), std::string(m.cols(), '.'));
  for (std::size_t t = 0; t < p.size(); ++t) {
    const char sym = kSymbols[t % kSymbols.size()];
    const Rectangle& r = p[t];
    for (std::size_t i = r.rows.find_first(); i < m.rows();
         i = r.rows.find_next(i))
      for (std::size_t j = r.cols.find_first(); j < m.cols();
           j = r.cols.find_next(j))
        grid[i][j] = sym;
  }
  std::ostringstream out;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (i != 0) out << '\n';
    out << grid[i];
  }
  return out.str();
}

}  // namespace ebmf
