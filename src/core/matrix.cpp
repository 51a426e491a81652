#include "core/matrix.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace ebmf {

BinaryMatrix BinaryMatrix::from_strings(const std::vector<std::string>& rows) {
  BinaryMatrix m;
  if (rows.empty()) return m;
  m.n_ = rows[0].size();
  m.rows_.reserve(rows.size());
  for (const auto& r : rows) {
    EBMF_EXPECTS(r.size() == m.n_);
    m.rows_.push_back(BitVec::from_string(r));
  }
  return m;
}

namespace {

/// Eight text bytes as a little-endian word: byte k is cell k.
std::uint64_t load8(const char* p) {
  std::uint64_t x;
  std::memcpy(&x, p, sizeof x);
  if constexpr (std::endian::native == std::endian::big)
    x = __builtin_bswap64(x);
  return x;
}

constexpr std::uint64_t kLowBits = 0x0101010101010101ULL;

}  // namespace

BinaryMatrix BinaryMatrix::parse(const std::string& text) {
  BinaryMatrix m;
  std::vector<std::uint64_t> words;  // the row being read
  std::size_t len = 0;               // its cells so far
  const auto append = [&](std::uint64_t bits, std::size_t count) {
    const std::size_t shift = len & 63;
    if (shift == 0) {
      words.push_back(bits);
    } else {
      words.back() |= bits << shift;
      if (shift + count > 64) words.push_back(bits >> (64 - shift));
    }
    len += count;
  };
  const auto end_row = [&] {
    if (len == 0) return;
    if (m.rows_.empty()) m.n_ = len;
    EBMF_EXPECTS(len == m.n_);
    m.rows_.push_back(BitVec::from_words(len, words));
    words.clear();
    len = 0;
  };
  const char* p = text.data();
  const char* const end = p + text.size();
  while (p < end) {
    if (end - p >= 8) {
      // A run of eight '0'/'1' bytes (0x30/0x31): gather each byte's low
      // bit into bit k of one byte with a single multiply.
      const std::uint64_t x = load8(p);
      if ((x & ~kLowBits) == 0x3030303030303030ULL) {
        append(((x & kLowBits) * 0x0102040810204080ULL) >> 56, 8);
        p += 8;
        continue;
      }
    }
    const char ch = *p++;
    if (ch == ';' || ch == '\n')
      end_row();
    else if (ch == '0' || ch == '1')
      append(static_cast<std::uint64_t>(ch - '0'), 1);
    else
      EBMF_EXPECTS(ch == ' ' || ch == '\t' || ch == '\r');
  }
  end_row();
  return m;
}

BinaryMatrix BinaryMatrix::from_rows(std::vector<BitVec> rows, std::size_t n) {
  for (const auto& r : rows) EBMF_EXPECTS(r.size() == n);
  BinaryMatrix m;
  m.n_ = n;
  m.rows_ = std::move(rows);
  return m;
}

BitVec BinaryMatrix::col(std::size_t j) const {
  EBMF_EXPECTS(j < n_);
  BitVec c(rows());
  for (std::size_t i = 0; i < rows(); ++i)
    if (rows_[i].test(j)) c.set(i);
  return c;
}

BinaryMatrix BinaryMatrix::transposed() const {
  BinaryMatrix t(n_, rows());
  for (std::size_t i = 0; i < rows(); ++i)
    for (std::size_t j = rows_[i].find_first(); j < n_;
         j = rows_[i].find_next(j))
      t.set(j, i);
  return t;
}

std::size_t BinaryMatrix::ones_count() const noexcept {
  std::size_t c = 0;
  for (const auto& r : rows_) c += r.count();
  return c;
}

std::vector<std::pair<std::size_t, std::size_t>> BinaryMatrix::ones() const {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  out.reserve(ones_count());
  for (std::size_t i = 0; i < rows(); ++i)
    for (std::size_t j = rows_[i].find_first(); j < n_;
         j = rows_[i].find_next(j))
      out.emplace_back(i, j);
  return out;
}

bool BinaryMatrix::is_zero() const noexcept {
  return std::all_of(rows_.begin(), rows_.end(),
                     [](const BitVec& r) { return r.none(); });
}

BinaryMatrix BinaryMatrix::permuted_rows(
    const std::vector<std::size_t>& perm) const {
  EBMF_EXPECTS(perm.size() == rows());
  std::vector<BitVec> out;
  out.reserve(rows());
  for (std::size_t i : perm) {
    EBMF_EXPECTS(i < rows());
    out.push_back(rows_[i]);
  }
  return from_rows(std::move(out), n_);
}

BinaryMatrix BinaryMatrix::kron(const BinaryMatrix& a, const BinaryMatrix& b) {
  BinaryMatrix out(a.rows() * b.rows(), a.cols() * b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (!a.test(i, j)) continue;
      for (std::size_t k = 0; k < b.rows(); ++k)
        for (std::size_t l = 0; l < b.cols(); ++l)
          if (b.test(k, l)) out.set(i * b.rows() + k, j * b.cols() + l);
    }
  return out;
}

BinaryMatrix BinaryMatrix::random(std::size_t m, std::size_t n,
                                  double occupancy, Rng& rng) {
  BinaryMatrix out(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (rng.chance(occupancy)) out.set(i, j);
  return out;
}

std::string BinaryMatrix::to_string() const {
  std::string s;
  for (std::size_t i = 0; i < rows(); ++i) {
    if (i != 0) s.push_back('\n');
    s += rows_[i].to_string();
  }
  return s;
}

}  // namespace ebmf
