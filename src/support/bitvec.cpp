#include "support/bitvec.h"

#include <bit>

namespace ebmf {

BitVec BitVec::from_string(const std::string& s) {
  BitVec v(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    EBMF_EXPECTS(s[i] == '0' || s[i] == '1');
    if (s[i] == '1') v.set(i);
  }
  return v;
}

void BitVec::fill() {
  for (auto& w : w_) w = ~std::uint64_t{0};
  trim();
}

std::size_t BitVec::count() const noexcept {
  std::size_t c = 0;
  for (auto w : w_) c += static_cast<std::size_t>(std::popcount(w));
  return c;
}

bool BitVec::none() const noexcept {
  for (auto w : w_)
    if (w != 0) return false;
  return true;
}

std::size_t BitVec::find_first() const noexcept {
  for (std::size_t k = 0; k < w_.size(); ++k)
    if (w_[k] != 0)
      return k * 64 + static_cast<std::size_t>(std::countr_zero(w_[k]));
  return n_;
}

std::size_t BitVec::find_next(std::size_t i) const noexcept {
  ++i;
  if (i >= n_) return n_;
  std::size_t k = i >> 6;
  std::uint64_t w = w_[k] & (~std::uint64_t{0} << (i & 63));
  while (true) {
    if (w != 0) return k * 64 + static_cast<std::size_t>(std::countr_zero(w));
    if (++k == w_.size()) return n_;
    w = w_[k];
  }
}

bool BitVec::subset_of(const BitVec& other) const {
  EBMF_EXPECTS(n_ == other.n_);
  for (std::size_t k = 0; k < w_.size(); ++k)
    if ((w_[k] & ~other.w_[k]) != 0) return false;
  return true;
}

bool BitVec::disjoint(const BitVec& other) const {
  EBMF_EXPECTS(n_ == other.n_);
  for (std::size_t k = 0; k < w_.size(); ++k)
    if ((w_[k] & other.w_[k]) != 0) return false;
  return true;
}

BitVec& BitVec::operator|=(const BitVec& other) {
  EBMF_EXPECTS(n_ == other.n_);
  for (std::size_t k = 0; k < w_.size(); ++k) w_[k] |= other.w_[k];
  return *this;
}

BitVec& BitVec::operator&=(const BitVec& other) {
  EBMF_EXPECTS(n_ == other.n_);
  for (std::size_t k = 0; k < w_.size(); ++k) w_[k] &= other.w_[k];
  return *this;
}

BitVec& BitVec::operator^=(const BitVec& other) {
  EBMF_EXPECTS(n_ == other.n_);
  for (std::size_t k = 0; k < w_.size(); ++k) w_[k] ^= other.w_[k];
  return *this;
}

BitVec& BitVec::operator-=(const BitVec& other) {
  EBMF_EXPECTS(n_ == other.n_);
  for (std::size_t k = 0; k < w_.size(); ++k) w_[k] &= ~other.w_[k];
  return *this;
}

void BitVec::or_at(const BitVec& src, std::size_t offset) {
  EBMF_EXPECTS(offset + src.n_ <= n_);
  const std::size_t base = offset >> 6;
  const std::size_t shift = offset & 63;
  for (std::size_t k = 0; k < src.w_.size(); ++k) {
    const std::uint64_t w = src.w_[k];
    if (w == 0) continue;
    w_[base + k] |= w << shift;
    // The spill is nonzero only when it holds bits below n_.
    const std::uint64_t spill = shift == 0 ? 0 : w >> (64 - shift);
    if (spill != 0) w_[base + k + 1] |= spill;
  }
}

std::vector<std::size_t> BitVec::ones() const {
  std::vector<std::size_t> out;
  out.reserve(count());
  for (std::size_t i = find_first(); i < n_; i = find_next(i)) out.push_back(i);
  return out;
}

std::string BitVec::to_string() const {
  std::string s(n_, '0');
  for (std::size_t i = 0; i < n_; ++i)
    if (test(i)) s[i] = '1';
  return s;
}

std::size_t BitVec::hash() const noexcept {
  std::uint64_t h = 1469598103934665603ull;
  h ^= n_;
  h *= 1099511628211ull;
  for (auto w : w_) {
    h ^= w;
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h);
}

void BitVec::trim() noexcept {
  const std::size_t extra = n_ & 63;
  if (extra != 0 && !w_.empty())
    w_.back() &= (std::uint64_t{1} << extra) - 1;
}

}  // namespace ebmf
