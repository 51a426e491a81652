#pragma once
/// \file bitvec.h
/// \brief A dynamic fixed-length bit vector tuned for the set operations the
/// EBMF algorithms live on: subset tests, disjointness tests, in-place
/// union/difference, and popcounts.
///
/// `std::vector<bool>` lacks word-level access and `std::bitset` is
/// compile-time sized; row-packing (Alg. 2 of the paper) spends nearly all of
/// its time in `contains` / `operator-=` on rows, so BitVec stores bits in
/// little-endian 64-bit words and exposes those operations directly.

#include <cstdint>
#include <string>
#include <vector>

#include "support/contracts.h"

namespace ebmf {

/// Fixed-length vector of bits with word-parallel set operations.
///
/// Invariants: `size()` is fixed at construction (no resize); all bits above
/// `size()` in the last storage word are zero (maintained by every mutator so
/// popcount/equality never see garbage).
class BitVec {
 public:
  /// An empty bit vector of length zero.
  BitVec() = default;

  /// A bit vector of `n` bits, all zero.
  explicit BitVec(std::size_t n) : n_(n), w_((n + 63) / 64, 0) {}

  /// Build from a 0/1 string, e.g. BitVec::from_string("10110").
  /// Characters other than '0'/'1' are rejected.
  static BitVec from_string(const std::string& s);

  /// Build an `n`-bit vector directly from little-endian storage words (the
  /// layout words() exposes). Bits above `n` in the last word are cleared,
  /// so untrusted wire input cannot violate the trim invariant; missing
  /// words read as zero, surplus words are ignored.
  static BitVec from_words(std::size_t n,
                           const std::vector<std::uint64_t>& words) {
    BitVec v(n);
    const std::size_t limit = std::min(words.size(), v.w_.size());
    for (std::size_t i = 0; i < limit; ++i) v.w_[i] = words[i];
    v.trim();
    return v;
  }

  /// Number of bits.
  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  /// True when size() == 0.
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }

  /// Read bit `i`. Precondition: i < size().
  [[nodiscard]] bool test(std::size_t i) const {
    EBMF_ASSERT(i < n_);
    return (w_[i >> 6] >> (i & 63)) & 1u;
  }

  /// Alias for test() enabling `v[i]` reads.
  [[nodiscard]] bool operator[](std::size_t i) const { return test(i); }

  /// Set bit `i` to `value`. Precondition: i < size().
  void set(std::size_t i, bool value = true) {
    EBMF_ASSERT(i < n_);
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    if (value)
      w_[i >> 6] |= mask;
    else
      w_[i >> 6] &= ~mask;
  }

  /// Clear bit `i`. Precondition: i < size().
  void reset(std::size_t i) { set(i, false); }

  /// Set all bits to zero.
  void clear() noexcept {
    for (auto& w : w_) w = 0;
  }

  /// Set all bits to one.
  void fill();

  /// Number of set bits.
  [[nodiscard]] std::size_t count() const noexcept;

  /// True if no bit is set.
  [[nodiscard]] bool none() const noexcept;

  /// True if at least one bit is set.
  [[nodiscard]] bool any() const noexcept { return !none(); }

  /// Index of the lowest set bit, or size() if none.
  [[nodiscard]] std::size_t find_first() const noexcept;

  /// Index of the lowest set bit strictly above `i`, or size() if none.
  [[nodiscard]] std::size_t find_next(std::size_t i) const noexcept;

  /// True if every set bit of *this is also set in `other`
  /// (i.e. *this ⊆ other). Precondition: same size.
  [[nodiscard]] bool subset_of(const BitVec& other) const;

  /// True if *this and `other` share no set bit. Precondition: same size.
  [[nodiscard]] bool disjoint(const BitVec& other) const;

  /// True if *this and `other` share at least one set bit.
  [[nodiscard]] bool intersects(const BitVec& other) const {
    return !disjoint(other);
  }

  /// In-place union. Precondition: same size.
  BitVec& operator|=(const BitVec& other);
  /// In-place intersection. Precondition: same size.
  BitVec& operator&=(const BitVec& other);
  /// In-place symmetric difference. Precondition: same size.
  BitVec& operator^=(const BitVec& other);
  /// In-place set difference (*this AND NOT other). Precondition: same size.
  BitVec& operator-=(const BitVec& other);

  /// OR `src` into *this with src bit 0 landing on bit `offset` (word
  /// shifts, not per-bit sets). Precondition: offset + src.size() <= size().
  void or_at(const BitVec& src, std::size_t offset);

  /// Set union.
  friend BitVec operator|(BitVec a, const BitVec& b) { return a |= b; }
  /// Set intersection.
  friend BitVec operator&(BitVec a, const BitVec& b) { return a &= b; }
  /// Symmetric difference.
  friend BitVec operator^(BitVec a, const BitVec& b) { return a ^= b; }
  /// Set difference.
  friend BitVec operator-(BitVec a, const BitVec& b) { return a -= b; }

  /// Exact bitwise equality (sizes must match for equality to hold).
  friend bool operator==(const BitVec& a, const BitVec& b) noexcept {
    return a.n_ == b.n_ && a.w_ == b.w_;
  }

  /// Lexicographic-by-word ordering; total order usable as map key.
  friend bool operator<(const BitVec& a, const BitVec& b) noexcept {
    if (a.n_ != b.n_) return a.n_ < b.n_;
    return a.w_ < b.w_;
  }

  /// Indices of all set bits, ascending.
  [[nodiscard]] std::vector<std::size_t> ones() const;

  /// Render as a 0/1 string, index 0 first.
  [[nodiscard]] std::string to_string() const;

  /// 64-bit hash (FNV-1a over words) for use in unordered containers.
  [[nodiscard]] std::size_t hash() const noexcept;

  /// Direct read access to the storage words (little-endian bit order).
  [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept {
    return w_;
  }

 private:
  void trim() noexcept;  // zero the bits above n_ in the last word

  std::size_t n_ = 0;
  std::vector<std::uint64_t> w_;
};

/// Hash functor so BitVec can key unordered_map / unordered_set.
struct BitVecHash {
  std::size_t operator()(const BitVec& v) const noexcept { return v.hash(); }
};

}  // namespace ebmf
