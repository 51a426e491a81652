#include "oracle_ebmf.h"

#include <algorithm>

#include "core/bounds.h"
#include "core/trivial.h"

namespace ebmf {

namespace {

/// Depth-first search over canonical label assignments.
class LabelSearch {
 public:
  LabelSearch(const BinaryMatrix& m, std::size_t bound)
      : m_(&m),
        ones_(m.ones()),
        bound_(bound),
        labels_(ones_.size(), 0) {}

  /// Find any exact partition into at most `bound_` rectangles.
  bool run() { return assign(0, 0); }

  /// Reconstruct the partition from the found labeling.
  [[nodiscard]] Partition partition(std::size_t used) const {
    Partition p(used, Rectangle{BitVec(m_->rows()), BitVec(m_->cols())});
    for (std::size_t e = 0; e < ones_.size(); ++e) {
      p[labels_[e]].rows.set(ones_[e].first);
      p[labels_[e]].cols.set(ones_[e].second);
    }
    return p;
  }

  [[nodiscard]] std::size_t used() const { return used_; }

 private:
  /// Can cell e join label t given cells already labeled?
  /// Necessary local condition from Eq. 1: for every cell e' = (i',j')
  /// already in t, both crossing cells (i,j') and (i',j) must be 1 in M.
  [[nodiscard]] bool compatible(std::size_t e, std::size_t t) const {
    const auto [i, j] = ones_[e];
    for (std::size_t f = 0; f < e; ++f) {
      if (labels_[f] != t) continue;
      const auto [fi, fj] = ones_[f];
      if (!m_->test(i, fj) || !m_->test(fi, j)) return false;
    }
    return true;
  }

  /// Final exactness check: each label class must be exactly rows×cols.
  [[nodiscard]] bool classes_are_rectangles(std::size_t used) const {
    const Partition p = partition(used);
    std::size_t covered = 0;
    for (const auto& r : p) covered += r.cell_count();
    // Compatibility pruning already guarantees every class's closure is all
    // 1s and classes are disjoint within a cell; exactness additionally
    // needs the rectangle closures to be disjoint *and* total.
    if (covered != ones_.size()) return false;
    return static_cast<bool>(validate_partition(*m_, p));
  }

  bool assign(std::size_t e, std::size_t used) {
    if (e == ones_.size()) {
      if (!classes_are_rectangles(used)) return false;
      used_ = used;
      return true;
    }
    // Try existing labels, then (canonically) one new label.
    for (std::size_t t = 0; t < used; ++t) {
      if (!compatible(e, t)) continue;
      labels_[e] = t;
      if (assign(e + 1, used)) return true;
    }
    if (used < bound_) {
      labels_[e] = used;
      if (assign(e + 1, used + 1)) return true;
    }
    return false;
  }

  const BinaryMatrix* m_;
  std::vector<std::pair<std::size_t, std::size_t>> ones_;
  std::size_t bound_;
  std::vector<std::size_t> labels_;
  std::size_t used_ = 0;
};

}  // namespace

std::optional<BruteForceResult> brute_force_ebmf(const BinaryMatrix& m,
                                                 std::size_t max_rank) {
  if (m.is_zero()) return BruteForceResult{0, {}};
  const std::size_t cap =
      max_rank == 0 ? trivial_upper_bound(m) : max_rank;
  for (std::size_t b = 1; b <= cap; ++b) {
    LabelSearch search(m, b);
    if (search.run()) {
      BruteForceResult result;
      result.binary_rank = search.used();
      result.partition = search.partition(search.used());
      EBMF_ENSURES(static_cast<bool>(validate_partition(m, result.partition)));
      return result;
    }
  }
  return std::nullopt;
}

}  // namespace ebmf
