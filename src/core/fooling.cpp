#include "core/fooling.h"

#include <algorithm>
#include <bit>

#include "support/rng.h"

namespace ebmf {

namespace {

/// Two 1-cells may coexist in a fooling set iff some crossing cell is 0.
bool fooling_compatible(const BinaryMatrix& m,
                        std::pair<std::size_t, std::size_t> a,
                        std::pair<std::size_t, std::size_t> b) {
  return !m.test(a.first, b.second) || !m.test(b.first, a.second);
}

using Word = std::uint64_t;

/// Words of bitset work between two polls of the deadline and cancellation
/// flags. Colouring a node costs about candidates × words (one pass over
/// the words after each candidate's own), so the search counts words, not
/// nodes: polls stay a fraction of a millisecond apart at any width.
constexpr std::uint64_t kPollWords = std::uint64_t{1} << 18;

/// The fooling-compatibility graph, kept implicit. Cells (i,j) and (i',j')
/// clash iff M[i][j'] = M[i'][j] = 1: the second cell's column is in row
/// i's support and its row in column j's. So the clash set of (i,j) is
/// in_col[j] & in_row[i], where in_col[j] holds the cells whose row has a
/// 1 in column j and in_row[i] those whose column is in row i's support;
/// its compatibility row is the complement (bits past the last cell are
/// never read, since candidate sets hold none). Both tables are built from
/// the row and column supports, one bit per (cell, support entry).
struct ClashTables {
  std::size_t words;
  std::vector<Word> in_col, in_row;

  ClashTables(const BinaryMatrix& m, const CellSet& cells)
      : words((cells.size() + 63) / 64),
        in_col(m.cols() * words),
        in_row(m.rows() * words) {
    std::vector<std::vector<std::size_t>> row_support(m.rows()),
        col_support(m.cols());
    for (const auto& [i, j] : cells) {
      row_support[i].push_back(j);
      col_support[j].push_back(i);
    }
    for (std::size_t v = 0; v < cells.size(); ++v) {
      const Word bit = Word{1} << (v & 63);
      const auto [i, j] = cells[v];
      for (const std::size_t c : row_support[i])
        in_col[c * words + v / 64] |= bit;
      for (const std::size_t r : col_support[j])
        in_row[r * words + v / 64] |= bit;
    }
  }
};

/// Maximum clique over the compatibility graph by bit-parallel branch and
/// bound (after San Segundo et al.'s BBMC). Each node colours its
/// candidates greedily into independent sets; a clique takes at most one
/// vertex per colour, so a candidate of colour k extends the clique to at
/// most |clique| + k cells, and only candidates that could beat the
/// incumbent (or the caller's floor) are branched on.
struct CliqueSearch {
  const Budget& budget;
  std::size_t floor, target;
  const CellSet& cells;
  const ClashTables& tables;
  std::size_t words = tables.words;
  std::vector<std::size_t> clique{}, best{};
  std::uint64_t nodes = 0, work = 0;
  bool stopped = false;

  /// Cell v's clash set is col(v) & row(v), word by word.
  const Word* col(std::size_t v) const {
    return tables.in_col.data() + cells[v].second * words;
  }
  const Word* row(std::size_t v) const {
    return tables.in_row.data() + cells[v].first * words;
  }
  std::size_t limit() const { return std::max(best.size(), floor); }
  bool done() const {
    return stopped || (target != 0 && best.size() >= target);
  }
  /// Counts `n` words of work, polling the budget every kPollWords.
  bool charge(std::size_t n) {
    work += n;
    if (work >= kPollWords) {
      work = 0;
      stopped = budget.exhausted();
    }
    return stopped;
  }

  /// First-fit maximal clique in vertex order: the answer when the budget
  /// stops the search before it finds a larger one.
  void seed(std::vector<Word> open) {
    for (std::size_t w = 0; w < words; ++w)
      while (open[w] != 0) {
        const std::size_t v = w * 64 + std::countr_zero(open[w]);
        best.push_back(v);
        const Word *c = col(v), *r = row(v);
        for (std::size_t x = w; x < words; ++x) open[x] &= ~(c[x] & r[x]);
      }
  }

  void expand(std::vector<Word>& cand) {
    ++nodes;
    stopped = budget.max_nodes != 0 && nodes > budget.max_nodes;
    if (stopped) return;
    // Colour class k collects, in index order, candidates not adjacent to
    // an earlier member. Keep (vertex, k) only where depth + k can win.
    const std::size_t depth = clique.size(), lim = limit();
    std::vector<std::pair<std::size_t, std::size_t>> order;
    std::vector<Word> uncoloured = cand, open;
    for (std::size_t k = 1; std::any_of(uncoloured.begin(), uncoloured.end(),
                                        [](Word w) { return w != 0; });
         ++k) {
      open = uncoloured;
      for (std::size_t w = 0; w < words; ++w)
        while (open[w] != 0) {
          const Word bit = open[w] & (~open[w] + 1);
          const std::size_t v = w * 64 + std::countr_zero(open[w]);
          uncoloured[w] &= ~bit;
          open[w] &= ~bit;
          const Word *c = col(v), *r = row(v);
          for (std::size_t x = w; x < words; ++x) open[x] &= c[x] & r[x];
          if (charge(words - w)) return;
          if (depth + k > lim) order.emplace_back(v, k);
        }
    }
    // Branch from the highest colour down, dropping each vertex once tried.
    std::vector<Word> next(words);
    for (auto it = order.rbegin(); it != order.rend() && !done(); ++it) {
      const auto [v, k] = *it;
      if (depth + k <= limit()) break;
      clique.push_back(v);
      const Word *c = col(v), *r = row(v);
      bool any = false;
      for (std::size_t w = 0; w < words; ++w)
        any |= (next[w] = cand[w] & ~(c[w] & r[w])) != 0;
      if (any)
        expand(next);
      else if (clique.size() > limit())
        best = clique;
      clique.pop_back();
      cand[v / 64] &= ~(Word{1} << (v & 63));
    }
  }
};

}  // namespace

bool is_fooling_set(const BinaryMatrix& m, const CellSet& cells) {
  for (std::size_t x = 0; x < cells.size(); ++x) {
    if (!m.test(cells[x].first, cells[x].second)) return false;
    for (std::size_t y = x + 1; y < cells.size(); ++y)
      if (!fooling_compatible(m, cells[x], cells[y])) return false;
  }
  return true;
}

CellSet greedy_fooling_set(const BinaryMatrix& m, std::size_t trials,
                           std::uint64_t seed) {
  CellSet all = m.ones();
  CellSet best;
  Rng rng(seed);
  for (std::size_t t = 0; t < std::max<std::size_t>(trials, 1); ++t) {
    if (t != 0) rng.shuffle(all);
    CellSet cur;
    for (const auto& cell : all) {
      const bool ok = std::all_of(cur.begin(), cur.end(), [&](const auto& c) {
        return fooling_compatible(m, cell, c);
      });
      if (ok) cur.push_back(cell);
    }
    if (cur.size() > best.size()) best = std::move(cur);
  }
  return best;
}

CellSet max_fooling_set(const BinaryMatrix& m, const Budget& budget,
                        std::size_t floor, std::size_t target) {
  const CellSet cells = m.ones();
  const ClashTables tables(m, cells);
  CliqueSearch search{budget, floor, target, cells, tables};
  std::vector<Word> all(tables.words);
  for (std::size_t v = 0; v < cells.size(); ++v)
    all[v / 64] |= Word{1} << (v & 63);
  search.seed(all);
  if (!search.done() && !budget.exhausted()) search.expand(all);
  CellSet out;
  for (const std::size_t v : search.best) out.push_back(cells[v]);
  return out;
}

}  // namespace ebmf
