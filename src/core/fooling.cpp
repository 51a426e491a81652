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

/// Search nodes between two polls of the deadline and cancellation flags
/// on a one-word graph. A node's work grows with the word count, so wider
/// graphs poll proportionally more often, down to every node.
constexpr std::uint64_t kPollInterval = 256;

/// One packed row of `words` words per 1-cell (row-major `cells`), with bit
/// u set when cell u may share a fooling set with the row's cell. Cells
/// (i,j) and (i',j') clash iff M[i][j'] = M[i'][j] = 1: the second cell's
/// column is in row i's support and its row in column j's. So the clash set
/// of (i,j) is in_col[j] & in_row[i], where in_col[j] holds the cells whose
/// row has a 1 in column j and in_row[i] those whose column is in row i's
/// support; its row is the complement (bits past the last cell are never
/// read, since candidate sets hold none).
std::vector<Word> compatibility_rows(const BinaryMatrix& m,
                                     const CellSet& cells, std::size_t words) {
  std::vector<Word> in_col(m.cols() * words), in_row(m.rows() * words);
  for (std::size_t v = 0; v < cells.size(); ++v) {
    const Word bit = Word{1} << (v & 63);
    for (std::size_t j = 0; j < m.cols(); ++j)
      if (m.test(cells[v].first, j)) in_col[j * words + v / 64] |= bit;
    for (std::size_t i = 0; i < m.rows(); ++i)
      if (m.test(i, cells[v].second)) in_row[i * words + v / 64] |= bit;
  }
  std::vector<Word> rows(cells.size() * words);
  for (std::size_t v = 0; v < cells.size(); ++v)
    for (std::size_t w = 0; w < words; ++w)
      rows[v * words + w] = ~(in_col[cells[v].second * words + w] &
                              in_row[cells[v].first * words + w]);
  return rows;
}

/// Maximum clique over the compatibility graph by bit-parallel branch and
/// bound (after San Segundo et al.'s BBMC). Each node colours its
/// candidates greedily into independent sets; a clique takes at most one
/// vertex per colour, so a candidate of colour k extends the clique to at
/// most |clique| + k cells, and only candidates that could beat the
/// incumbent (or the caller's floor) are branched on.
struct CliqueSearch {
  const Budget& budget;
  std::size_t floor, target, words;
  std::vector<Word> adj;
  std::vector<std::size_t> clique{}, best{};
  std::uint64_t nodes = 0;
  bool stopped = false;
  std::uint64_t poll_every = std::max<std::uint64_t>(
      kPollInterval / std::max<std::size_t>(words, 1), 1);

  const Word* row(std::size_t v) const { return adj.data() + v * words; }
  std::size_t limit() const { return std::max(best.size(), floor); }
  bool done() const {
    return stopped || (target != 0 && best.size() >= target);
  }

  /// First-fit maximal clique in vertex order: the answer when the budget
  /// stops the search before it finds a larger one.
  void seed(std::vector<Word> open) {
    for (std::size_t w = 0; w < words; ++w)
      while (open[w] != 0) {
        best.push_back(w * 64 + std::countr_zero(open[w]));
        for (std::size_t x = w; x < words; ++x) open[x] &= row(best.back())[x];
      }
  }

  void expand(std::vector<Word>& cand) {
    ++nodes;
    stopped = (budget.max_nodes != 0 && nodes > budget.max_nodes) ||
              (nodes % poll_every == 0 && budget.exhausted());
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
          for (std::size_t x = w; x < words; ++x) open[x] &= ~row(v)[x];
          if (depth + k > lim) order.emplace_back(v, k);
        }
    }
    // Branch from the highest colour down, dropping each vertex once tried.
    std::vector<Word> next(words);
    for (auto it = order.rbegin(); it != order.rend() && !done(); ++it) {
      const auto [v, k] = *it;
      if (depth + k <= limit()) break;
      clique.push_back(v);
      bool any = false;
      for (std::size_t w = 0; w < words; ++w)
        any |= (next[w] = cand[w] & row(v)[w]) != 0;
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
  const std::size_t words = (cells.size() + 63) / 64;
  CliqueSearch search{budget, floor, target, words,
                      compatibility_rows(m, cells, words)};
  std::vector<Word> all(words);
  for (std::size_t v = 0; v < cells.size(); ++v)
    all[v / 64] |= Word{1} << (v & 63);
  search.seed(all);
  if (!search.done() && !budget.exhausted()) search.expand(all);
  CellSet out;
  for (const std::size_t v : search.best) out.push_back(cells[v]);
  return out;
}

}  // namespace ebmf
