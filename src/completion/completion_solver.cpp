#include "completion/completion_solver.h"

#include <algorithm>

#include "completion/masked_packing.h"
#include "sat/cardinality.h"
#include "support/stopwatch.h"

namespace ebmf::completion {

namespace {

/// CompletionResult::lower_bound: greedy over the 1-cells in row order.
std::size_t masked_fooling_lower_bound(const MaskedMatrix& m) {
  std::vector<std::pair<std::size_t, std::size_t>> chosen;
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j) {
      if (m.at(i, j) != Cell::One) continue;
      const bool ok = std::all_of(
          chosen.begin(), chosen.end(), [&](const auto& c) {
            return m.at(c.first, j) == Cell::Zero ||
                   m.at(i, c.second) == Cell::Zero;
          });
      if (ok) chosen.emplace_back(i, j);
    }
  return chosen.size();
}

/// Estimated seconds per encoding work unit of MaskedFormula. It emits
/// Θ(cells²·bound) clauses (one or two per label for every cross pair of
/// 1-cells and don't-cares) in a constructor that cannot be interrupted,
/// so a deadline-bounded solve refuses formulas it cannot build in time.
/// Calibration: 782 cells at bound 39 (random 40×40 at 0.5) take ≈ 2.4 s,
/// 204 cells at bound 19 take ≈ 0.06 s (4-vCPU Xeon, g++ 12.2, Release).
constexpr double kEncodeSecondsPerUnit = 1e-7;

/// Ceiling on those work units at any budget, deadline or not. Measured
/// peak RSS of the build (masked random n×n at 0.5, 5% don't-cares, same
/// host): 165 MB at 2.35e6 units (25²), 339 MB at 5.54e6 (30²), 652 MB at
/// 1.24e7 (35²), i.e. 50–70 bytes per unit. 2^24 units stay under 1.2 GB;
/// a 60² pattern needs ≈ 2e8 units (≈ 11 GB).
constexpr double kMaxEncodeUnits = 16777216.0;

/// One-hot CNF for "the 1-cells of m are addressable with <= bound
/// rectangles" under the chosen don't-care semantics.
class MaskedFormula {
 public:
  MaskedFormula(const MaskedMatrix& m, std::size_t bound,
                DontCareSemantics semantics)
      : m_(&m), bound_(bound) {
    // Cell universe: all Ones first, then all DontCares.
    for (std::size_t i = 0; i < m.rows(); ++i)
      for (std::size_t j = 0; j < m.cols(); ++j)
        if (m.at(i, j) == Cell::One) cells_.emplace_back(i, j);
    n_ones_ = cells_.size();
    for (std::size_t i = 0; i < m.rows(); ++i)
      for (std::size_t j = 0; j < m.cols(); ++j)
        if (m.at(i, j) == Cell::DontCare) cells_.emplace_back(i, j);

    cell_at_.assign(m.rows(), std::vector<std::int32_t>(m.cols(), -1));
    for (std::size_t e = 0; e < cells_.size(); ++e)
      cell_at_[cells_[e].first][cells_[e].second] =
          static_cast<std::int32_t>(e);

    vars_.resize(cells_.size());
    for (auto& sel : vars_) {
      sel.reserve(bound_);
      for (std::size_t t = 0; t < bound_; ++t)
        sel.push_back(sat::pos(solver_.new_var()));
    }
    const auto amo = bound_ > 8 ? sat::AmoEncoding::Commander
                                : sat::AmoEncoding::Pairwise;
    for (std::size_t e = 0; e < n_ones_; ++e)
      sat::add_exactly_one(solver_, vars_[e], amo);
    if (semantics == DontCareSemantics::AtMostOnce)
      for (std::size_t e = n_ones_; e < cells_.size(); ++e)
        sat::add_at_most_one(solver_, vars_[e], amo);

    // Eq. 1 closure over all non-Zero cross pairs.
    for (std::size_t a = 0; a < cells_.size(); ++a) {
      const auto [i, j] = cells_[a];
      for (std::size_t b = a + 1; b < cells_.size(); ++b) {
        const auto [i2, j2] = cells_[b];
        if (i == i2 || j == j2) continue;
        const bool zero_cross = m.at(i, j2) == Cell::Zero ||
                                m.at(i2, j) == Cell::Zero;
        if (zero_cross) {
          for (std::size_t t = 0; t < bound_; ++t)
            solver_.add_clause(vars_[a][t].neg(), vars_[b][t].neg());
        } else {
          const auto c1 = static_cast<std::size_t>(cell_at_[i][j2]);
          const auto c2 = static_cast<std::size_t>(cell_at_[i2][j]);
          for (std::size_t t = 0; t < bound_; ++t) {
            solver_.add_clause(vars_[a][t].neg(), vars_[b][t].neg(),
                               vars_[c1][t]);
            solver_.add_clause(vars_[a][t].neg(), vars_[b][t].neg(),
                               vars_[c2][t]);
          }
        }
      }
    }

    // Precedence symmetry breaking over the one-cells (don't-care-only
    // rectangles are droppable, so WLOG labels are opened by one-cells in
    // order).
    if (bound_ >= 2 && n_ones_ >= 2) {
      const std::size_t tmax = bound_ - 1;
      std::vector<std::vector<sat::Lit>> used(n_ones_ - 1);
      for (std::size_t e = 0; e + 1 < n_ones_; ++e) {
        for (std::size_t t = 0; t < tmax; ++t)
          used[e].push_back(sat::pos(solver_.new_var()));
      }
      for (std::size_t e = 0; e + 1 < n_ones_; ++e)
        for (std::size_t t = 0; t < tmax; ++t) {
          solver_.add_clause(vars_[e][t].neg(), used[e][t]);
          if (e > 0) solver_.add_clause(used[e - 1][t].neg(), used[e][t]);
        }
      for (std::size_t t = 1; t < bound_; ++t)
        solver_.add_clause(vars_[0][t].neg());
      for (std::size_t e = 1; e < n_ones_; ++e)
        for (std::size_t t = 1; t < bound_; ++t)
          solver_.add_clause(vars_[e][t].neg(), used[e - 1][t - 1]);
    }
  }

  sat::SolveResult solve(const sat::Budget& budget) {
    return solver_.solve({}, budget);
  }

  void narrow(std::size_t new_bound) {
    EBMF_EXPECTS(new_bound < bound_);
    for (std::size_t t = new_bound; t < bound_; ++t)
      for (std::size_t e = 0; e < cells_.size(); ++e)
        solver_.add_clause(vars_[e][t].neg());
    bound_ = new_bound;
  }

  /// Rectangles from the model: label t's members (ones and don't-cares).
  [[nodiscard]] Partition extract() const {
    Partition p;
    for (std::size_t t = 0; t < bound_; ++t) {
      Rectangle r{BitVec(m_->rows()), BitVec(m_->cols())};
      bool has_one = false;
      for (std::size_t e = 0; e < cells_.size(); ++e) {
        if (!solver_.model_true(vars_[e][t])) continue;
        r.rows.set(cells_[e].first);
        r.cols.set(cells_[e].second);
        if (e < n_ones_) has_one = true;
      }
      if (has_one) p.push_back(std::move(r));
    }
    return p;
  }

 private:
  const MaskedMatrix* m_;
  std::size_t bound_;
  std::size_t n_ones_ = 0;
  std::vector<std::pair<std::size_t, std::size_t>> cells_;
  std::vector<std::vector<std::int32_t>> cell_at_;
  std::vector<std::vector<sat::Lit>> vars_;
  sat::Solver solver_;
};

}  // namespace

CompletionResult solve_masked(const MaskedMatrix& m,
                              const CompletionOptions& options) {
  Stopwatch timer;
  CompletionResult result;

  // The packing phase inherits the solve-wide budget unless it has its own.
  RowPackingOptions packing = options.packing;
  if (!packing.budget.limited()) packing.budget = options.budget;

  // Upper bound: ignore don't-cares entirely (always valid) ...
  RowPackingResult packed = row_packing_ebmf(m.pattern(), packing);
  result.partition = std::move(packed.partition);
  // ... and, under Free semantics, also try the vacancy-aware packing that
  // lets rectangles extend across don't-cares (it may overlap on them, so
  // it is not admissible for AtMostOnce).
  if (options.semantics == DontCareSemantics::Free &&
      m.dont_care_count() > 0) {
    RowPackingResult masked = masked_row_packing(m, packing);
    if (masked.partition.size() < result.partition.size())
      result.partition = std::move(masked.partition);
  }
  result.heuristic_size = result.partition.size();
  if (result.partition.empty()) {  // no 1-cells at all
    result.proven_optimal = true;
    result.seconds = timer.seconds();
    return result;
  }

  result.lower_bound = masked_fooling_lower_bound(m);
  const std::size_t lower = std::max<std::size_t>(result.lower_bound, 1);
  if (result.partition.size() == lower || !options.use_sat) {
    result.proven_optimal = result.partition.size() == lower;
    result.seconds = timer.seconds();
    return result;
  }

  std::size_t b = result.partition.size() - 1;
  const auto cells =
      static_cast<double>(m.pattern().ones_count() + m.dont_care_count());
  const double units = cells * cells * static_cast<double>(b);
  if (units > kMaxEncodeUnits ||
      !options.budget.affords(kEncodeSecondsPerUnit * units)) {
    // The packing bracket stands: Bounded, not a formula we cannot hold
    // in memory or build in time.
    result.seconds = timer.seconds();
    return result;
  }
  MaskedFormula formula(m, b, options.semantics);
  while (b >= lower) {
    ++result.sat_calls;
    const auto answer = formula.solve(options.budget);
    if (answer == sat::SolveResult::Sat) {
      Partition p = formula.extract();
      EBMF_ENSURES(validate_masked(
          m, p, options.semantics == DontCareSemantics::AtMostOnce));
      result.partition = std::move(p);
      if (result.partition.size() <= lower) {
        result.proven_optimal = true;
        break;
      }
      const std::size_t next = result.partition.size() - 1;
      formula.narrow(next);
      b = next;
    } else if (answer == sat::SolveResult::Unsat) {
      result.proven_optimal = true;
      break;
    } else {
      break;
    }
    if (options.budget.exhausted()) break;
  }
  result.seconds = timer.seconds();
  return result;
}

}  // namespace ebmf::completion
