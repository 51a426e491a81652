#pragma once
/// \file completion_solver.h
/// \brief Minimum-rectangle addressing with don't-cares (binary matrix
/// completion; paper §VI future work).
///
/// The SAT encoding extends the one-hot label formula: cells that must be
/// addressed carry an exactly-one selector row; don't-care cells carry free
/// selectors (optionally at-most-one under completion semantics). The
/// rectangle-closure constraints of Eq. 1 then range over 1-cells and
/// don't-cares alike: two cells sharing a rectangle force their crossing
/// cells into it, and a crossing 0 forbids sharing.
///
/// Upper bound / anytime solution: row packing on the pattern with
/// don't-cares read as 0 (always valid — DC cells simply go unaddressed).
/// The solver then decreases the bound until UNSAT or budget exhaustion;
/// the don't-cares can push the optimum *below* rank_ℝ(pattern), so no rank
/// cutoff applies (the loop runs to b = 1).

#include "completion/masked.h"
#include "core/row_packing.h"
#include "sat/solver.h"

namespace ebmf::completion {

/// How don't-care cells may be covered.
enum class DontCareSemantics {
  Free,        ///< Any number of covering rectangles (vacancy-exact).
  AtMostOnce,  ///< At most one (exact partition of a completion).
};

/// Options for solve_masked.
struct CompletionOptions {
  DontCareSemantics semantics = DontCareSemantics::Free;
  RowPackingOptions packing;  ///< For the upper-bound phase.
  Budget budget;              ///< Shared deadline/conflict/cancel budget.
  bool use_sat = true;
};

/// Result of solve_masked.
struct CompletionResult {
  Partition partition;       ///< Valid under the chosen semantics.
  bool proven_optimal = false;
  std::size_t heuristic_size = 0;  ///< Upper bound from DC-as-0 packing.
  /// Greedy fooling-set-style lower bound valid under don't-cares: 1-cells
  /// that pairwise cannot share a rectangle because a crossing cell is a
  /// hard Zero. Certified ≤ r_B under either semantics; 0 iff no 1-cells.
  std::size_t lower_bound = 0;
  /// SAT decision calls made; 0 when the bracket closed without one or
  /// the formula was refused (memory ceiling or deadline).
  std::size_t sat_calls = 0;
  double seconds = 0.0;
};

/// Minimize the number of rectangles addressing `m`'s 1-cells, exploiting
/// don't-cares. Postcondition: validate_masked(m, result.partition,
/// semantics==AtMostOnce) holds; empty partition iff no 1-cells.
CompletionResult solve_masked(const MaskedMatrix& m,
                              const CompletionOptions& options = {});

}  // namespace ebmf::completion
