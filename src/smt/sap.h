#pragma once
/// \file sap.h
/// \brief SAP ("SMT and packing") — Algorithm 1 of the paper, the library's
/// headline entry point.
///
/// 1. Row packing produces a valid EBMF P (upper bound |P| ≥ r_B).
/// 2. The rank ladder (linalg/rank.h) gives the lower bound (Eq. 3): sound
///    always, and exactly rank_ℝ(M) whenever that is ≤ 22.
/// 3. If they meet, P is optimal with no search at all.
/// 4. Otherwise a fooling-set search (core/fooling.h) on a fixed node
///    allowance seeks more than rank_lower cells no rectangle can share:
///    |P| of them prove P optimal with no formula built; fewer, but above
///    the rank, become the certified lower bound L. It needs no formula,
///    so it also runs where the SMT phase is refused (cell limit, encoding
///    cost), whenever building its clash tables fits the deadline.
/// 5. Otherwise the SMT formula for b = |P|−1 is built and solved with
///    decreasing b (narrowing incrementally) until UNSAT or b < L.
///
/// The procedure is *anytime*: P always holds the best valid partition
/// found so far, so an expired deadline or exhausted conflict budget
/// degrades the optimality certificate, never the solution's validity.
/// Steps 1–4 run on every component before any SAT call; with a progress
/// sink on the budget, sap_solve publishes the whole pattern's bracket
/// then ("seed"), on every SAT or UNSAT answer that narrows it ("search"),
/// and once at the end ("final").

#include <cstdint>
#include <vector>

#include "core/bounds.h"
#include "core/partition.h"
#include "core/row_packing.h"
#include "smt/label_formula.h"

namespace ebmf {

/// How strong the answer's optimality claim is.
enum class SapStatus {
  Optimal,        ///< |P| = r_B proven (rank, fooling set or UNSAT).
  BoundedOnly,    ///< Search ended by budget; certified_lower ≤ r_B ≤ |P|.
  HeuristicOnly,  ///< SMT disabled or over smt_cell_limit, the bracket
                  ///< shaped by no deadline; same bracket as above.
};

/// Options for sap_solve.
struct SapOptions {
  RowPackingOptions packing;    ///< Heuristic phase configuration.
  smt::EncoderOptions encoder;  ///< CNF lowering choices.
  /// Shared budget: deadline over the whole solve, max_conflicts per SAT
  /// decision call, plus the optional cancellation flag.
  Budget budget;
  bool use_smt = true;          ///< false → heuristic only.
  /// Skip building the SMT formula when the matrix has more 1-cells than
  /// this (the formula is quadratic in cells; the paper's 100×100 set is
  /// "too large for SMT"). 0 disables the guard.
  std::size_t smt_cell_limit = 0;
  /// Apply the exactness-preserving reductions of core/preprocess.h
  /// (duplicate collapse + connected-component split) and solve each piece
  /// independently. Never changes the answer; often shrinks the SMT
  /// formula enough to make sparse 100×100 instances exactly solvable.
  bool preprocess = true;
  /// Ignored: the SMT phase is the paper's sequential decreasing-b loop.
  /// The field once set the width of a parallel bound race; it stays
  /// declared only until the benchmark harness stops assigning it.
  std::size_t probes = 1;
};

/// Timing/record of one SMT decision call inside SAP.
struct SapSmtCall {
  std::size_t bound = 0;          ///< b queried ("r_B ≤ b?").
  sat::SolveResult result = sat::SolveResult::Unknown;
  double seconds = 0.0;
};

/// Result of sap_solve.
struct SapResult {
  Partition partition;            ///< Best valid EBMF found (always valid).
  SapStatus status = SapStatus::HeuristicOnly;
  std::size_t rank_lower = 0;     ///< Eq. 3 rank ladder: ≤ rank_ℝ(M).
  /// Tightest certified lower bound on r_B: rank_lower, raised to the
  /// fooling set's size when that is larger, and to b+1 by every UNSAT
  /// answer at bound b.
  std::size_t certified_lower = 0;
  std::size_t heuristic_size = 0; ///< |P| after the packing phase.
  /// Fooling set found before the SAT phase (0 = search not run).
  std::size_t fooling_size = 0;
  double rank_seconds = 0.0;
  double heuristic_seconds = 0.0;
  double fooling_seconds = 0.0;
  double smt_seconds = 0.0;       ///< Total across all decision calls.
  double total_seconds = 0.0;
  std::vector<SapSmtCall> smt_calls;
  sat::SolverStats smt_stats;     ///< Cumulative SAT search statistics.

  /// Depth of the addressing schedule = |partition|.
  [[nodiscard]] std::size_t depth() const noexcept { return partition.size(); }

  /// True when the result is certified depth-optimal.
  [[nodiscard]] bool proven_optimal() const noexcept {
    return status == SapStatus::Optimal;
  }
};

/// Run SAP (Algorithm 1) on `m`.
/// Postcondition: result.partition is a valid EBMF of `m`
/// (empty iff `m` is the zero matrix) and |partition| ≥ rank_lower.
SapResult sap_solve(const BinaryMatrix& m, const SapOptions& options = {});

}  // namespace ebmf
