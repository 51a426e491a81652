#pragma once
/// \file label_formula.h
/// \brief The paper's SMT formulation of "r_B(M) ≤ b", lowered to CNF.
///
/// The paper encodes a function f : ones(M) → [0, b) (an uninterpreted
/// function over bit-vectors in Z3) with the single constraint family of
/// Eq. 4: for every ordered pair of distinct 1s e = (i,j), e' = (i',j'):
///
///     M[i][j'] = 0  :  f(e) ≠ f(e')
///     M[i][j'] = 1  :  f(e) = f(e')  ⇒  f(e) = f(i,j')
///
/// A model of f *is* a rectangle partition: each label class is closed
/// under corner completion (Eq. 1), hence exactly a rectangle.
///
/// Two CNF lowerings are provided:
///
///  * `Binary` — each f(e) is a ⌈log₂ b⌉-bit vector; (in)equalities become
///    difference/equality literals over the bits; a lexicographic side
///    constraint enforces f(e) < b. This mirrors the paper's bit-vector
///    usage most closely.
///  * `OneHot` — variable x[e][t] ⇔ "cell e is in rectangle t" with an
///    exactly-one row per cell; Eq. 4 becomes 2-/3-literal clauses per label.
///    Usually stronger for proving UNSAT (the expensive step the paper's
///    Fig. 4 highlights), especially with the precedence symmetry breaking.
///
/// The formula is *incremental*: Algorithm 1's line 8 ("add f(e) ≠ b")
/// is `narrow()`, which forbids the top label without rebuilding anything.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/matrix.h"
#include "core/partition.h"
#include "sat/dimacs.h"
#include "sat/solver.h"

namespace ebmf::smt {

/// Which CNF lowering of the label function to use.
enum class LabelEncoding {
  Binary,  ///< Bit-vector labels (paper-faithful).
  OneHot,  ///< Direct encoding, one selector per (cell, rectangle).
};

/// Options for formula construction.
struct EncoderOptions {
  LabelEncoding encoding = LabelEncoding::OneHot;
  /// Break label-permutation symmetry (first-cell-zero for Binary;
  /// precedence chain for OneHot). Sound: every partition is reachable up
  /// to relabeling.
  bool symmetry_breaking = true;
};

/// Statistics about the constructed CNF.
struct FormulaStats {
  std::size_t variables = 0;
  std::size_t clauses = 0;
  std::size_t cells = 0;            ///< 1s of the matrix.
  std::size_t neq_pairs = 0;        ///< Pairs constrained f(e) ≠ f(e').
  std::size_t implication_pairs = 0;  ///< Eq.-4 corner implications added.
};

/// The decision problem "does M admit an EBMF with at most bound()
/// rectangles?", solvable incrementally with a decreasing bound.
class LabelFormula {
 public:
  /// Build the formula for `r_B(m) ≤ initial_bound`.
  /// Preconditions: initial_bound ≥ 1; m has at least one 1.
  LabelFormula(const BinaryMatrix& m, std::size_t initial_bound,
               const EncoderOptions& options = {});

  LabelFormula(const LabelFormula&) = delete;
  LabelFormula& operator=(const LabelFormula&) = delete;

  /// Current bound b.
  [[nodiscard]] std::size_t bound() const noexcept { return bound_; }

  /// Decide satisfiability at the current bound within `budget`.
  sat::SolveResult solve(const sat::Budget& budget = {});

  /// Extract the partition from the last Sat model (empty label classes are
  /// dropped, so the result can be smaller than bound()).
  /// Precondition: the last solve() returned Sat.
  [[nodiscard]] Partition extract_partition() const;

  /// Lower the bound to `new_bound` by forbidding labels new_bound..bound-1
  /// (Algorithm 1, line 8). Precondition: 1 ≤ new_bound < bound().
  void narrow(std::size_t new_bound);

  /// Encoding statistics (variables/clauses as of construction).
  [[nodiscard]] const FormulaStats& stats() const noexcept { return stats_; }

  /// Access the underlying solver (cumulative search statistics).
  [[nodiscard]] const sat::Solver& solver() const noexcept { return solver_; }

  /// Snapshot the formula as a plain CNF (for DIMACS export / external
  /// solvers). Reflects the current bound, including narrow() clauses.
  [[nodiscard]] sat::Cnf export_cnf() const;

 private:
  void build_onehot();
  void build_binary();
  void forbid_label_onehot(std::size_t t);
  void forbid_label_binary(std::size_t value);
  [[nodiscard]] std::size_t label_of(std::size_t cell) const;

  /// One-sided "bits differ at k" literal for the cross-row pair (a, b),
  /// created lazily and cached.
  std::vector<sat::Lit>& diff_lits(std::size_t a, std::size_t b);
  /// One-sided "labels equal" literal for the same-row pair (a, b),
  /// created lazily and cached.
  sat::Lit eq_lit(std::size_t a, std::size_t b);

  const BinaryMatrix m_;
  std::vector<std::pair<std::size_t, std::size_t>> cells_;
  std::vector<std::vector<std::int32_t>> cell_index_;  // (i,j) -> cell or -1
  EncoderOptions options_;
  std::size_t bound_ = 0;
  std::size_t nbits_ = 0;  // Binary encoding width

  sat::Solver solver_;
  // OneHot: selector[e][t]. Binary: bits[e][k].
  std::vector<std::vector<sat::Lit>> vars_;
  // Lazy caches keyed by pair (a<b) packed as a*#cells+b.
  std::unordered_map<std::uint64_t, std::vector<sat::Lit>> diff_cache_;
  std::unordered_map<std::uint64_t, sat::Lit> eq_cache_;

  FormulaStats stats_;
};

}  // namespace ebmf::smt
