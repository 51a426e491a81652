#pragma once
/// \file solver.h
/// \brief A conflict-driven clause-learning (CDCL) SAT solver.
///
/// This is the library's replacement for the paper's Z3 backend: the SMT
/// layer (src/smt) lowers the paper's uninterpreted-function/bit-vector
/// formulation to CNF and drives this solver. The design is the classic
/// MiniSat architecture:
///
///  * two-watched-literal unit propagation with blocker literals,
///  * first-UIP conflict analysis with recursive clause minimization,
///  * exponential VSIDS variable activities with a heap decision order,
///  * phase saving,
///  * Luby-sequence restarts,
///  * LBD/activity-based learned-clause reduction,
///  * incremental use: add clauses/variables between solve() calls (how
///    Algorithm 1's decreasing-b loop narrows one formula) and pass
///    assumption literals.
///
/// Clause storage is a single contiguous arena (sat/arena.h): literals live
/// inline behind a packed header, clause references are arena offsets, and
/// watch lists are flat per-literal buckets — propagate() walks cache-dense
/// memory instead of chasing a heap vector per clause. reduce_db() compacts
/// the arena and rewrites all live references (watchers, reasons, learnt
/// list), so the arena never accumulates dead clauses.
///
/// Solving is budgetable (conflict count and/or wall-clock deadline, plus a
/// shared cancellation flag checked both per-conflict and per-propagation
/// block, so cancellation lands promptly even on propagation-heavy
/// instances); an exhausted budget yields SolveResult::Unknown, which the
/// SAP driver treats as "keep the best heuristic solution" — the paper's
/// anytime behaviour.

#include <cstdint>
#include <vector>

#include "sat/arena.h"
#include "sat/types.h"
#include "support/budget.h"
#include "support/stopwatch.h"

namespace ebmf::sat {

/// Resource budget for one solve() call (the library-wide shared type;
/// max_conflicts and deadline apply here, and the cancellation flag is
/// honoured at the same checkpoints as the deadline).
using Budget = ebmf::Budget;

/// Counters describing the work a solve() performed (cumulative).
struct SolverStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned_clauses = 0;
  std::uint64_t learned_literals = 0;
  std::uint64_t minimized_literals = 0;  ///< Removed by clause minimization.
  std::uint64_t deleted_clauses = 0;
  std::uint64_t arena_gcs = 0;    ///< Compacting collections run.
  std::uint64_t arena_bytes = 0;  ///< Arena footprint after the last solve.
};

/// CDCL SAT solver. See file comment for architecture.
///
/// Copyable: all state lives in flat value containers, so a copy is an
/// independent solver with the same clauses, learnt set, and activities.
class Solver {
 public:
  Solver();

  /// Create a fresh variable and return it. Variables are dense from 0.
  Var new_var();

  /// Number of variables created.
  [[nodiscard]] std::size_t num_vars() const noexcept { return assigns_.size(); }

  /// Number of live problem (non-learned) clauses.
  [[nodiscard]] std::size_t num_clauses() const noexcept { return n_problem_; }

  /// Add a clause (disjunction). Returns false if the solver is already in
  /// an unsatisfiable top-level state after the addition (e.g. empty clause
  /// or contradicting units); subsequent solve() calls will return Unsat.
  /// Duplicate literals are merged and tautologies are dropped.
  bool add_clause(Clause lits);

  /// Convenience overloads.
  bool add_clause(Lit a) { return add_clause(Clause{a}); }
  bool add_clause(Lit a, Lit b) { return add_clause(Clause{a, b}); }
  bool add_clause(Lit a, Lit b, Lit c) { return add_clause(Clause{a, b, c}); }

  /// Decide satisfiability under `assumptions` within `budget`.
  SolveResult solve(const std::vector<Lit>& assumptions = {},
                    const Budget& budget = {});

  /// Value of `l` in the model of the last Sat answer.
  /// Precondition: previous solve() returned Sat.
  [[nodiscard]] bool model_true(Lit l) const {
    EBMF_EXPECTS(has_model_);
    EBMF_EXPECTS(static_cast<std::size_t>(l.var()) < model_.size());
    return lit_value(model_[static_cast<std::size_t>(l.var())], l.sign()) ==
           LBool::True;
  }

  /// True when a model from a previous Sat answer is available.
  [[nodiscard]] bool has_model() const noexcept { return has_model_; }

  /// Assumptions that were proven jointly unsatisfiable by the last Unsat
  /// answer (a subset of the passed assumptions; the "final conflict").
  [[nodiscard]] const std::vector<Lit>& unsat_core() const noexcept {
    return conflict_core_;
  }

  /// Cumulative statistics.
  [[nodiscard]] const SolverStats& stats() const noexcept { return stats_; }

  /// True once the clause set has been proven unsatisfiable without
  /// assumptions; all future solves are Unsat.
  [[nodiscard]] bool in_conflict() const noexcept { return !ok_; }

  /// Snapshot the current problem clauses (plus level-0 units) as a CNF,
  /// e.g. for DIMACS export to external solvers. Learned clauses are
  /// excluded (they are implied).
  [[nodiscard]] std::vector<Clause> problem_clauses() const;

 private:
  static constexpr CRef kNoReason = kCRefUndef;

  /// Watchers of binary clauses carry this flag in their CRef: the blocker
  /// is the whole rest of the clause, so propagate() can enqueue/conflict
  /// without touching the arena at all.
  static constexpr CRef kBinaryBit = 0x80000000u;

  // ---- core CDCL -----------------------------------------------------
  /// Branch-free literal truth: one byte load from the per-literal mirror
  /// of assigns_ (the propagate() hot path's most frequent operation).
  [[nodiscard]] LBool value(Lit l) const noexcept {
    return static_cast<LBool>(lit_val_[static_cast<std::size_t>(l.idx())]);
  }
  [[nodiscard]] LBool value(Var v) const noexcept {
    return assigns_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] int decision_level() const noexcept {
    return static_cast<int>(trail_lim_.size());
  }

  void attach_clause(CRef c);
  void enqueue(Lit l, CRef reason);
  /// The binary fast path in propagate() enqueues without swapping the
  /// implied literal to position 0; normalize lazily before conflict
  /// analysis reads a reason clause (which skips position 0 as "the
  /// implied literal").
  void normalize_reason(CRef c, Lit implied);
  CRef propagate();
  void analyze(CRef confl, Clause& out_learnt, int& out_btlevel,
               std::uint32_t& out_lbd);
  bool lit_redundant(Lit l, std::uint32_t ab_levels);
  void analyze_final(Lit p, std::vector<Lit>& out_core);
  void cancel_until(int level);
  Lit pick_branch_lit();
  SolveResult search(std::int64_t conflict_budget, const Budget& budget);
  void reduce_db();
  void garbage_collect();
  void rebuild_watches();

  // VSIDS / heap
  void var_bump(Var v);
  void var_decay_all() { var_inc_ /= kVarDecay; }
  void clause_bump(CRef c);
  void heap_insert(Var v);
  Var heap_pop_max();
  void heap_sift_up(std::size_t i);
  void heap_sift_down(std::size_t i);
  [[nodiscard]] bool heap_less(Var a, Var b) const noexcept {
    return activity_[static_cast<std::size_t>(a)] <
           activity_[static_cast<std::size_t>(b)];
  }

  static std::uint64_t luby(std::uint64_t i);

  // ---- state ----------------------------------------------------------
  ClauseArena arena_;          // all clauses (problem + learned), inline
  std::vector<CRef> learnts_;  // refs of live learned clauses
  std::size_t n_problem_ = 0;  // live problem clause count
  WatchLists watches_;         // flat buckets indexed by Lit::idx()

  std::vector<LBool> assigns_;  // per var
  /// Per-literal truth mirror of assigns_ (False/True/Undef as uint8),
  /// updated in enqueue()/cancel_until(); makes value(Lit) one byte load.
  std::vector<std::uint8_t> lit_val_;
  std::vector<char> polarity_;  // saved phase per var (1 = last was true)
  std::vector<CRef> reason_;    // per var
  std::vector<int> level_;      // per var
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  std::size_t qhead_ = 0;

  std::vector<double> activity_;  // per var
  double var_inc_ = 1.0;
  static constexpr double kVarDecay = 0.95;
  float clause_inc_ = 1.0f;
  static constexpr float kClauseDecay = 0.999f;
  std::vector<std::int32_t> heap_pos_;  // var -> heap index or -1
  std::vector<Var> heap_;               // max-heap by activity

  std::vector<char> seen_;          // per var scratch for analyze()
  std::vector<Lit> to_clear_;       // seen_ marks to undo after analyze()
  std::vector<Lit> analyze_stack_;  // DFS stack for lit_redundant()

  std::vector<Lit> assumptions_;
  std::vector<Lit> conflict_core_;

  double max_learnts_ = 0;  // reduceDB threshold (grows geometrically)
  /// Next stats_.propagations value at which search() re-checks the budget
  /// (deadline + cancellation) — keeps cancellation latency bounded even
  /// when conflicts are rare (satellite of the bound-race work).
  std::uint64_t next_budget_check_ = 0;
  static constexpr std::uint64_t kBudgetCheckProps = 4096;

  bool ok_ = true;
  bool has_model_ = false;
  std::vector<LBool> model_;

  SolverStats stats_;
};

}  // namespace ebmf::sat
