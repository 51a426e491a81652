#include "smt/sap.h"

#include <algorithm>

#include "core/fooling.h"
#include "core/preprocess.h"
#include "support/stopwatch.h"

namespace ebmf {

namespace {

void accumulate_stats(sat::SolverStats& into, const sat::SolverStats& from) {
  into.decisions += from.decisions;
  into.propagations += from.propagations;
  into.conflicts += from.conflicts;
  into.restarts += from.restarts;
  into.learned_clauses += from.learned_clauses;
  into.learned_literals += from.learned_literals;
  into.minimized_literals += from.minimized_literals;
  into.deleted_clauses += from.deleted_clauses;
  into.arena_gcs += from.arena_gcs;
  // A footprint gauge, not a counter: report the largest solver arena seen.
  into.arena_bytes = std::max(into.arena_bytes, from.arena_bytes);
}

/// Estimated seconds per encoding work unit. Both encoders emit
/// Θ(cells²·bound) clauses (Eq. 4 per cross pair, per label or bit), and
/// the constructor cannot be interrupted once started — so a deadline-
/// bounded solve must refuse formulas it cannot even build in time.
/// Calibration (one-hot, the default; 4-vCPU Xeon, g++ 12.2, Release):
/// 454 cells at bound 29 take 1.0 s (1.7e-7 s per unit), 760 at 23 take
/// 2.5 s (1.9e-7) and 782 at 39 take 5.1 s (2.1e-7). The binary encoder
/// builds 2–3× faster.
constexpr double kEncodeSecondsPerUnit = 2e-7;

/// Refuse the SMT phase when building the first formula would by itself
/// consume most of the remaining deadline (Budget::affords).
bool smt_encode_affordable(std::size_t cells, std::size_t bound,
                           const Budget& budget) {
  return budget.affords(kEncodeSecondsPerUnit * static_cast<double>(cells) *
                        static_cast<double>(cells) *
                        static_cast<double>(bound));
}

/// Branch-and-bound nodes the fooling-set search may spend before the SAT
/// phase: a count, not a time slice, so the certificate and the SAT work
/// after it never depend on the host. Every Table 1 instance that gets this
/// far settles in under 64 nodes. A node colours each of its candidates
/// with one pass over the words after it, about cells × words of work at
/// the root, so patterns wider than 64 words (4,096 cells) get
/// proportionally fewer nodes (fooling_nodes).
constexpr std::uint64_t kFoolingNodes = 4096;

/// Estimated seconds per bit of the fooling search's two clash tables,
/// (rows + cols) · cells bits, to build them: the part of the search that
/// polls no deadline. Calibration (4-vCPU Xeon, g++ 12.2, Release): the
/// 134×1000 component of a 1000² qldpc block pattern at occupancy 0.5
/// (seed 1, 37,390 cells) takes 0.03 s, 7e-10 s per bit; a random 1000²
/// at 0.5 (500,255 cells) takes 1.36 s, 1.4e-9.
constexpr double kFoolingSecondsPerTableBit = 1.4e-9;

/// True when building those tables fits the deadline (Budget::affords).
bool fooling_affordable(const BinaryMatrix& m, const Budget& budget) {
  const auto bits = static_cast<double>(m.ones_count()) *
                    static_cast<double>(m.rows() + m.cols());
  return budget.affords(kFoolingSecondsPerTableBit * bits);
}

/// The search's node allowance: kFoolingNodes up to 64 words, then scaled
/// down by the width, so nodes × words stays under 4096 × 64. The 1000²
/// component above (585 words) gets 448 nodes and certifies the same 100
/// in 0.13 s as 4096 nodes do in 0.3 s.
std::uint64_t fooling_nodes(std::size_t cells) {
  const std::uint64_t words = std::max<std::uint64_t>((cells + 63) / 64, 64);
  return kFoolingNodes * 64 / words;
}

/// Live progress (obs/progress.h) over the whole pattern: the bracket
/// summed over every component, republished each time one component's SAT
/// or UNSAT answer narrows its own. r_B is additive over components, so a
/// frame's gap is the pattern's and never widens. No-op without a sink.
struct Progress {
  const Budget& budget;
  Stopwatch clock{};
  std::size_t upper = 0;  ///< Sum of the components' partition sizes.
  std::size_t lower = 0;  ///< Sum of their certified lower bounds.
  std::uint64_t conflicts = 0;  ///< Of the components already searched.

  void publish(const char* phase, std::uint64_t more_conflicts = 0) const {
    if (!budget.progress) return;
    obs::ProgressFrame frame;
    frame.seconds = clock.seconds();
    frame.incumbent_depth = upper;
    frame.lower_bound = lower;
    frame.gap = upper > lower ? upper - lower : 0;
    frame.conflicts = conflicts + more_conflicts;
    frame.phase = phase;
    budget.publish_progress(std::move(frame));
  }
};

/// SMT phase on one bracketed matrix: the paper's sequential decreasing-b
/// loop (Algorithm 1, lines 2-10) on one incrementally narrowed formula,
/// stopping at the certified lower bound.
/// Preconditions: partition non-optimal, budget not exhausted.
void smt_phase_sequential(const BinaryMatrix& m, const SapOptions& options,
                          SapResult& result, Progress& progress) {
  Stopwatch phase;
  std::size_t b = result.partition.size() - 1;
  EBMF_ASSERT(b >= 1);  // size==rank handled by caller; rank >= 1
  smt::LabelFormula formula(m, b, options.encoder);
  result.smt_seconds += phase.seconds();  // encoding time counts too
  result.status = SapStatus::BoundedOnly;
  while (b >= result.certified_lower) {
    phase.restart();
    const sat::SolveResult answer = formula.solve(options.budget);
    const double call_seconds = phase.seconds();
    result.smt_seconds += call_seconds;
    result.smt_calls.push_back(SapSmtCall{b, answer, call_seconds});

    if (answer == sat::SolveResult::Sat) {
      Partition p = formula.extract_partition();
      EBMF_ENSURES(p.size() <= b);
      EBMF_ENSURES(static_cast<bool>(validate_partition(m, p)));
      progress.upper -= result.partition.size() - p.size();
      progress.publish("search", formula.solver().stats().conflicts);
      result.partition = std::move(p);
      // The extracted partition can use fewer than b rectangles; continue
      // below its size, not just below b.
      if (result.partition.size() <= result.certified_lower) {
        result.status = SapStatus::Optimal;
        break;
      }
      b = result.partition.size() - 1;
      formula.narrow(b);
    } else if (answer == sat::SolveResult::Unsat) {
      // No partition with <= b rectangles: the current one (size b+1 or the
      // heuristic's) is optimal.
      result.status = SapStatus::Optimal;
      progress.lower += b + 1 - result.certified_lower;
      progress.publish("search", formula.solver().stats().conflicts);
      result.certified_lower = b + 1;
      break;
    } else {
      break;  // budget exhausted: keep best-so-far, bounds stand
    }
    if (options.budget.exhausted()) break;
  }
  accumulate_stats(result.smt_stats, formula.solver().stats());
  progress.conflicts += result.smt_stats.conflicts;
  EBMF_ENSURES(result.partition.size() >= result.rank_lower);
}

/// Algorithm 1's bracket on one irreducible matrix: the rank ladder below,
/// row packing above, and the fooling certificate when they disagree. No
/// SAT call is made. Returns true when the bracket is still open and the
/// SMT phase may search it; otherwise `result.status` is final.
bool sap_bracket(const BinaryMatrix& m, const SapOptions& options,
                 SapResult& result) {
  result.status = SapStatus::Optimal;
  if (m.is_zero()) return false;

  // Lower bound: the rank ladder (Eq. 3).
  Stopwatch phase;
  result.rank_lower = real_rank(m);
  result.certified_lower = result.rank_lower;
  result.rank_seconds = phase.seconds();

  // Upper bound: row packing (Algorithm 2). Stop early on a rank match —
  // such a partition is already provably optimal.
  RowPackingOptions packing = options.packing;
  if (packing.stop_at == 0) packing.stop_at = result.rank_lower;
  if (options.budget.limited() && !packing.budget.limited())
    packing.budget = options.budget;
  phase.restart();
  RowPackingResult heuristic = row_packing_ebmf(m, packing);
  result.heuristic_seconds = phase.seconds();
  result.partition = std::move(heuristic.partition);
  result.heuristic_size = result.partition.size();
  EBMF_ENSURES(static_cast<bool>(validate_partition(m, result.partition)));

  if (result.partition.size() == result.rank_lower) return false;
  result.status = SapStatus::HeuristicOnly;
  if (!options.use_smt) return false;

  // Fooling-set certificate (paper §II): k 1-cells no rectangle can share
  // prove r_B ≥ k. Only a set above the rank helps; one as large as the
  // packing closes the bracket with no formula built. It runs ahead of
  // the SMT refusals below, which it does not need, behind its own
  // deadline gate.
  const std::size_t cells = m.ones_count();
  const bool refused = !fooling_affordable(m, options.budget);
  if (!refused) {
    phase.restart();
    Budget fooling_budget = options.budget;
    fooling_budget.max_nodes = fooling_nodes(cells);
    const CellSet fooling = max_fooling_set(m, fooling_budget,
                                            result.rank_lower,
                                            result.partition.size());
    result.fooling_seconds = phase.seconds();
    result.fooling_size = fooling.size();
    if (fooling.size() > result.rank_lower) {
      EBMF_ENSURES(is_fooling_set(m, fooling));
      result.certified_lower = fooling.size();
    }
  }
  if (result.certified_lower == result.partition.size()) {
    result.status = SapStatus::Optimal;
    return false;
  }
  // Past the cell guard no formula is built. The bracket is HeuristicOnly,
  // the same at any budget, only when the deadline neither refused the
  // fooling search nor stopped it. Otherwise a later attempt could tighten
  // it, so it is BoundedOnly, and a cached copy is retried under a larger
  // budget.
  if (options.smt_cell_limit != 0 && cells > options.smt_cell_limit) {
    if (refused || options.budget.exhausted())
      result.status = SapStatus::BoundedOnly;
    return false;
  }
  // The encoders are not interruptible; refuse a formula whose mere
  // construction would blow through the deadline and keep the bracket.
  result.status = SapStatus::BoundedOnly;
  return smt_encode_affordable(cells, result.partition.size() - 1,
                               options.budget) &&
         !options.budget.exhausted();
}

}  // namespace

SapResult sap_solve(const BinaryMatrix& m, const SapOptions& options) {
  Stopwatch total;
  // Exactness-preserving reductions: collapse duplicates, then split the
  // bipartite row/column graph into connected components; r_B is additive
  // over components and invariant under the collapse (see preprocess.h).
  // Without preprocessing the whole matrix is the one piece.
  DuplicateReduction reduction;
  std::vector<Component> components;
  if (options.preprocess) {
    reduction = reduce_duplicates(m);
    components = split_components(reduction.reduced);
  }
  const std::size_t pieces = options.preprocess ? components.size() : 1;
  const auto piece = [&](std::size_t c) -> const BinaryMatrix& {
    return options.preprocess ? components[c].matrix : m;
  };

  // Bracket every piece before any SAT call, so the first frame already
  // carries the whole pattern's bracket; then search the open ones.
  Progress progress{options.budget};
  std::vector<SapResult> subs(pieces);
  std::vector<bool> open(pieces);
  for (std::size_t c = 0; c < pieces; ++c) {
    open[c] = sap_bracket(piece(c), options, subs[c]);
    progress.upper += subs[c].partition.size();
    progress.lower += subs[c].certified_lower;
  }
  progress.publish("seed");
  for (std::size_t c = 0; c < pieces; ++c)
    if (open[c]) smt_phase_sequential(piece(c), options, subs[c], progress);
  progress.publish("final");

  if (!options.preprocess) {
    subs[0].total_seconds = total.seconds();
    return std::move(subs[0]);
  }
  SapResult aggregate;
  aggregate.status = SapStatus::Optimal;
  Partition reduced_partition;
  for (std::size_t c = 0; c < pieces; ++c) {
    const SapResult& sub = subs[c];
    Partition lifted =
        lift_partition(sub.partition, components[c], reduction.reduced.rows(),
                       reduction.reduced.cols());
    reduced_partition.insert(reduced_partition.end(),
                             std::make_move_iterator(lifted.begin()),
                             std::make_move_iterator(lifted.end()));
    aggregate.rank_lower += sub.rank_lower;
    aggregate.certified_lower += sub.certified_lower;  // r_B is additive
    aggregate.heuristic_size += sub.heuristic_size;
    aggregate.rank_seconds += sub.rank_seconds;
    aggregate.heuristic_seconds += sub.heuristic_seconds;
    aggregate.fooling_size += sub.fooling_size;
    aggregate.fooling_seconds += sub.fooling_seconds;
    aggregate.smt_seconds += sub.smt_seconds;
    aggregate.smt_calls.insert(aggregate.smt_calls.end(),
                               sub.smt_calls.begin(), sub.smt_calls.end());
    accumulate_stats(aggregate.smt_stats, sub.smt_stats);
    // A budget-cut piece leaves the whole answer budget-dependent, so
    // BoundedOnly outranks HeuristicOnly.
    if (sub.status == SapStatus::BoundedOnly ||
        aggregate.status == SapStatus::Optimal)
      aggregate.status = sub.status;
  }
  aggregate.partition = expand_partition(reduced_partition, reduction);
  aggregate.total_seconds = total.seconds();
  EBMF_ENSURES(
      static_cast<bool>(validate_partition(m, aggregate.partition)));
  EBMF_ENSURES(aggregate.partition.size() >= aggregate.rank_lower);
  return aggregate;
}

}  // namespace ebmf
