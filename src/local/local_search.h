#pragma once
/// \file local_search.h
/// \brief Anytime local search over rectangle covers — the strategy tier for
/// instances past the reach of the exact SAP loop (dense patterns beyond a
/// few hundred 1-cells, the 10^2–10^3-row qldpc-block and neutral-atom
/// regimes).
///
/// The search follows the restart-managed metaheuristic shape of the
/// NPBenchmark solvers: seed a valid cover from multi-trial row packing
/// (Algorithm 2), then improve it with tabu-guarded move operators —
///
///  * rectangle **merge**: two rectangles with identical row sets (or
///    identical column sets) consolidate into one, depth −1;
///  * **row relocation** ("row swap"): a thin rectangle's rows are
///    redistributed onto column-compatible neighbours until it empties,
///    depth −1;
///  * **split** perturbation: a tall rectangle is cut in two (depth +1) to
///    escape a stall;
///  * large-neighborhood **destroy-and-repair**: a few rectangles are torn
///    out (destroy selection is tabu-guarded against cycling), surviving
///    rectangles absorb rows of the hole, and a greedy pass re-covers the
///    residue; the move is kept only when depth does not grow.
///
/// Invariant: the working cover is a valid partition of M after every
/// accepted move, so the search can stop at *any* point — budget deadline,
/// cooperative cancel, or move cap — and return the best incumbent found.
/// Every improving incumbent is re-validated before it is recorded.

#include <cstdint>
#include <functional>
#include <vector>

#include "core/matrix.h"
#include "core/partition.h"
#include "support/budget.h"

namespace ebmf::local {

/// Tuning knobs of one search. Defaults suit 10^2–10^3-row patterns.
struct LocalSearchOptions {
  std::uint64_t seed = 1;  ///< Deterministic stream; equal seeds ⇒ equal runs.
  Budget budget;           ///< Shared deadline / cancel / move cap.
  /// Stop as soon as the incumbent depth reaches this value (pass the best
  /// proven lower bound to stop at certified optimality). 0 = never.
  std::size_t stop_at = 0;
  /// Hard cap on destroy-and-repair moves. 0 = unlimited when the budget
  /// carries any limit, else an internal default so the search terminates.
  std::uint64_t max_moves = 0;
  /// Row-packing seeding passes (shuffled row orders; best cover wins).
  std::size_t seed_trials = 4;
  /// Share of the cover destroyed per large-neighborhood move.
  double destroy_fraction = 0.12;
  /// Moves a destroyed rectangle stays tabu for re-destruction. 0 = auto.
  std::uint64_t tabu_tenure = 0;
  /// Non-improving moves before a split perturbation (and, at three times
  /// this, a fresh row-packing restart).
  std::uint64_t stall_limit = 60;
};

/// One improving incumbent, in emission order.
struct Incumbent {
  std::size_t depth = 0;   ///< |cover| when recorded.
  std::uint64_t move = 0;  ///< Destroy-and-repair moves executed so far.
  double seconds = 0.0;    ///< Wall-clock offset from search start.
};

/// Search counters (the report's `local.*` telemetry).
struct LocalSearchStats {
  std::uint64_t moves = 0;        ///< Destroy-and-repair moves executed.
  std::uint64_t accepted = 0;     ///< Moves kept (depth did not grow).
  std::uint64_t rejected = 0;     ///< Moves reverted.
  std::uint64_t merges = 0;       ///< Depth saved by rectangle merges.
  std::uint64_t relocations = 0;  ///< Rectangles emptied by row relocation.
  std::uint64_t absorptions = 0;  ///< Rows grown onto surviving rectangles.
  std::uint64_t splits = 0;       ///< Perturbation splits applied.
  std::uint64_t restarts = 0;     ///< Fresh packing reseeds after stalls.
  std::size_t seed_depth = 0;     ///< Depth of the initial packing cover.
  std::vector<Incumbent> incumbents;  ///< Improving incumbents, in order.
};

/// The best cover found plus the search record.
struct LocalSearchResult {
  Partition partition;  ///< Best incumbent — always a valid partition of M.
  LocalSearchStats stats;
  double seconds = 0.0;
  bool reached_stop = false;  ///< True when depth ≤ stop_at ended the search.
};

/// Called for every improving incumbent (already validated) with the
/// wall-clock offset at which it was found.
using IncumbentCallback =
    std::function<void(const Partition& incumbent, double seconds)>;

/// Run the anytime local search on `m`. The result partition is a valid
/// partition of `m` (also for an exhausted/cancelled budget — the best
/// incumbent so far is returned promptly). Deterministic for a fixed seed
/// when bounded by `max_moves` rather than wall-clock.
LocalSearchResult local_search_ebmf(const BinaryMatrix& m,
                                    const LocalSearchOptions& options,
                                    const IncumbentCallback& on_incumbent = {});

}  // namespace ebmf::local
