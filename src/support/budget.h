#pragma once
/// \file budget.h
/// \brief The shared resource budget threaded through every solver.
///
/// Before the engine facade each backend carried its own budget fields
/// (`SapOptions::deadline` + `conflicts_per_call`, `CompletionOptions`
/// duplicates, search-node caps, a bare `Deadline` in the packing options).
/// Budget unifies them: one value type holding the wall-clock deadline, the
/// per-SAT-call conflict cap, the search-node cap, and an optional shared
/// cancellation flag for cooperative interruption across threads.
///
/// All solvers honour the anytime contract: an exhausted budget degrades the
/// optimality certificate, never the validity of the returned partition.

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "obs/progress.h"
#include "support/stopwatch.h"

namespace ebmf {

/// A resource budget for one solve. Default-constructed: unlimited.
///
/// Copies share the cancellation flag, so a Budget handed to worker threads
/// can be revoked from the owner via request_cancel().
struct Budget {
  Budget() = default;

  /// Budgets convert from a bare deadline (the pre-facade calling idiom).
  Budget(Deadline d) : deadline(d) {}  // NOLINT(google-explicit-constructor)

  /// A budget that expires `seconds` from now.
  static Budget after(double seconds) { return Budget(Deadline::after(seconds)); }

  Deadline deadline;                ///< Soft wall-clock limit.
  std::int64_t max_conflicts = -1;  ///< Per SAT decision call (<0 = unlimited).
  std::uint64_t max_nodes = 0;      ///< Node/move cap (0 = unlimited).
  /// Optional shared stop flag; null means "not cancellable".
  std::shared_ptr<std::atomic<bool>> cancel;
  /// Optional live-progress sink (obs/progress.h). Copies of a Budget
  /// share it — exactly like `cancel` — so a strategy can publish
  /// incumbent/gap frames mid-solve and the server's `{"op":"watch"}`
  /// subscribers see them. Null means "nobody is watching" and publishing
  /// helpers are no-ops.
  obs::ProgressSinkPtr progress;

  /// Publish one progress frame when a sink is attached (no-op otherwise).
  void publish_progress(obs::ProgressFrame frame) const {
    if (progress) progress->publish(std::move(frame));
  }

  /// Make this budget cancellable (idempotent) and return it for chaining.
  Budget& cancellable() {
    if (!cancel) cancel = std::make_shared<std::atomic<bool>>(false);
    return *this;
  }

  /// Ask every solver sharing this budget's flag to stop at the next
  /// checkpoint. No-op when not cancellable.
  void request_cancel() const {
    if (cancel) cancel->store(true, std::memory_order_relaxed);
  }

  /// True when cancellation was requested.
  [[nodiscard]] bool cancelled() const {
    return cancel && cancel->load(std::memory_order_relaxed);
  }

  /// True when work should stop now (cancelled or past the deadline).
  [[nodiscard]] bool exhausted() const {
    return cancelled() || deadline.expired();
  }

  /// True when `seconds` of uninterruptible work (say, building a SAT
  /// formula) fits in half of the remaining deadline. Unlimited deadlines
  /// afford anything: the caller asked for an exact answer at any cost.
  [[nodiscard]] bool affords(double seconds) const {
    return !deadline.limited() ||
           seconds < 0.5 * deadline.remaining_seconds();
  }

  /// True when any finite limit is set.
  [[nodiscard]] bool limited() const {
    return deadline.limited() || max_conflicts >= 0 || max_nodes > 0 ||
           cancel != nullptr;
  }
};

}  // namespace ebmf
