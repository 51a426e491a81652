#pragma once
/// \file progress.h
/// \brief Live solve progress (`ebmf::obs`): the `ProgressSink` a strategy
/// publishes `{incumbent_depth, lower_bound, gap, conflicts}` frames
/// into mid-solve, and watchers subscribe to.
///
/// The sink travels inside `Budget` (support/budget.h), so every backend
/// that already honours the shared budget can publish without new plumbing:
/// SAP (smt/sap.h) publishes the whole pattern's certified bracket once
/// every component is bracketed, again whenever a SAT or UNSAT answer
/// narrows it, and once at the end. The server
/// registers the sink of each in-flight request under its wire id;
/// `{"op":"watch","id":N}` runs a stream thread that waits on the sink and
/// sends one JSONL frame per publish until the solve finishes.
///
/// Publishing never blocks the solver on a watcher: it only stores the
/// frame and wakes the waiters; the stream threads do the socket writes.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ebmf::obs {

/// One point of an in-flight solve's trajectory.
struct ProgressFrame {
  std::uint64_t seq = 0;          ///< Publish ordinal (assigned by the sink).
  double seconds = 0.0;           ///< Wall-clock offset from solve start.
  std::uint64_t incumbent_depth = 0;  ///< Best valid depth so far (0 = none).
  std::uint64_t lower_bound = 0;      ///< Best certified lower bound.
  std::uint64_t gap = 0;          ///< incumbent_depth - lower_bound (0 floor).
  std::uint64_t conflicts = 0;    ///< SAT conflicts so far (0 when n/a).
  std::string phase;              ///< "seed", "search", "final".
};

/// Render one frame as a JSON object (the watch stream's line body).
[[nodiscard]] std::string progress_frame_json(const ProgressFrame& frame);

/// Thread-safe frame buffer with a wakeup per publish. One per in-flight
/// solve; shared by shared_ptr between the publishing strategy (via Budget)
/// and watchers.
class ProgressSink {
 public:
  /// Frames retained for late subscribers (the newest kKeep).
  static constexpr std::size_t kKeep = 256;

  /// Stamp `seq`, retain the frame, and wake the waiters.
  void publish(ProgressFrame frame);

  /// Mark the solve finished and wake every waiter. Idempotent.
  void finish();

  [[nodiscard]] bool finished() const;

  /// Frames retained so far, oldest first.
  [[nodiscard]] std::vector<ProgressFrame> frames() const;

  /// The newest frame (default-constructed when none published yet).
  [[nodiscard]] ProgressFrame last() const;

  /// Total frames ever published.
  [[nodiscard]] std::uint64_t published() const;

  /// Block up to `seconds` until more than `seen` frames were published or
  /// the solve finished; true when finished. Watch handlers poll this in a
  /// loop so they can also notice a dead subscriber socket between waits.
  bool wait_published(std::uint64_t seen, double seconds) const;

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_ = make_impl();
  static std::shared_ptr<Impl> make_impl();
};

using ProgressSinkPtr = std::shared_ptr<ProgressSink>;

}  // namespace ebmf::obs
