#pragma once
/// \file events.h
/// \brief Solver flight recorder (`ebmf::obs`): lock-free per-thread bounded
/// event rings capturing what the solver was *doing*, not just how long it
/// took.
///
/// PR 7's spans and histograms answer "how slow"; the flight recorder
/// answers "why": the last few hundred SAT restarts, learnt-DB reductions,
/// arena GCs, cache evictions, and pool
/// reconnects that led up to a slow or budget-cut reply. The record stream
/// is snapshotted into slow-request log lines, spliced onto
/// budget-exhausted replies, and queryable on demand via the
/// `{"op":"events"}` wire verb.
///
/// Design constraints, in order:
///
///  * **Near-zero overhead when nobody reads.** `emit()` is a handful of
///    relaxed atomic stores into a thread-local ring — no locks, no
///    allocation, no branching beyond the one enabled check. Hot solver
///    loops (SAT propagation) never emit per-iteration; they emit at
///    natural rare points (restarts, DB reductions, per-solve flushes), so
///    the recorder costs nanoseconds per *solve*, not per propagation.
///  * **Fixed 32-byte records.** `{tick, code+ring, a, b}` — a monotonic
///    microsecond tick, a 16-bit event code, the ring id, and two
///    uninterpreted u64 arguments whose meaning is per-code (documented on
///    the enum). No strings on the hot path.
///  * **Bounded, wrapping, per-thread.** Each thread writes its own ring
///    (single writer — the only atomicity needed is word-sized stores so a
///    concurrent snapshot reads torn *records*, never torn words). Rings
///    wrap, keeping the newest `kRingCapacity` records. A thread that
///    exits parks its ring on a free list for the next thread, so a
///    long-lived server's ring count is bounded by peak thread concurrency.
///
/// `EBMF_EVENTS=0` in the environment disables emission process-wide (the
/// bench overhead guard's baseline mode).

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace ebmf::obs {

/// What happened. The `a`/`b` argument meaning is per-code.
enum class EventCode : std::uint16_t {
  None = 0,
  SatRestart = 1,    ///< a = restart ordinal, b = conflicts so far.
  SatConflicts = 2,  ///< Per-solve flush: a = conflicts, b = propagations.
  SatReduceDb = 3,   ///< a = clauses deleted, b = learnts kept.
  SatArenaGc = 4,    ///< a = arena bytes before, b = bytes after.
  // 5-8 belonged to emitters since removed; they are not reused, so a
  // recorded dump keeps its meaning.
  CacheEvict = 9,    ///< a = bytes freed, b = entries remaining.
  PoolReconnect = 10,///< a = endpoint hash, b = failures so far.
};

/// Stable wire name of a code ("sat.restart", ...; "?" when unknown).
[[nodiscard]] const char* event_name(EventCode code) noexcept;

/// One flight-recorder record. 32 bytes, fixed.
struct EventRecord {
  std::uint64_t tick = 0;   ///< steady_micros() at emission.
  std::uint32_t code = 0;   ///< EventCode.
  std::uint32_t ring = 0;   ///< Id of the emitting thread's ring.
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};
static_assert(sizeof(EventRecord) == 32, "flight-recorder record is 32B");

/// One thread's bounded wrapping record buffer. Single writer (the owning
/// thread); any thread may snapshot. All fields are written with relaxed
/// word-sized atomics, so a racing snapshot can see a half-updated
/// *record* (mixed old/new words) but never a torn word — acceptable for
/// diagnostics, free for the writer.
class EventRing {
 public:
  /// Records kept per thread. Big enough to cover several seconds of the
  /// rarest interesting events; small enough that snapshots stay cheap.
  static constexpr std::size_t kRingCapacity = 256;

  void emit(EventCode code, std::uint64_t a, std::uint64_t b) noexcept;

  /// Copy out up to `kRingCapacity` newest records, oldest first.
  void snapshot(std::vector<EventRecord>* out) const;

  /// Total records ever written (wraparound tests).
  [[nodiscard]] std::uint64_t written() const noexcept {
    return head_.load(std::memory_order_relaxed);
  }

  std::uint32_t id = 0;  ///< Assigned at registration.

 private:
  struct Slot {
    std::atomic<std::uint64_t> tick{0};
    std::atomic<std::uint32_t> code{0};
    std::atomic<std::uint64_t> a{0};
    std::atomic<std::uint64_t> b{0};
  };
  Slot slots_[kRingCapacity];
  std::atomic<std::uint64_t> head_{0};  ///< Next write position (monotonic).
};

/// True unless EBMF_EVENTS=0/off disabled the recorder at process start.
[[nodiscard]] bool events_enabled() noexcept;

/// The calling thread's ring (registered on first use, recycled on exit).
[[nodiscard]] EventRing& thread_event_ring();

/// Record one event into the calling thread's ring. The hot-path entry:
/// a no-op when the recorder is disabled.
inline void emit_event(EventCode code, std::uint64_t a = 0,
                       std::uint64_t b = 0) noexcept {
  if (!events_enabled()) return;
  thread_event_ring().emit(code, a, b);
}

/// Merge every ring's newest records into one tick-ordered list (oldest
/// first), capped to the newest `max` records. The `{"op":"events"}` verb,
/// slow-log lines, and budget-exhausted replies all read through this.
[[nodiscard]] std::vector<EventRecord> snapshot_events(std::size_t max = 256);

/// `[{"tick":N,"event":"sat.restart","ring":R,"a":A,"b":B},...]`.
[[nodiscard]] std::string events_json(const std::vector<EventRecord>& records);

}  // namespace ebmf::obs
