#pragma once
/// \file pool.h
/// \brief Persistent, pipelined connections to one `ebmf serve` backend,
/// with id-matched replies, health state, and exponential-backoff
/// reconnect — the router's transport layer.
///
/// Every request line the router forwards carries a router-assigned
/// `"id"`; the backend echoes it as the first member of the response line.
/// A pool keeps a small set of long-lived connections to its backend, each
/// with a dedicated reader thread: submit() registers the id in the
/// connection's pending map and writes the line (many client threads
/// pipeline over one connection — the backend answers a connection in
/// request order, but the id match makes the pool indifferent to order).
/// The reader completes the matching PendingReply as each response
/// arrives.
///
/// Failure semantics: when a connection breaks (EOF, reset, write error),
/// every reply pending *on that connection* is failed immediately — the
/// waiting router threads fail over to the next backend in the HRW order —
/// and the pool goes into backoff. maintain() (called by the router's
/// health thread, and opportunistically by submit()) retries the connect
/// with exponential backoff; first success marks the backend alive and the
/// ring re-includes it for its own keys.
///
/// Binary fast path: each fresh connection negotiates the frame protocol
/// with `{"op":"upgrade"}` (net::negotiate_upgrade, the handshake
/// net::Client uses too, with a bounded ack wait and JSON fallback — an
/// old backend that answers with an error keeps a perfectly good line
/// connection). The first negotiation fixes the pool's wire mode for its
/// lifetime, so every live connection speaks the same framing and the
/// router can render exactly one encoding per request: type-1 solve frames
/// on the hot path, JSON wrapped in type-4 frames for everything else
/// (admin verbs, puts, masked passthroughs). A later connection whose
/// negotiation disagrees (backend swapped for an incompatible build at the
/// same endpoint) is dropped and retried under backoff rather than
/// letting one pool speak two protocols.

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "obs/metrics.h"

namespace ebmf::router {

/// One awaited backend response. wait() blocks until the reply arrives,
/// the connection carrying it dies, or the timeout expires.
struct PendingReply {
  /// Outcome of one wait: the caller's next move.
  enum class Outcome {
    Reply,    ///< `line` holds the backend's response (id stripped).
    Broken,   ///< The connection died first — fail over and resubmit.
    TimedOut  ///< No reply within the window — treat as backend failure.
  };

  /// Block up to `seconds` (<= 0 waits forever).
  Outcome wait(double seconds);

  /// True when a reply landed (post-timeout double check: a response that
  /// raced the give-up must be served, not re-solved).
  bool has_reply();

  /// Re-arm for a resubmit after Broken/TimedOut.
  void reset();

  // Written by the pool reader under `mutex`.
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  bool broken = false;
  /// The reply: a JSON line with the id prefix stripped (frame_type 0 —
  /// line replies and type-4 JSON frames look identical here), or a raw
  /// type-2/3 frame payload the caller decodes with io/binary_io.h.
  std::uint8_t frame_type = 0;
  std::string line;
};

using PendingPtr = std::shared_ptr<PendingReply>;

/// Pool knobs (router options map 1:1; tests shrink the backoff).
struct PoolOptions {
  std::size_t connections = 1;     ///< Pipelined sockets to the backend.
  double backoff_base_ms = 50.0;   ///< First reconnect delay after a break.
  double backoff_max_ms = 2000.0;  ///< Backoff ceiling (doubling).
  /// Negotiate the binary frame protocol on fresh connections
  /// (`ebmf route --no-binary` turns it off fleet-wide).
  bool negotiate_binary = true;
  /// The owning router's aggregate series (`router.pool.dispatches`,
  /// `router.pool.failures`); null = not counted.
  obs::Counter* dispatches = nullptr;
  obs::Counter* failures = nullptr;
};

/// Point-in-time pool counters.
struct PoolStats {
  bool alive = false;            ///< At least one live connection.
  bool binary = false;           ///< Connections speak the frame protocol.
  std::uint64_t requests = 0;    ///< Lines submitted.
  std::uint64_t failures = 0;    ///< Connection-level breaks observed.
  std::size_t inflight = 0;      ///< Replies currently pending.
};

/// Connections to one backend. Thread-safe: submit() may be called from
/// every router connection thread concurrently.
class BackendPool {
 public:
  BackendPool(std::string host, std::uint16_t port, PoolOptions options);
  ~BackendPool();

  BackendPool(const BackendPool&) = delete;
  BackendPool& operator=(const BackendPool&) = delete;

  /// "host:port" — the ring id and the telemetry name.
  [[nodiscard]] const std::string& endpoint() const noexcept;

  [[nodiscard]] bool alive() const noexcept;

  /// True once the pool's connections negotiated the binary frame
  /// protocol (sticky for the pool's lifetime — see the file comment).
  /// The router checks this to pick which request encoding to render.
  [[nodiscard]] bool binary() const noexcept;

  /// Register `pending` under `id` and write `payload` on a live
  /// connection. `framed` says what `payload` is: complete frame bytes
  /// (binary pools only — a frame cannot be downgraded to a line), or a
  /// JSON line the pool newline-terminates (and, on a binary connection,
  /// wraps in a type-4 frame). The payload must already carry the id.
  /// False when the backend is down right now — the caller fails over; no
  /// partial registration survives a failed submit.
  bool submit(std::uint64_t id, const std::string& payload, bool framed,
              const PendingPtr& pending);

  /// Drop a registration whose waiter gave up (timeout): a late reply for
  /// the id is then discarded instead of completing a dead slot.
  void forget(std::uint64_t id);

  /// Health step: join finished readers and, when down and past the
  /// backoff, attempt one reconnect. Called periodically and from a
  /// failed submit.
  void maintain();

  /// Close every connection (pending replies fail) and join the readers.
  void shutdown();

  [[nodiscard]] PoolStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ebmf::router
