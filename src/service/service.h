#pragma once
/// \file service.h
/// \brief `ebmf::service` — the long-lived line-JSON solver server.
///
/// The paper's FTQC workload is a stream of near-duplicate addressing
/// patterns; the one-shot CLI re-pays process start, pattern load, and the
/// full solve for each. The service keeps one engine (and its canonical
/// result cache, see cache.h) alive behind a TCP socket:
///
///  * **Protocol.** Newline-delimited JSON, one request per line in, one
///    response per line out (schema: io/request_io.h). Responses on a
///    connection are written in request order, so clients may pipeline
///    freely. A malformed line yields `{"error": "..."}` and the
///    connection stays open. A connection may upgrade to the binary frame
///    protocol (net/frame.h, io/binary_io.h) with `{"op":"upgrade"}`; the
///    line protocol stays the default for old clients and `nc`.
///  * **Concurrency.** The server is a handler on the tier host
///    (net/host.h), which owns the epoll reactor (net/reactor.h): a few
///    event-loop threads own all sockets, and complete messages are
///    micro-batched to a worker pool — at most one batch in flight per
///    connection, so pipelined replies stay in request order — then
///    through Engine::solve_batch, which fans them across the engine's
///    thread pool. The host's global in-flight limit (admission control)
///    sheds load with an `overloaded` error instead of queueing
///    unboundedly, and every request runs under a deadline — its own
///    `budget` capped by the server ceiling — so a slot is always
///    reclaimed.
///  * **Cancellation.** Each connection owns a shared Budget cancellation
///    flag threaded into every solver it runs. The reactor reports hard
///    socket deaths (RST/EPOLLERR — not an orderly half-close: one-shot
///    clients legitimately FIN and then read) the moment they happen,
///    which flips the flag mid-solve (the anytime contract turns that into
///    a fast, still-valid return), and stop()/SIGTERM flips all of them
///    for a graceful drain: accepted requests are answered, then
///    connections close.
///
///  * **Counters.** Every server series (`server.requests`, `.errors`,
///    `.rejected`, `.puts`, ...) lives once, in the host's instance
///    registry: the stats verb, stats() and the Prometheus exposition read
///    the same numbers, and two servers in one process count apart.
///
/// Server is usable in-process (tests bind port 0 and connect with
/// Client); serve_forever() is the `ebmf serve` entry point, the host's
/// signal loop wiring SIGTERM/SIGINT to the drain.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "net/host.h"
#include "net/net.h"
#include "service/cache.h"

namespace ebmf::service {

/// Knobs of one server instance (CLI flags map 1:1). The reactor,
/// admission, sink and `--cache-file` knobs are net::HostOptions'.
struct ServerOptions : net::HostOptions {
  ServerOptions() { port = 7421; }

  std::size_t threads = 0;  ///< solve_batch/split workers (0 = hardware).
  double cache_mb = 64.0;   ///< Canonical result cache budget (0 = off).
  /// Per-request deadline ceiling in seconds. A request's own `budget` is
  /// capped by this; requests without one get exactly this. 0 = no ceiling
  /// (trusted clients only).
  double budget_ceiling_seconds = 10.0;
  /// Cluster announcement (`--announce=HOST:PORT[,HOST:PORT...]`): when
  /// non-empty, the server dials each listed router after binding, sends
  /// `{"op":"join"}` with its own endpoint, heartbeats every
  /// `heartbeat_ms`, re-joins after an eviction or a router restart (with
  /// backoff), and sends a best-effort `{"op":"leave"}` on stop(). A
  /// router fleet is listed in full: heartbeats keep every router's local
  /// liveness view fresh, so a follower taking the lease already knows
  /// this backend is alive. Empty = no control plane.
  std::string announce;
  /// The endpoint announced to the router ("" = host:bound-port — override
  /// when the router must dial a different address than the bind one).
  std::string advertise;
  double heartbeat_ms = 500.0;  ///< Announce heartbeat cadence.
};

/// Point-in-time server counters (drain report, tests), read from the
/// server's instance registry (net/host.h) like the stats verb.
struct ServerStats {
  std::uint64_t connections = 0;  ///< Accepted since start.
  std::uint64_t requests = 0;     ///< Lines answered with a report.
  std::uint64_t errors = 0;       ///< Lines answered with an error.
  std::uint64_t rejected = 0;     ///< Requests shed by admission control.
  std::uint64_t puts = 0;         ///< Replica cache writes accepted.
  std::uint64_t joins_sent = 0;   ///< Successful join announcements.
  std::uint64_t join_rejects = 0; ///< Join attempts the router refused.
};

/// A long-lived solver server. Thread-safe; start() once, stop() once
/// (destructor stops too).
class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, and launch the accept/watchdog threads. Throws
  /// std::runtime_error (with errno text) when the address is unusable.
  void start();

  /// Graceful drain: stop accepting, cancel in-flight budgets, answer
  /// what was accepted, join every thread. Idempotent.
  void stop();

  /// True between start() and stop().
  [[nodiscard]] bool running() const noexcept;

  /// The port actually bound (resolves port 0 after start()).
  [[nodiscard]] std::uint16_t port() const noexcept;

  [[nodiscard]] ServerStats stats() const;

  /// The engine serving requests (its cache() holds the hit counters).
  [[nodiscard]] engine::Engine& engine() noexcept;

  [[nodiscard]] const ServerOptions& options() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// A minimal blocking client for the wire protocol: one connection at a
/// time, line round-trips. Used by `ebmf client`, the tests, and the
/// smoke/drill jobs.
///
/// Resilience (HA, PR 8): the client holds an *address list* — any mix of
/// routers and backends — and fails over across it:
///
///  * **Connect/reset failover.** A refused dial or mid-flight reset
///    rotates to the next address; full rotations back off exponentially
///    (capped, jittered) so a briefly-dark fleet is ridden out rather than
///    hammered. round_trip() re-sends its line over the fresh connection.
///  * **Redirect chasing.** A follower's epoch-stamped
///    `{"redirect":"host:port",...}` reply makes the client reconnect to
///    the named leaseholder and re-send — bounded hops, so a redirect loop
///    during an election degrades into ordinary failover. A stale-epoch
///    redirect is harmless: the target answers or resets, and either way
///    the client converges on the live leaseholder.
///  * **Request-id dedupe.** Replies are deduped by `"id"` plus the
///    request line itself (an id reused for a *different* request is not a
///    retry and still reaches the server): a retried
///    request whose first send actually landed is answered exactly once —
///    the duplicate reply (same id, already-answered) is dropped, and a
///    re-sent already-answered id returns the cached reply instead of
///    dialing again. Solve requests are idempotent, which is what makes
///    the re-send safe in the first place; the dedupe makes it *counted*
///    safe for callers tallying replies.
class Client {
 public:
  /// Connect to the first reachable address of the list (throws
  /// std::runtime_error when every address refuses).
  explicit Client(const std::vector<std::string>& endpoints);

  /// Single-address convenience (tests, pre-HA callers).
  Client(const std::string& host, std::uint16_t port);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send one request line (newline appended if missing). Fails over to
  /// the next address when the send hits a reset/refused peer.
  void send_line(const std::string& line);

  /// Block for the next response line. Throws on server EOF.
  std::string read_line();

  /// send_line + read_line with failover, redirect chasing, and
  /// request-id dedupe (see class comment).
  std::string round_trip(const std::string& line);

  /// The address currently connected ("host:port") — who answered last.
  [[nodiscard]] const std::string& endpoint() const noexcept;

  /// Half-close the sending side / tear down the connection.
  void close();

 private:
  /// Tear down and re-establish a connection, rotating through the
  /// address list with capped jittered backoff between full rotations.
  /// False when every address refuses for `rounds` rotations.
  bool reconnect(std::size_t rounds = 3);

  /// Dial one specific address (a redirect target). False on refusal.
  bool connect_to(const std::string& endpoint);

  /// One answered request: the id alone is not the cache key — a retry
  /// must carry the *same line* to be served from cache, so an id reused
  /// for a different request still reaches the server.
  struct Answered {
    std::int64_t id;
    std::size_t line_hash;
    std::string reply;
  };

  /// Record an answered id (bounded) and say whether it was new.
  bool record_answered(std::int64_t id, std::size_t line_hash,
                       const std::string& reply);

  std::vector<std::string> endpoints_;
  std::size_t cursor_ = 0;     ///< Index of the connected address.
  std::string connected_;      ///< Text of the connected address.
  double backoff_ms_ = 50.0;   ///< Next inter-rotation pause.
  std::uint64_t jitter_state_; ///< Cheap xorshift state for jitter.
  int fd_ = -1;
  net::LineBuffer buffer_;
  /// Answered-id cache (insertion-ordered, bounded).
  std::vector<Answered> answered_;
};

/// Run a server until SIGTERM/SIGINT, then drain and report on `log`.
/// Returns a process exit code (0 on a clean drain). The `ebmf serve`
/// entry point.
int serve_forever(const ServerOptions& options, std::ostream& log);

}  // namespace ebmf::service
