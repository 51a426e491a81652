#pragma once
/// \file router.h
/// \brief `ebmf::router` — the canon-key sharding front tier
/// (`ebmf route`): one address that makes N `ebmf serve` backends behave
/// like a single coherent result cache.
///
/// The paper's FTQC workload is dominated by permuted repeats of a small
/// set of canonical factorization patterns. A single server already
/// collapses those through `ebmf::canon` + the sharded LRU; the router
/// extends the same idea across processes and machines:
///
///  * **Canonical sharding.** The router speaks the exact client protocol
///    (line-JSON, request order preserved per connection) and computes
///    `canon::CacheKey` *locally* for every dense request, then picks the
///    backend by rendezvous hashing on the key (ring.h). Permuted
///    duplicates therefore always land on the same backend's cache, no
///    matter which client sent them. Forwarded requests carry the
///    *canonical* pattern — backends answer in canonical space, which is
///    what the router's own cache stores — and the router lifts the
///    returned partition back through the requester's permutation record
///    before replying (certificates transfer exactly; every lifted
///    partition is re-validated).
///  * **L1 cache.** An in-process `ebmf::cache::ResultCache` sits in front
///    of the fan-out: a repeat the router has already seen is answered
///    without touching a backend (`routed.l1: "hit"` telemetry), and the
///    snapshot persistence (`--cache-file`) survives restarts.
///  * **Failover.** Per-backend persistent connection pools (pool.h)
///    pipeline requests under router-assigned ids. A broken backend fails
///    its in-flight replies immediately; the owning connection threads
///    resubmit to the next live backend in the key's HRW order, so a
///    killed backend loses no accepted request. Degraded replies carry
///    `routed.failover` telemetry; reconnects follow exponential backoff
///    driven by a health thread.
///  * **Admission control.** The router runs on the same tier host as the
///    server (net/host.h), with its global max-inflight limit: past it,
///    requests get an `overloaded` error instead of queueing unboundedly.
///  * **Counters.** Every router series lives once, in the host's instance
///    registry. `router.requests` counts every reply that carries a report
///    (forwarded, L1 hit, local all-zero answer) and `router.errors` every
///    error reply, admitted or not; `router.request.micros` times the
///    admitted requests.
///
/// Masked (don't-care) requests bypass canonicalization — they are
/// forwarded verbatim (keyed by raw pattern text, so repeats still share a
/// backend) and their replies pass through untouched. `{"op":"stats"}`
/// answers locally with router counters, L1 counters, cluster state, and
/// per-backend health.
///
/// **Live membership (PR 5, `--dynamic`).** The backend set is no longer
/// frozen at startup: backends announce themselves with
/// `{"op":"join","endpoint":...}` (see `ebmf serve --announce`), heartbeat
/// periodically, and are evicted after a missed-heartbeat grace window
/// (cluster/membership.h). Every membership change publishes a fresh
/// epoch-stamped view (cluster/view.h) whose HRW ring new requests route
/// on, while in-flight requests finish against the view they started with
/// — so a join or leave under load loses no accepted request.
///
/// **Hot-key replication.** The router counts per-key hits
/// (cluster/replica.h); a key past `--promote-after` is promoted to the
/// top-`--replicas` backends of its HRW order: results are fanned to every
/// replica as `{"op":"put"}` cache writes, and reads served by a surviving
/// non-primary replica carry `cluster.replica_hit` telemetry — a killed
/// backend no longer turns the hottest patterns cold.
///
/// **Router fleet (PR 8, `--peers`).** The router itself is no longer a
/// single point of failure: N routers form a fleet over the peer verbs
/// (`peer.hello`/`peer.lease`/`peer.sync`). One holds the leader lease
/// (cluster/lease.h) and owns every cluster *write* — joins, leaves,
/// missed-heartbeat eviction — while replicating the member table, epoch,
/// and promoted hot-key set to followers on the sync cadence. Followers
/// serve all *read* traffic (solves, stats) from the replicated view,
/// forward membership writes to the leaseholder, and answer with an
/// epoch-stamped `{"redirect":"host:port","epoch":E,"term":T}` when the
/// leaseholder is unreachable. When the leaseholder dies, a follower's
/// next lease bid wins within one TTL and it takes over with the current
/// view and warm hot keys — no cold restart. Backends announce to every
/// router (`ebmf serve --announce=a,b`), clients fail over across
/// `--connect=a,b` address lists.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "net/host.h"
#include "service/cache.h"

namespace ebmf::router {

/// Knobs of one router instance (CLI flags map 1:1). The reactor,
/// admission, sink and `--cache-file` (L1 snapshot) knobs are
/// net::HostOptions'.
struct RouterOptions : net::HostOptions {
  RouterOptions() { port = 7500; }

  /// Backend endpoints ("host:port") configured at startup. These are
  /// *static* members: never heartbeat-evicted. A non-dynamic router
  /// requires at least one; a dynamic router may start empty and let
  /// backends join.
  std::vector<std::string> backends;
  /// Accept join/leave/heartbeat membership verbs and run missed-heartbeat
  /// eviction (`ebmf route --dynamic`).
  bool dynamic = false;
  /// Fellow routers of the fleet ("host:port", *excluding* this one).
  /// Empty = standalone: this router always holds the (implicit) lease.
  std::vector<std::string> peers;
  /// This router's own endpoint as peers should see it (the lease-bid
  /// identity and redirect target). Defaults to host:port of the bound
  /// listener; required when binding a wildcard host with --peers.
  std::string advertise;
  /// Leader-lease lifetime. A follower bids for the lease after the
  /// holder's renewals have been silent this long — the fleet's failover
  /// budget. Keep it under the membership grace window so a router
  /// takeover never costs a backend eviction.
  double lease_ttl_ms = 1500.0;
  /// Lease-renewal + peer delta-sync cadence (0 = lease_ttl_ms / 3).
  double sync_interval_ms = 0.0;
  /// Replica set size for promoted hot keys (top-R of the key's HRW
  /// order). 1 disables replication (a key lives on its owner only).
  std::size_t replicas = 2;
  /// Hits before a key is promoted to replicated (0 = never promote).
  std::uint64_t promote_after = 8;
  /// Expected announce heartbeat cadence; grace_ms defaults off it.
  double heartbeat_ms = 500.0;
  /// Missed-heartbeat eviction window (0 = 4 * heartbeat_ms).
  double grace_ms = 0.0;
  double l1_mb = 64.0;        ///< Router-local result cache (0 = off).
  /// Negotiate the binary frame protocol on backend pool connections and
  /// use the canonical-key fast path for dense solves
  /// (`ebmf route --no-binary` turns it off; JSON lines then carry all
  /// router→backend traffic exactly as before the upgrade existed).
  bool binary_backend = true;
  std::size_t pool_connections = 1;  ///< Sockets per backend.
  /// Give up on a backend reply after this long and fail over (a hung
  /// backend must not wedge a client thread forever). 0 = wait forever.
  double reply_timeout_seconds = 30.0;
  double backoff_base_ms = 50.0;   ///< Reconnect backoff start.
  double backoff_max_ms = 2000.0;  ///< Reconnect backoff ceiling.
  double health_interval_ms = 100.0;  ///< Health/reconnect thread cadence.
  /// Trace every request (`ebmf route --trace`): requests without a client
  /// trace context get a fresh one at the router, so the whole fleet's
  /// latency breakdown is observable without client changes. Client-sent
  /// contexts are always honored regardless of this flag.
  bool trace = false;
};

/// Point-in-time health + counters of one backend.
struct BackendHealth {
  std::string endpoint;
  bool alive = false;
  bool binary = false;         ///< Pool negotiated the frame protocol.
  bool is_static = false;      ///< Configured at startup (never evicted).
  std::uint64_t requests = 0;  ///< Lines submitted to this backend.
  std::uint64_t failures = 0;  ///< Connection breaks observed.
};

/// Router counters (stats verb, drain report, tests), read from the
/// router's instance registry (net/host.h) like the stats verb.
struct RouterStats {
  std::uint64_t connections = 0;  ///< Client connections accepted.
  std::uint64_t requests = 0;     ///< Lines answered with a report.
  std::uint64_t errors = 0;       ///< Lines answered with an error.
  std::uint64_t rejected = 0;     ///< Shed by admission control.
  std::uint64_t l1_hits = 0;      ///< Answered from the router's cache.
  std::uint64_t failovers = 0;    ///< Resubmits after a backend failure.
  // -- cluster control plane ---------------------------------------------
  std::uint64_t epoch = 0;        ///< Current membership epoch.
  std::size_t members = 0;        ///< Registered members right now.
  std::uint64_t joins = 0;        ///< Accepted join verbs (new members).
  std::uint64_t leaves = 0;       ///< Accepted leave verbs.
  std::uint64_t evictions = 0;    ///< Members dropped by missed heartbeats.
  std::uint64_t promotions = 0;   ///< Keys promoted to replicated.
  std::uint64_t replica_hits = 0; ///< Promoted reads served off-primary.
  std::uint64_t replica_puts = 0; ///< Cache writes fanned to replicas.
  std::size_t promoted = 0;       ///< Keys in the promoted set right now.
  // -- router fleet (leader lease) ---------------------------------------
  std::string lease_holder;       ///< Current holder ("" = none known).
  std::uint64_t term = 0;         ///< Current lease term.
  bool leaseholder = false;       ///< This router holds a valid lease.
  std::uint64_t lease_acquires = 0;  ///< Takeovers (first grant of a term).
  std::uint64_t lease_renewals = 0;  ///< Successful renewals while held.
  std::uint64_t redirects = 0;    ///< Writes answered with {"redirect":...}.
  std::uint64_t forwards = 0;     ///< Writes proxied to the leaseholder.
  std::uint64_t syncs_sent = 0;   ///< peer.sync snapshots delivered.
  std::uint64_t syncs_applied = 0;  ///< peer.sync snapshots adopted here.
  std::vector<BackendHealth> backends;
};

/// The front tier. Thread-safe; start() once, stop() once (destructor
/// stops too).
class Router {
 public:
  explicit Router(RouterOptions options);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Bind, connect the backend pools (best effort — a down backend just
  /// starts in backoff), and launch the accept/health threads. Throws
  /// std::runtime_error on an unusable address, a malformed endpoint, or
  /// no backends on a non-dynamic router (a dynamic one may start empty
  /// and wait for joins).
  void start();

  /// Graceful drain: stop accepting, close backend pools (in-flight
  /// replies fail fast), answer what can be answered, join every thread.
  /// Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept;

  /// The port actually bound (resolves port 0 after start()).
  [[nodiscard]] std::uint16_t port() const noexcept;

  [[nodiscard]] RouterStats stats() const;

  /// The router-local result cache (null when --l1-mb=0).
  [[nodiscard]] const std::shared_ptr<cache::ResultCache>& l1()
      const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Run a router until SIGTERM/SIGINT, then drain and report on `log`.
/// Returns a process exit code (0 on a clean drain). Loads/saves the L1
/// snapshot when options.cache_file is set. The `ebmf route` entry point.
int route_forever(const RouterOptions& options, std::ostream& log);

}  // namespace ebmf::router
