// The sharding front tier, a net::Host handler (net/host.h): local
// canonicalization + L1 cache, HRW dispatch over the backend pools (binary
// frames with the pre-canonicalized fast path when the pool negotiated the
// upgrade, line-JSON otherwise), in-order reply reassembly with failover,
// watch relays, and the cluster control plane (join/leave/heartbeat
// membership, epoch-stamped view swaps, hot-key replication, the leader
// lease and peer sync).

#include "router/router.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <ctime>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cluster/lease.h"
#include "cluster/membership.h"
#include "cluster/replica.h"
#include "cluster/view.h"
#include "core/partition.h"
#include "io/binary_io.h"
#include "io/json.h"
#include "io/request_io.h"
#include "net/frame.h"
#include "net/host.h"
#include "obs/events.h"
#include "obs/federate.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "router/pool.h"
#include "router/ring.h"
#include "service/canon.h"
#include "net/net.h"

namespace ebmf::router {

using net::error_json;
using net::framed_json;
using net::write_line;

namespace {

/// One client message's journey through a batch: either resolved up front
/// (parse error, stats, membership verb, L1 hit, local zero-pattern
/// answer) or an in-flight backend exchange plus the context needed to
/// re-own the response.
struct RouteTask {
  bool skip = false;

  // -- resolved outcome --------------------------------------------------
  /// True once the reply is determined (resolved before dispatch, or
  /// finalized from a backend reply). Line/type-4 clients read `immediate`
  /// (the JSON reply text); binary-solve clients read `final_report` /
  /// `error_message` instead — the reply loop encodes the type-2/3 frame
  /// after the trace root closes, so the spans can ride the payload.
  bool resolved = false;
  std::string immediate;
  bool immediate_is_error = false;
  std::optional<engine::SolveReport> final_report;
  std::string error_message;
  bool admitted = false;

  // -- client framing ----------------------------------------------------
  net::WireMode mode = net::WireMode::Line;
  /// True when the request arrived as a type-1 solve frame: the reply is a
  /// type-2/3 frame rather than (possibly type-4-wrapped) JSON text.
  bool binary_solve = false;

  // -- forwarding state --------------------------------------------------
  bool forwarded = false;
  bool passthrough = false;  ///< Masked request: reply forwarded verbatim.
  /// The backend's `"events"` flight-recorder splice (raw JSON array),
  /// preserved across the lift's re-render of the reply.
  std::string backend_events;
  std::uint64_t route_key = 0;
  std::uint64_t router_id = 0;
  /// The forward request, rendered lazily per pool wire mode: `backend_line`
  /// (JSON) for line pools and every non-solve payload, `backend_frame` (a
  /// complete type-1 frame carrying the canonical key, so the backend skips
  /// canonicalization entirely) for binary pools. A failover between pools
  /// of different modes just renders the other encoding once.
  io::WireRequest forward;
  std::string backend_line;
  std::string backend_frame;
  /// Frame type of the awaited backend reply (0 = JSON text).
  std::uint8_t reply_frame_type = 0;
  PendingPtr pending;
  /// The view this request routes on: taken once at dispatch and held for
  /// the whole exchange (failovers included), so an epoch swap mid-flight
  /// never invalidates the walk.
  std::shared_ptr<const cluster::ClusterView> view;
  std::vector<std::string> preference;  ///< HRW failover order (endpoints).
  std::size_t preference_cursor = 0;    ///< Index serving the request.
  std::size_t failovers = 0;

  // -- client context ----------------------------------------------------
  std::int64_t client_id = -1;
  std::string label;
  bool include_partition = false;

  // -- canonical context (dense path) ------------------------------------
  bool canonical_mode = false;
  canon::Canonical canonical;
  canon::CacheKey l1_key;
  std::string strategy;
  BinaryMatrix original;  ///< For re-validating the lifted certificate.

  // -- hot-key replication -----------------------------------------------
  bool promoted = false;      ///< The key is in the replicated set.
  bool promoted_now = false;  ///< This request crossed the threshold.
  std::uint64_t hot_hits = 0;

  // -- watch relay -------------------------------------------------------
  /// `{"op":"watch"}`: the reply loop relays the named in-flight solve's
  /// progress stream from its serving backend instead of answering inline.
  bool watch = false;

  // -- tracing -----------------------------------------------------------
  /// Set when the request carries a trace context (or --trace assigns one):
  /// the span recorder, this request's "router.request" root span id, the
  /// client's span the root parents under, and the pre-allocated id of the
  /// "router.dispatch" span — allocated at prepare time because the
  /// forwarded line must name it as the backend's parent before the
  /// dispatch interval is known.
  obs::TracePtr trace;
  std::uint64_t root_span = 0;
  std::uint64_t remote_parent = 0;
  std::uint64_t dispatch_span = 0;
  std::uint64_t dispatch_start_us = 0;
};

/// True when a reply line (with or without an id prefix) is a protocol
/// error object.
bool is_error_reply(std::string line) {
  std::uint64_t id = 0;
  net::strip_id_prefix(line, id);
  return line.rfind("{\"error\"", 0) == 0;
}

}  // namespace

struct Router::Impl final : net::Handler {
  explicit Impl(RouterOptions opt)
      : options(std::move(opt)),
        host(options, "router", 64, *this),
        membership(std::chrono::duration_cast<cluster::Clock::duration>(
            std::chrono::duration<double, std::milli>(
                options.grace_ms > 0 ? options.grace_ms
                                     : 4.0 * options.heartbeat_ms))),
        hot_keys(cluster::HotKeyTracker::Options{
            options.replicas > 1 ? options.promote_after : 0, 65536}) {
    if (options.replicas == 0) options.replicas = 1;
    if (options.l1_mb > 0)
      l1 = cache::ResultCache::with_capacity_mb(options.l1_mb);
  }

  RouterOptions options;
  /// Reactor, admission, sinks and the instance registry. Its trace store
  /// holds the traces this router assembled: its own spans plus the
  /// backend spans folded out of each reply.
  net::Host host;
  std::shared_ptr<cache::ResultCache> l1;

  // The router's own series, in the host's instance registry.
  obs::Counter* const l1_hits = host.counter("l1_hits");
  obs::Counter* const failovers = host.counter("failovers");
  obs::Counter* const joins = host.counter("joins");
  obs::Counter* const leaves = host.counter("leaves");
  obs::Counter* const evictions = host.counter("evictions");
  obs::Counter* const promotions = host.counter("promotions");
  obs::Counter* const replica_hits = host.counter("replica_hits");
  obs::Counter* const replica_puts = host.counter("replica_puts");
  obs::Counter* const lease_acquires = host.counter("lease.acquired");
  obs::Counter* const lease_renewals = host.counter("lease.renewed");
  obs::Counter* const lease_lost = host.counter("lease.lost");
  obs::Counter* const redirects = host.counter("redirects");
  obs::Counter* const forwards = host.counter("forwards");
  obs::Counter* const syncs_sent = host.counter("peer.syncs");
  obs::Counter* const syncs_applied = host.counter("peer.syncs_applied");
  obs::Counter* const pool_dispatches = host.counter("pool.dispatches");
  obs::Counter* const pool_failures = host.counter("pool.failures");

  /// Where each id-carrying in-flight solve currently lives: the client's
  /// id → (serving backend endpoint, the router-assigned forwarded id).
  /// `{"op":"watch","id":N}` resolves N here and relays the stream from
  /// that backend; failovers re-point the entry mid-flight.
  struct WatchRoute {
    std::string endpoint;
    std::uint64_t router_id = 0;
  };
  mutable std::mutex watch_mutex;
  std::map<std::int64_t, WatchRoute> watch_routes;

  // -- cluster state -----------------------------------------------------
  // `cluster_mutex` serializes membership mutation + view publication (so
  // epochs reach the view cell in order); the request path only reads
  // `views.current()` and copies pool pointers out of `pools`.
  cluster::Membership membership;
  cluster::ViewHolder views;
  cluster::HotKeyTracker hot_keys;
  std::mutex cluster_mutex;
  mutable std::mutex pools_mutex;
  std::unordered_map<std::string, std::shared_ptr<BackendPool>> pools;

  // -- router fleet (leader lease + peer sync) ---------------------------
  /// Our advertised endpoint (lease-bid identity / redirect target);
  /// resolved in start() once the listener's port is known.
  std::string self_endpoint;
  /// Created in start() when --peers names a fleet; null = standalone
  /// (this router implicitly owns every write). Never reassigned after
  /// start, so connection threads read it without a lock.
  std::unique_ptr<cluster::LeaderLease> lease;
  std::thread sync_thread;

  std::thread health_thread;

  std::atomic<std::uint64_t> next_id{1};
  void on_batch(const net::ConnPtr& conn,
                std::vector<net::Message> messages) override {
    process_batch(conn, std::move(messages));
  }

  /// One backend row of a stats report: pool handle + membership flavor.
  struct BackendSnapshot {
    std::string endpoint;
    std::shared_ptr<BackendPool> pool;
    bool is_static = false;
  };

  std::shared_ptr<BackendPool> pool_for(const std::string& endpoint);
  std::shared_ptr<BackendPool> ensure_pool(const std::string& endpoint);
  std::shared_ptr<BackendPool> detach_pool(const std::string& endpoint);
  std::vector<BackendSnapshot> backend_snapshot() const;
  void publish_view();
  std::string handle_membership(const io::WireRequest& wire);
  bool holds_write_authority() const;
  std::string forward_or_redirect(const io::WireRequest& wire);
  std::string handle_peer(const io::WireRequest& wire);
  std::string build_sync_line() const;
  void observe_peer_reply(const std::string& line);
  std::optional<std::string> peer_call(const std::string& endpoint,
                                       const std::string& line);
  void sync_loop();
  std::string stats_json(std::int64_t id) const;
  std::string fleet_metrics_json(std::int64_t id);
  void log_slow(const RouteTask& task, double elapsed_ms,
                const std::string& trace_hex);
  void register_watch(const RouteTask& task);
  void unregister_watch(const RouteTask& task);
  void handle_watch(const net::ConnPtr& conn, std::int64_t id,
                    net::WireMode mode);
  void watch_relay(const net::ConnPtr& conn, std::int64_t id,
                   net::WireMode mode);
  void prepare_task(const net::Message& message, RouteTask& task);
  bool dispatch(RouteTask& task);
  const std::string& backend_payload(RouteTask& task, bool framed);
  std::string await_reply(RouteTask& task);
  void replicate(RouteTask& task, const engine::SolveReport& report);
  void finalize_reply(RouteTask& task, const std::string& raw);
  void resolve_json(RouteTask& task, std::string reply, bool is_error);
  void resolve_error(RouteTask& task, const std::string& message);
  void resolve_report(RouteTask& task, engine::SolveReport report,
                      const char* source);
  std::string render_report_core(RouteTask& task, engine::SolveReport& report,
                                 const char* source);
  void process_batch(const net::ConnPtr& conn,
                     std::vector<net::Message> messages);
  void health_loop();
};

std::shared_ptr<BackendPool> Router::Impl::pool_for(
    const std::string& endpoint) {
  std::lock_guard<std::mutex> lock(pools_mutex);
  const auto it = pools.find(endpoint);
  return it == pools.end() ? nullptr : it->second;
}

/// The pool for `endpoint`, created on first use (join path). The caller
/// validates the endpoint; creation never throws past parse.
std::shared_ptr<BackendPool> Router::Impl::ensure_pool(
    const std::string& endpoint) {
  {
    std::lock_guard<std::mutex> lock(pools_mutex);
    const auto it = pools.find(endpoint);
    if (it != pools.end()) return it->second;
  }
  std::string host_name;
  std::uint16_t port = 0;
  if (!net::parse_endpoint(endpoint, host_name, port)) return nullptr;
  PoolOptions pool_options;
  pool_options.connections = options.pool_connections;
  pool_options.backoff_base_ms = options.backoff_base_ms;
  pool_options.backoff_max_ms = options.backoff_max_ms;
  pool_options.dispatches = pool_dispatches;
  pool_options.failures = pool_failures;
  auto pool = std::make_shared<BackendPool>(host_name, port, pool_options);
  std::lock_guard<std::mutex> lock(pools_mutex);
  // Lost a creation race: keep the incumbent (ours is dropped unopened).
  auto it = pools.find(endpoint);
  if (it == pools.end()) it = pools.emplace(endpoint, std::move(pool)).first;
  return it->second;
}

/// Remove `endpoint`'s pool from the routing set and hand it back. The
/// caller shuts it down *outside* the locks: in-flight replies then fail
/// fast and their owners re-walk the (already-republished) view.
std::shared_ptr<BackendPool> Router::Impl::detach_pool(
    const std::string& endpoint) {
  std::lock_guard<std::mutex> lock(pools_mutex);
  const auto it = pools.find(endpoint);
  if (it == pools.end()) return nullptr;
  std::shared_ptr<BackendPool> pool = std::move(it->second);
  pools.erase(it);
  return pool;
}

/// The endpoint-sorted backend set for stats reporting (stats verb and
/// Router::stats() share it). A pool with no membership entry is
/// mid-removal and reported as announced.
std::vector<Router::Impl::BackendSnapshot> Router::Impl::backend_snapshot()
    const {
  std::unordered_map<std::string, bool> is_static;
  for (const cluster::Member& member : membership.members())
    is_static[member.endpoint] = member.is_static;
  std::vector<BackendSnapshot> out;
  {
    std::lock_guard<std::mutex> lock(pools_mutex);
    out.reserve(pools.size());
    for (const auto& [endpoint, pool] : pools)
      out.push_back(BackendSnapshot{endpoint, pool, false});
  }
  std::sort(out.begin(), out.end(),
            [](const BackendSnapshot& a, const BackendSnapshot& b) {
              return a.endpoint < b.endpoint;
            });
  for (BackendSnapshot& backend : out) {
    const auto it = is_static.find(backend.endpoint);
    backend.is_static = it != is_static.end() && it->second;
  }
  return out;
}

/// Rebuild the routing view from the current member set and swap it in.
/// Callers hold `cluster_mutex`, so concurrent membership changes publish
/// their epochs in order.
void Router::Impl::publish_view() {
  const std::vector<cluster::Member> members = membership.members();
  std::vector<std::string> endpoints;
  endpoints.reserve(members.size());
  for (const cluster::Member& member : members)
    endpoints.push_back(member.endpoint);
  views.publish(cluster::ClusterView::make(membership.epoch(), endpoints));
}

/// True when this router may apply cluster writes: standalone, or holding
/// a valid leader lease.
bool Router::Impl::holds_write_authority() const {
  return lease == nullptr || lease->status().held;
}

/// The join/leave/heartbeat control plane, answered inline on the client
/// connection thread (membership changes are rare next to solves).
std::string Router::Impl::handle_membership(const io::WireRequest& wire) {
  if (!options.dynamic)
    return error_json(
        "membership verbs need a dynamic router (ebmf route --dynamic)", "",
        wire.id);
  std::string host_name;
  std::uint16_t port = 0;
  if (!net::parse_endpoint(wire.endpoint, host_name, port))
    return error_json("bad endpoint '" + wire.endpoint + "' (want host:port)",
                      "", wire.id);
  // Fleet mode: the member table has one writer — the leaseholder. A
  // heartbeat is a liveness refresh, not a table write, so every router
  // applies those locally and a follower's replicated view stays live
  // even while a new lease is being won.
  if (wire.op != io::WireOp::Heartbeat && !holds_write_authority())
    return forward_or_redirect(wire);
  const std::string endpoint = host_name + ":" + std::to_string(port);
  std::ostringstream out;
  out << "{";
  if (wire.id >= 0) out << "\"id\":" << wire.id << ",";

  if (wire.op == io::WireOp::Heartbeat) {
    // No lock needed: a heartbeat never changes the member set.
    const cluster::MembershipUpdate update = membership.heartbeat(endpoint);
    if (update.known)
      out << "\"ok\":true,\"epoch\":" << update.epoch << "}";
    else  // evicted (or never joined): the backend must announce again
      out << "\"ok\":false,\"rejoin\":true,\"epoch\":" << update.epoch << "}";
    return out.str();
  }

  if (wire.op == io::WireOp::Join) {
    cluster::MembershipUpdate update;
    {
      std::lock_guard<std::mutex> lock(cluster_mutex);
      update = membership.join(endpoint);
      ensure_pool(endpoint);
      if (update.changed) publish_view();
    }
    if (update.changed) joins->add(1);
    // Opportunistic connect outside the cluster lock — the first requests
    // for this shard should not eat a health-cadence delay.
    if (const auto pool = pool_for(endpoint)) pool->maintain();
    out << "\"joined\":true,\"epoch\":" << update.epoch << "}";
    return out.str();
  }

  // Leave: publish the shrunken view first, then break the pool — its
  // in-flight replies fail over against a view that no longer lists it.
  std::shared_ptr<BackendPool> detached;
  cluster::MembershipUpdate update;
  {
    std::lock_guard<std::mutex> lock(cluster_mutex);
    // Static members are the operator's command line, not the wire's to
    // retract: a misdirected (or spoofed) leave would unroute a configured
    // shard until restart, since static members never announce/re-join.
    for (const cluster::Member& member : membership.members()) {
      if (member.endpoint == endpoint && member.is_static)
        return error_json("cannot leave static backend '" + endpoint +
                              "' (configured on the router command line)",
                          "", wire.id);
    }
    update = membership.leave(endpoint);
    if (update.changed) {
      publish_view();
      detached = detach_pool(endpoint);
    }
  }
  if (update.changed) leaves->add(1);
  if (detached) detached->shutdown();
  out << "\"left\":" << (update.changed ? "true" : "false")
      << ",\"epoch\":" << update.epoch << "}";
  return out.str();
}

/// One blocking request/reply exchange with a fleet peer (hello, claim,
/// sync, or a forwarded write). A fresh short-lived dial per exchange:
/// peer traffic is a few small lines per sync interval, and dialing
/// through net::tcp_connect keeps the fault-injection layer in this path
/// too. nullopt means "peer unreachable right now".
std::optional<std::string> Router::Impl::peer_call(const std::string& endpoint,
                                                   const std::string& line) {
  std::string host_name;
  std::uint16_t port = 0;
  if (!net::parse_endpoint(endpoint, host_name, port)) return std::nullopt;
  int fd = -1;
  try {
    fd = net::tcp_connect(host_name, port);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  timeval timeout{2, 0};  // a stuck peer must not wedge the caller
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
  std::optional<std::string> reply;
  net::LineBuffer buffer;
  std::string first;
  if (net::write_line(fd, line) && net::read_line(fd, buffer, first))
    reply = std::move(first);
  ::close(fd);
  return reply;
}

/// A membership write arrived while we are a follower: proxy it to the
/// leaseholder so the client sees the authoritative answer, or — when the
/// leaseholder is unknown or unreachable — answer with an epoch-stamped
/// `{"redirect":...}` the client chases itself.
std::string Router::Impl::forward_or_redirect(const io::WireRequest& wire) {
  const cluster::LeaseStatus status = lease->status();
  if (status.valid && status.holder != self_endpoint) {
    io::WireRequest forward = wire;
    forward.id = -1;  // the proxy leg has its own correlation space
    if (std::optional<std::string> reply =
            peer_call(status.holder, io::wire_request_json(forward))) {
      forwards->add(1);
      return net::with_id_prefix(*reply, wire.id);
    }
  }
  redirects->add(1);
  std::ostringstream out;
  out << "{";
  if (wire.id >= 0) out << "\"id\":" << wire.id << ",";
  if (status.holder.empty() || status.holder == self_endpoint) {
    // Nothing to point at: the last lease we granted was our own (now
    // expired) or none exists yet. The client backs off and retries its
    // address list; by then someone has won the next term.
    out << "\"error\":\"no leaseholder (election in progress)\",\"epoch\":"
        << membership.epoch() << ",\"term\":" << status.term << "}";
    return out.str();
  }
  out << "\"redirect\":\"" << io::json::escape(status.holder)
      << "\",\"epoch\":" << membership.epoch() << ",\"term\":" << status.term
      << "}";
  return out.str();
}

/// The fleet peer verbs (peer.hello / peer.lease / peer.sync), answered
/// inline on the connection thread like membership verbs.
std::string Router::Impl::handle_peer(const io::WireRequest& wire) {
  if (!lease)
    return error_json(
        "this router is standalone (start it with --peers to form a fleet)",
        "", wire.id);
  std::ostringstream out;
  out << "{";
  if (wire.id >= 0) out << "\"id\":" << wire.id << ",";

  if (wire.op == io::WireOp::PeerHello) {
    // Introduction/probe: report the lease as we know it. The caller folds
    // the reply through observe_report, so a rebooted router learns the
    // standing term before its first bid.
    const cluster::LeaseStatus status = lease->status();
    out << "\"ok\":true,\"endpoint\":\"" << io::json::escape(self_endpoint)
        << "\",\"term\":" << status.term << ",\"holder\":\""
        << io::json::escape(status.holder)
        << "\",\"epoch\":" << membership.epoch() << "}";
    return out.str();
  }

  if (wire.op == io::WireOp::PeerLease) {
    const bool was_held = lease->status().held;
    const cluster::LeaderLease::Grant grant =
        lease->observe_claim(wire.endpoint, wire.term);
    if (was_held && grant.granted && !grant.status.held)
      lease_lost->add(1);  // deposed by a fresher claim
    out << "\"ok\":true,\"granted\":" << (grant.granted ? "true" : "false")
        << ",\"term\":" << grant.status.term << ",\"holder\":\""
        << io::json::escape(grant.status.holder) << "\"}";
    return out.str();
  }

  // peer.sync — the holder's replicated snapshot. It doubles as a lease
  // renewal: a snapshot we would not grant a claim for is from a stale
  // leader and must be refused, or a deposed leader could roll the
  // member table back.
  const cluster::LeaderLease::Grant grant =
      lease->observe_claim(wire.endpoint, wire.term);
  const bool from_holder =
      grant.granted && grant.status.holder == wire.endpoint;
  bool applied = false;
  if (from_holder && wire.endpoint != self_endpoint) {
    std::vector<cluster::Member> snapshot;
    snapshot.reserve(wire.peer_members.size());
    std::unordered_set<std::string> keep;
    for (const io::WirePeerMember& member : wire.peer_members) {
      cluster::Member converted;
      converted.endpoint = member.endpoint;
      converted.is_static = member.is_static;
      keep.insert(member.endpoint);
      snapshot.push_back(std::move(converted));
    }
    std::vector<std::shared_ptr<BackendPool>> dropped;
    {
      std::lock_guard<std::mutex> lock(cluster_mutex);
      applied = membership.adopt(snapshot, wire.peer_epoch);
      if (applied) {
        // Reconcile pools with the adopted set: new members get pools
        // (dialed lazily), vanished ones lose theirs.
        for (const cluster::Member& member : membership.members())
          ensure_pool(member.endpoint);
        std::vector<std::string> extra;
        {
          std::lock_guard<std::mutex> pools_lock(pools_mutex);
          for (const auto& [endpoint, pool] : pools)
            if (keep.count(endpoint) == 0) extra.push_back(endpoint);
        }
        for (const std::string& endpoint : extra)
          if (auto pool = detach_pool(endpoint))
            dropped.push_back(std::move(pool));
        publish_view();
      }
    }
    for (const auto& pool : dropped) pool->shutdown();
    // The promoted set rides every sync (it can grow without an epoch
    // bump). Adoption seeds counts at the threshold, so a takeover serves
    // these keys warm without a re-promotion burst.
    hot_keys.adopt_promoted(wire.promoted_keys);
    syncs_applied->add(1);
  }
  out << "\"ok\":true,\"applied\":" << (applied ? "true" : "false")
      << ",\"term\":" << grant.status.term << ",\"holder\":\""
      << io::json::escape(grant.status.holder)
      << "\",\"epoch\":" << membership.epoch() << "}";
  return out.str();
}

/// Render this router's replicated state as one peer.sync line. The whole
/// state is small (member table + epoch + promoted keys), so each "delta"
/// is simply the current snapshot — idempotent to apply, trivially
/// convergent, and a fresh follower needs no separate bootstrap path.
std::string Router::Impl::build_sync_line() const {
  io::WireRequest sync;
  sync.op = io::WireOp::PeerSync;
  sync.endpoint = self_endpoint;
  sync.term = lease->status().term;
  sync.peer_epoch = membership.epoch();
  for (const cluster::Member& member : membership.members()) {
    io::WirePeerMember entry;
    entry.endpoint = member.endpoint;
    entry.is_static = member.is_static;
    sync.peer_members.push_back(std::move(entry));
  }
  sync.promoted_keys = hot_keys.promoted_keys();
  return io::wire_request_json(sync);
}

/// Fold the lease view a peer's reply reported into our arbiter (how a
/// bidding router discovers it lost, and a deposed leader finds out).
void Router::Impl::observe_peer_reply(const std::string& line) {
  try {
    const io::json::Value document = io::json::Value::parse(line);
    if (!document.is_object()) return;
    const io::json::Value* holder = document.find("holder");
    const io::json::Value* term = document.find("term");
    if (holder == nullptr || !holder->is_string() || term == nullptr)
      return;
    const std::optional<std::uint64_t> count = io::json::to_count(*term);
    if (!count) return;
    lease->observe_report(holder->as_string(), *count);
  } catch (const std::exception&) {
  }
}

/// The fleet thread: one hello round to learn the standing lease, then on
/// the sync cadence either renew-and-replicate (holder) or watch for the
/// holder's silence and bid (try_acquire bids exactly when the known
/// lease has expired). Peer exchanges ride peer_call → net, so injected
/// faults hit this path too: a dropped renewal round just narrows the
/// margin to the next one.
void Router::Impl::sync_loop() {
  {
    io::WireRequest hello;
    hello.op = io::WireOp::PeerHello;
    hello.endpoint = self_endpoint;
    hello.term = lease->status().term;
    const std::string hello_line = io::wire_request_json(hello);
    for (const std::string& peer : options.peers) {
      if (host.stopping()) return;
      if (const auto reply = peer_call(peer, hello_line))
        observe_peer_reply(*reply);
    }
  }
  const double interval_ms =
      options.sync_interval_ms > 0
          ? options.sync_interval_ms
          : std::max(20.0, options.lease_ttl_ms / 3.0);
  bool was_held = false;
  while (!host.stopping()) {
    // Nap in slices so stop() stays prompt at any cadence.
    double napped = 0.0;
    while (napped < interval_ms &&
           !host.stopping()) {
      const double slice = std::min(20.0, interval_ms - napped);
      timespec nap{0, static_cast<long>(slice * 1e6)};
      ::nanosleep(&nap, nullptr);
      napped += slice;
    }
    if (host.stopping()) break;

    const cluster::LeaseStatus status = lease->try_acquire();
    if (!status.held) {
      if (was_held) lease_lost->add(1);
      was_held = false;
      continue;  // follower: state arrives passively via peer.sync
    }
    if (!was_held) {
      lease_acquires->add(1);
      // A takeover is the failover event the HA drill measures: record it
      // as a single-span trace so `{"op":"traces"}` shows when it happened
      // and which term it won.
      const std::uint64_t now_us = obs::steady_micros();
      obs::TraceContext ctx = obs::make_trace_context();
      obs::TraceRecorder recorder(ctx);
      recorder.record("router.lease.takeover", obs::new_span_id(), 0, now_us,
                      obs::steady_micros());
      host.traces().add(ctx.hi, ctx.lo, recorder.spans());
    } else {
      lease_renewals->add(1);
    }
    was_held = true;

    // Broadcast the claim, then the state. Replies carry the freshest
    // term/holder; folding them back in is how a deposed leader learns it
    // must stand down before the next round.
    io::WireRequest claim;
    claim.op = io::WireOp::PeerLease;
    claim.endpoint = self_endpoint;
    claim.term = status.term;
    const std::string claim_line = io::wire_request_json(claim);
    const std::string sync_line = build_sync_line();
    for (const std::string& peer : options.peers) {
      if (host.stopping()) break;
      if (const auto reply = peer_call(peer, claim_line))
        observe_peer_reply(*reply);
      if (!lease->status().held) break;  // deposed mid-round
      if (const auto reply = peer_call(peer, sync_line)) {
        observe_peer_reply(*reply);
        syncs_sent->add(1);
      }
    }
  }
}

std::string Router::Impl::stats_json(std::int64_t id) const {
  std::ostringstream out;
  out << host.stats_head(id, {{"l1_hits", l1_hits}, {"failovers", failovers}});
  out << ",\"cluster\":{\"dynamic\":" << (options.dynamic ? "true" : "false")
      << ",\"epoch\":" << membership.epoch()
      << ",\"members\":" << membership.size()
      << ",\"joins\":" << joins->value()
      << ",\"leaves\":" << leaves->value()
      << ",\"evictions\":" << evictions->value()
      << ",\"replicas\":" << options.replicas
      << ",\"promote_after\":" << options.promote_after
      << ",\"promoted\":" << hot_keys.promoted_count()
      << ",\"promotions\":" << promotions->value()
      << ",\"replica_hits\":" << replica_hits->value()
      << ",\"replica_puts\":" << replica_puts->value() << "}";
  if (lease) {
    const cluster::LeaseStatus status = lease->status();
    out << ",\"lease\":{\"self\":\"" << io::json::escape(self_endpoint)
        << "\",\"holder\":\"" << io::json::escape(status.holder)
        << "\",\"term\":" << status.term
        << ",\"held\":" << (status.held ? "true" : "false")
        << ",\"valid\":" << (status.valid ? "true" : "false")
        << ",\"peers\":" << options.peers.size()
        << ",\"acquires\":" << lease_acquires->value()
        << ",\"renewals\":" << lease_renewals->value()
        << ",\"redirects\":" << redirects->value()
        << ",\"forwards\":" << forwards->value()
        << ",\"syncs_sent\":" << syncs_sent->value()
        << ",\"syncs_applied\":" << syncs_applied->value() << "}";
  } else {
    out << ",\"lease\":null";
  }
  out << ",\"l1\":" << cache::stats_json(l1.get());
  const std::vector<BackendSnapshot> snapshot = backend_snapshot();
  out << ",\"backends\":[";
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    const PoolStats pool = snapshot[i].pool->stats();
    if (i != 0) out << ",";
    out << "{\"endpoint\":\"" << io::json::escape(snapshot[i].endpoint)
        << "\",\"alive\":" << (pool.alive ? "true" : "false")
        << ",\"binary\":" << (pool.binary ? "true" : "false")
        << ",\"static\":" << (snapshot[i].is_static ? "true" : "false")
        << ",\"requests\":" << pool.requests
        << ",\"failures\":" << pool.failures
        << ",\"inflight\":" << pool.inflight << "}";
  }
  out << "],\"metrics\":" << host.metrics_json();
  out << "}";
  return out.str();
}

/// One slow-request JSON line: wall-clock, trace id (when traced), who
/// served it, the canonical key, strategy, and the recorder's span
/// durations — enough to pull the full tree via `{"op":"trace"}`.
void Router::Impl::log_slow(const RouteTask& task, double elapsed_ms,
                            const std::string& trace_hex) {
  std::ostringstream line;
  line << "{\"slow\":true,\"tier\":\"router\",\"ms\":"
       << io::json::number(elapsed_ms);
  if (!task.strategy.empty())
    line << ",\"strategy\":\"" << io::json::escape(task.strategy) << "\"";
  if (!task.label.empty())
    line << ",\"label\":\"" << io::json::escape(task.label) << "\"";
  if (!trace_hex.empty())
    line << ",\"trace\":\"" << trace_hex << "\"";
  if (task.canonical_mode)
    line << ",\"canon_key\":\""
         << obs::trace_id_hex(task.canonical.key.hi, task.canonical.key.lo)
         << "\"";
  if (task.forwarded && !task.preference.empty())
    line << ",\"backend\":\""
         << io::json::escape(task.preference[task.preference_cursor]) << "\"";
  if (task.failovers > 0) line << ",\"failovers\":" << task.failovers;
  if (task.trace) {
    line << ",\"spans\":{";
    const std::vector<obs::Span> spans = task.trace->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (i != 0) line << ",";
      line << "\"" << io::json::escape(spans[i].name)
           << "\":" << spans[i].dur_us;
    }
    line << "}";
  }
  host.log_slow(line.str());
}

/// `{"op":"metrics","scope":"fleet"}`: scrape every backend and peer
/// router (short-lived dials, 2s timeouts each), merge the expositions
/// with this router's own registry, and answer with one fleet-wide body.
/// Down instances are skipped — federation reports who answered.
std::string Router::Impl::fleet_metrics_json(std::int64_t id) {
  std::vector<obs::InstanceExposition> instances;
  instances.push_back(obs::InstanceExposition{
      self_endpoint.empty() ? "router" : self_endpoint,
      host.prometheus_text()});
  // Backends first (endpoint-sorted), then peers, so the per-instance
  // series order in the exposition is stable across scrapes.
  std::vector<std::string> targets;
  for (const BackendSnapshot& backend : backend_snapshot())
    targets.push_back(backend.endpoint);
  for (const std::string& peer : options.peers) targets.push_back(peer);
  for (const std::string& endpoint : targets) {
    const std::optional<std::string> reply =
        peer_call(endpoint, "{\"op\":\"metrics\"}");
    if (!reply) continue;
    try {
      const io::json::Value document = io::json::Value::parse(*reply);
      const io::json::Value* body = document.find("body");
      if (body == nullptr || !body->is_string()) continue;
      instances.push_back(
          obs::InstanceExposition{endpoint, body->as_string()});
    } catch (const std::exception&) {
    }
  }
  std::ostringstream reply;
  reply << "{";
  if (id >= 0) reply << "\"id\":" << id << ",";
  reply << "\"metrics\":true,\"scope\":\"fleet\",\"instances\":"
        << instances.size()
        << ",\"content_type\":\"text/plain; version=0.0.4\",\"body\":\""
        << io::json::escape(obs::federate_prometheus(instances)) << "\"}";
  return reply.str();
}

/// Pull the raw `"events":[...]` array out of a backend reply so the
/// lifted re-render can carry the backend's flight-recorder snapshot
/// verbatim. Empty when the reply has none. (A top-level key only —
/// string values have their quotes escaped, so the needle can't match
/// inside a label.)
static std::string raw_events_array(const std::string& raw) {
  const std::size_t key = raw.find("\"events\":[");
  if (key == std::string::npos) return std::string();
  const std::size_t open = key + 9;  // the '['
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = open; i < raw.size(); ++i) {
    const char c = raw[i];
    if (in_string) {
      if (c == '\\')
        ++i;
      else if (c == '"')
        in_string = false;
      continue;
    }
    if (c == '"')
      in_string = true;
    else if (c == '[')
      ++depth;
    else if (c == ']' && --depth == 0)
      return raw.substr(open, i - open + 1);
  }
  return std::string();
}

/// Park a pre-rendered JSON reply (admin verbs, passthroughs, protocol
/// errors that never had a binary shape) as the task's outcome.
void Router::Impl::resolve_json(RouteTask& task, std::string reply,
                                bool is_error) {
  task.immediate = std::move(reply);
  task.immediate_is_error = is_error;
  task.resolved = true;
}

/// Resolve a task with an error, in whichever shape its client speaks:
/// the message alone for a binary-solve client (encoded as a type-3 frame
/// at send time), the rendered error_json line otherwise.
void Router::Impl::resolve_error(RouteTask& task, const std::string& message) {
  if (task.binary_solve) {
    task.error_message = message;
    task.immediate_is_error = true;
    task.resolved = true;
    return;
  }
  resolve_json(task, error_json(message, task.label, task.client_id), true);
}

/// Decorate a canonical-space report for one client: lift the partition
/// through the request's own permutation record, re-validate, restore the
/// label, and stamp routing telemetry — in place. Returns "" on success,
/// the error message otherwise. `source` names who answered (a backend
/// endpoint, "l1", or "local").
std::string Router::Impl::render_report_core(RouteTask& task,
                                             engine::SolveReport& report,
                                             const char* source) {
  try {
    report.partition = canon::lift(report.partition, task.canonical);
  } catch (const std::exception& e) {
    return std::string("router: lift failed: ") + e.what();
  }
  // Soundness gate — cached snapshots and remote replies are inputs, not
  // trusted state. An invalid certificate becomes an error, never a wrong
  // answer.
  if (!validate_partition(task.original, report.partition))
    return "router: invalid lifted certificate";
  report.label = task.label;
  report.upper_bound = report.partition.size();
  report.add_telemetry("routed.backend", source);
  if (task.failovers > 0)
    report.add_telemetry("routed.failover",
                         static_cast<std::uint64_t>(task.failovers));
  if (task.promoted_now)
    report.add_telemetry("cluster.promote", task.hot_hits);
  return std::string();
}

/// Resolve a task from a canonical-space report: run the lift core, then
/// park the outcome — the JSON reply text for line/type-4 clients, the
/// lifted report object for binary-solve clients (the reply loop encodes
/// the type-2 frame after the trace root closes, so the spans ride the
/// payload).
void Router::Impl::resolve_report(RouteTask& task, engine::SolveReport report,
                                  const char* source) {
  const std::string failure = render_report_core(task, report, source);
  if (!failure.empty()) {
    resolve_error(task, failure);
    return;
  }
  if (task.binary_solve) {
    task.final_report = std::move(report);
    task.immediate_is_error = false;
    task.resolved = true;
    return;
  }
  std::string reply = io::wire_response_json(report, task.include_partition,
                                             task.client_id);
  if (!task.backend_events.empty() && !reply.empty() && reply.back() == '}') {
    // A budget-cut backend attached its flight-recorder tail; the lift
    // re-rendered the reply, so splice the snapshot back in.
    reply.pop_back();
    reply += ",\"events\":" + task.backend_events + "}";
  }
  resolve_json(task, std::move(reply), false);
}

/// Fan a promoted key's canonical-space result to its replica set as
/// `{"op":"put"}` cache writes — fire-and-forget: nobody waits on the
/// replies, a broken replica just misses one write (the next promotion or
/// fresh solve re-fans). Skips the backend that already served it.
void Router::Impl::replicate(RouteTask& task,
                             const engine::SolveReport& report) {
  if (report.partition.empty()) return;
  const std::string serving = task.forwarded && !task.preference.empty()
                                  ? task.preference[task.preference_cursor]
                                  : std::string();
  if (!task.view) task.view = views.current();
  io::WireRequest put;
  put.op = io::WireOp::Put;
  put.request.matrix = task.canonical.pattern;
  put.request.strategy = task.strategy;
  put.put_report = report;
  put.put_report.label.clear();
  // The telemetry and timings describe *this* exchange (the serving
  // backend's cache_hit, routing stamps, phase clocks). Shipping them into
  // a replica's cache would make the replica's future replies lead with
  // stale entries — find_telemetry returns the first match, so a
  // put-warmed replica would report cache_hit:"false" forever. Replicas
  // stamp their own.
  put.put_report.telemetry.clear();
  put.put_report.timings.clear();
  for (const std::string& endpoint :
       task.view->top(task.route_key, options.replicas)) {
    if (endpoint == serving) continue;
    const std::shared_ptr<BackendPool> pool = pool_for(endpoint);
    if (!pool) continue;
    const std::uint64_t id = next_id.fetch_add(1, std::memory_order_relaxed);
    put.id = static_cast<std::int64_t>(id);
    if (pool->submit(id, io::wire_request_json(put), /*framed=*/false,
                     std::make_shared<PendingReply>()))
      replica_puts->add(1);
  }
}

/// Point the watch registry's entry for this task's client id at the
/// backend currently serving it. Called at dispatch and after every
/// failover resubmit, so a watcher landing mid-failover follows the solve.
void Router::Impl::register_watch(const RouteTask& task) {
  if (task.client_id < 0 || !task.forwarded || task.preference.empty())
    return;
  std::lock_guard<std::mutex> lock(watch_mutex);
  watch_routes[task.client_id] = WatchRoute{
      task.preference[task.preference_cursor], task.router_id};
}

/// Drop the registry entry once the task retires — but only our own entry:
/// a second solve reusing the same client id on another connection may
/// have replaced it mid-flight.
void Router::Impl::unregister_watch(const RouteTask& task) {
  if (task.client_id < 0) return;
  std::lock_guard<std::mutex> lock(watch_mutex);
  const auto it = watch_routes.find(task.client_id);
  if (it != watch_routes.end() && it->second.router_id == task.router_id)
    watch_routes.erase(it);
}

/// `{"op":"watch","id":N}` at the router: resolve N to the serving backend
/// and spawn a tracked relay thread. The relay dials the backend on a
/// dedicated socket (watch streams block — they must not ride the pooled
/// pipelined connections), so it cannot run on a reactor worker for the
/// lifetime of someone else's solve.
void Router::Impl::handle_watch(const net::ConnPtr& conn, std::int64_t id,
                                net::WireMode mode) {
  {
    std::lock_guard<std::mutex> lock(watch_mutex);
    if (watch_routes.find(id) == watch_routes.end()) {
      // Mirror the backend's wording: clients retry the same error string
      // whether they watch through a router or directly.
      conn->send(framed_json(
          mode, error_json("watch: no in-flight request with id " +
                               std::to_string(id),
                           "", id)));
      return;
    }
  }
  host.spawn_watch([this, conn, id, mode]() { watch_relay(conn, id, mode); });
}

/// The relay body: forward the watch under the router-assigned id and
/// stream every frame back with the client's id restored. Ends on the
/// backend's done line, backend EOF, client hangup, or drain.
void Router::Impl::watch_relay(const net::ConnPtr& conn, std::int64_t id,
                               net::WireMode mode) {
  WatchRoute route;
  {
    std::lock_guard<std::mutex> lock(watch_mutex);
    const auto it = watch_routes.find(id);
    if (it == watch_routes.end()) {
      // Retired between handle_watch and the thread start — same wording.
      conn->send(framed_json(
          mode, error_json("watch: no in-flight request with id " +
                               std::to_string(id),
                           "", id)));
      return;
    }
    route = it->second;
  }
  std::string host_name;
  std::uint16_t port = 0;
  int fd = -1;
  if (net::parse_endpoint(route.endpoint, host_name, port)) {
    try {
      fd = net::tcp_connect(host_name, port);
    } catch (const std::exception&) {
    }
  }
  if (fd < 0) {
    conn->send(framed_json(mode, error_json("watch: backend '" +
                                                route.endpoint +
                                                "' unreachable",
                                            "", id)));
    return;
  }
  if (!write_line(fd, "{\"op\":\"watch\",\"id\":" +
                          std::to_string(route.router_id) + "}")) {
    ::close(fd);
    conn->send(framed_json(mode, error_json("watch: backend '" +
                                                route.endpoint +
                                                "' unreachable",
                                            "", id)));
    return;
  }
  // Every backend line (frames, the done line, errors) leads with the
  // forwarded id; swap it for the id the client knows.
  const std::string from = "{\"id\":" + std::to_string(route.router_id);
  const std::string to = "{\"id\":" + std::to_string(id);
  timeval nap{0, 200 * 1000};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &nap, sizeof nap);
  net::LineBuffer buffer;
  char chunk[8192];
  bool done = false;
  while (!done && !host.stopping()) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Idle: a client that hung up mid-solve must release this thread
      // (and the backend's) promptly.
      if (conn->closed() || host.stopping()) break;
      continue;
    }
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::string line;
    while (buffer.pop(line)) {
      if (line.rfind(from, 0) == 0) line = to + line.substr(from.size());
      const bool final_line =
          line.find("\"done\":true") != std::string::npos ||
          line.find("\"error\"") != std::string::npos;
      // Intermediate frames ride try_send — watch is diagnostics, not data
      // plane, so a slow watcher loses frames rather than stalling the
      // relay. The terminal line uses send: it must arrive or the
      // connection is already gone.
      const bool ok = final_line ? conn->send(framed_json(mode, line))
                                 : conn->try_send(framed_json(mode, line));
      if (!ok || line.find("\"done\":true") != std::string::npos) {
        done = true;
        break;
      }
    }
  }
  ::close(fd);
}

/// Parse one client message and decide its path: immediate reply,
/// passthrough forward, or canonical forward. Admission happens here,
/// dispatch later.
void Router::Impl::prepare_task(const net::Message& message,
                                RouteTask& task) {
  task.mode = message.mode;
  io::WireRequest wire;
  if (message.mode == net::WireMode::Binary &&
      message.frame_type == net::kFrameSolveRequest) {
    task.binary_solve = true;
    try {
      wire = io::parse_binary_request(message.payload);
    } catch (const std::exception& e) {
      task.client_id = io::binary_salvage_id(message.payload);
      resolve_error(task, e.what());
      return;
    }
  } else if (message.mode == net::WireMode::Binary &&
             message.frame_type != net::kFrameJson) {
    resolve_json(task,
                 error_json("unexpected frame type " +
                                std::to_string(message.frame_type) +
                                " (clients send solve or json frames)",
                            ""),
                 true);
    return;
  } else {
    // A request line, or the identical JSON text in a type-4 frame.
    if (message.payload.find_first_not_of(" \t") == std::string::npos) {
      task.skip = true;
      return;
    }
    try {
      wire = io::parse_wire_request(message.payload);
    } catch (const std::exception& e) {
      resolve_json(task,
                   error_json(e.what(), "",
                              io::salvage_request_id(message.payload)),
                   true);
      return;
    }
  }
  task.client_id = wire.id;
  if (wire.op == io::WireOp::Stats) {
    resolve_json(task, stats_json(wire.id), false);
    return;
  }
  bool admin_error = false;
  if (std::optional<std::string> reply = host.admin_reply(wire, &admin_error)) {
    resolve_json(task, std::move(*reply), admin_error);
    return;
  }
  if (wire.op == io::WireOp::Metrics) {
    if (wire.scope == "fleet") {
      resolve_json(task, fleet_metrics_json(wire.id), false);
      return;
    }
    resolve_json(task,
                 error_json("field 'scope' must be self|local|fleet (got '" +
                                wire.scope + "')",
                            "", wire.id),
                 true);
    return;
  }
  if (wire.op == io::WireOp::Watch) {
    // Relayed from the reply loop (it owns the client fd for streaming).
    task.watch = true;
    return;
  }
  if (wire.op == io::WireOp::Join || wire.op == io::WireOp::Leave ||
      wire.op == io::WireOp::Heartbeat) {
    std::string reply = handle_membership(wire);
    const bool is_error = is_error_reply(reply);
    resolve_json(task, std::move(reply), is_error);
    return;
  }
  if (wire.op == io::WireOp::PeerHello || wire.op == io::WireOp::PeerLease ||
      wire.op == io::WireOp::PeerSync) {
    std::string reply = handle_peer(wire);
    const bool is_error = is_error_reply(reply);
    resolve_json(task, std::move(reply), is_error);
    return;
  }
  if (wire.op == io::WireOp::Put) {
    // The router *sends* puts; receiving one means a misdirected fan-out.
    resolve_json(task,
                 error_json("put is a backend verb, not a router verb", "",
                            wire.id),
                 true);
    return;
  }
  task.label = wire.request.label;
  task.include_partition = wire.include_partition;
  if (!host.try_admit()) {
    resolve_error(task, host.overloaded_message());
    return;
  }
  task.admitted = true;
  task.router_id = next_id.fetch_add(1, std::memory_order_relaxed);

  if (wire.has_trace || options.trace) {
    // Honor a client-sent context; --trace mints one here so a fleet is
    // observable without client changes. The "router.request" root span
    // parents under the client's span (0 = this trace starts here), and
    // the dispatch span id is allocated now because the forwarded line
    // names it as the backend's parent.
    obs::TraceContext ctx =
        wire.has_trace ? wire.trace : obs::make_trace_context();
    task.remote_parent = ctx.parent_span;
    task.root_span = obs::new_span_id();
    task.dispatch_span = obs::new_span_id();
    ctx.parent_span = task.root_span;
    task.trace = std::make_shared<obs::TraceRecorder>(ctx);
  }

  // The client's matrix stays with the task for the lift's re-validation;
  // the forward carries the canonical pattern instead (set below).
  task.original = std::move(wire.request.matrix);
  io::WireRequest forward = wire;
  forward.id = static_cast<std::int64_t>(task.router_id);
  if (task.trace) {
    forward.has_trace = true;
    forward.trace = task.trace->context();
    forward.trace.parent_span = task.dispatch_span;
  }

  if (wire.request.masked) {
    // Masked patterns have no canonical form: forward verbatim, keyed by
    // the raw pattern text alone — ids, labels, and knobs must not split
    // the shard — so repeats of one masked pattern share a backend.
    // Passthroughs always travel as JSON (the binary solve frame cannot
    // carry a mask); backend_payload() renders lazily per pool mode.
    task.passthrough = true;
    task.route_key = fnv1a64(io::render_pattern_text(wire.request));
    task.forward = std::move(forward);
    return;
  }

  task.canonical_mode = true;
  std::uint64_t span_start = obs::steady_micros();
  task.canonical = canon::canonicalize(task.original);
  if (task.trace)
    task.trace->record("router.canon", obs::new_span_id(), task.root_span,
                       span_start, obs::steady_micros());
  task.strategy = wire.request.strategy;
  task.l1_key = task.canonical.key.mixed_with(task.strategy);
  // Shard by the pattern alone (not the strategy): every view of one
  // canonical pattern warms the same backend.
  task.route_key = task.canonical.key.hi ^
                   (task.canonical.key.lo * 0x9e3779b97f4a7c15ULL);

  // All-zero patterns canonicalize to an empty matrix that the wire format
  // cannot carry; their answer is trivial, so the router owns it.
  if (task.canonical.pattern.rows() == 0 ||
      task.canonical.pattern.cols() == 0) {
    engine::SolveReport report;
    report.status = engine::Status::Optimal;
    report.strategy = task.strategy;
    resolve_report(task, std::move(report), "local");
    return;
  }

  // Hot-key accounting happens before the L1 lookup so L1-served repeats
  // heat their key too (promotion must not stall just because the router
  // already answers the key locally).
  const cluster::HotKeyUpdate hot = hot_keys.record(task.route_key);
  task.promoted = hot.promoted;
  task.promoted_now = hot.promoted_now;
  task.hot_hits = hot.hits;
  if (hot.promoted_now)
    promotions->add(1);

  if (l1) {
    span_start = obs::steady_micros();
    std::optional<cache::CachedResult> hit =
        l1->lookup(task.l1_key, task.strategy, task.canonical.pattern);
    if (task.trace)
      task.trace->record("router.l1", obs::new_span_id(), task.root_span,
                         span_start, obs::steady_micros());
    if (hit) {
      l1_hits->add(1);
      engine::SolveReport report = std::move(hit->report);
      // A key promoted off an L1 repeat still warms its replicas — that is
      // the whole point: the backends must hold it before one of them (or
      // this router) goes away.
      if (task.promoted_now) replicate(task, report);
      report.add_telemetry("routed.l1", "hit");
      resolve_report(task, std::move(report), "l1");
      return;
    }
  }

  // Forward the *canonical* pattern: the backend answers in canonical
  // space (its own canon pass is then near-trivial), which is exactly the
  // space the L1 stores and the lift consumes. The client's label stays
  // here; the partition always rides along for the L1 insert. The
  // canonical key rides too: a binary-framed forward carries it so the
  // backend skips its own canon pass entirely (the JSON render ignores
  // these fields — old backends re-derive the key themselves).
  forward.request.matrix = task.canonical.pattern;
  forward.request.label.clear();
  forward.include_partition = true;
  forward.request.pre_canonical = true;
  forward.request.canon_hi = task.canonical.key.hi;
  forward.request.canon_lo = task.canonical.key.lo;
  task.forward = std::move(forward);
}

/// Render (once, memoized) the forward in whichever encoding the serving
/// pool speaks: a complete type-1 solve frame for binary pools on the
/// canonical path, the JSON request line otherwise. Both encodings may be
/// rendered over one task's lifetime — a failover can cross pools with
/// different wire modes.
const std::string& Router::Impl::backend_payload(RouteTask& task,
                                                 bool framed) {
  if (framed) {
    if (task.backend_frame.empty())
      task.backend_frame = net::encode_frame(
          net::kFrameSolveRequest, io::binary_request_payload(task.forward));
    return task.backend_frame;
  }
  if (task.backend_line.empty())
    task.backend_line = io::wire_request_json(task.forward);
  return task.backend_line;
}

/// First submission: take the current view, then walk the key's HRW
/// preference list to the first live pool. False when every backend is
/// down or the view is empty (immediate error reply).
bool Router::Impl::dispatch(RouteTask& task) {
  task.pending = std::make_shared<PendingReply>();
  task.view = views.current();
  task.preference = task.view->ordered(task.route_key);
  task.dispatch_start_us = obs::steady_micros();
  for (std::size_t i = 0; i < task.preference.size(); ++i) {
    const std::shared_ptr<BackendPool> pool = pool_for(task.preference[i]);
    if (!pool) continue;  // membership raced ahead of the pool set
    const bool framed =
        task.canonical_mode && options.binary_backend && pool->binary();
    if (pool->submit(task.router_id, backend_payload(task, framed), framed,
                     task.pending)) {
      task.preference_cursor = i;
      task.failovers += i > 0 ? 1 : 0;
      if (i > 0) {
        failovers->add(1);
      }
      task.forwarded = true;
      register_watch(task);
      return true;
    }
  }
  resolve_error(task, "no live backend (" +
                          std::to_string(task.view->size()) + " members)");
  return false;
}

/// Block for this task's backend reply, failing over to the next live
/// backend in HRW order when the serving connection breaks or times out.
/// Returns the raw reply line, or an empty string when every backend was
/// exhausted (the caller renders the error).
std::string Router::Impl::await_reply(RouteTask& task) {
  // Each failover re-walks the preference list from the slot after the
  // one that failed; a bounded number of total attempts guards against a
  // backend that accepts and immediately breaks, forever.
  std::size_t attempts = 0;
  const std::size_t max_attempts = 2 * task.preference.size() + 2;
  while (attempts++ < max_attempts) {
    const double window = options.reply_timeout_seconds;
    PendingReply::Outcome outcome;
    if (window > 0) {
      outcome = task.pending->wait(window);
    } else {
      // "Wait forever" still polls in slices, so a SIGTERM drain can
      // interrupt a wait on a backend that will never answer.
      do {
        outcome = task.pending->wait(0.5);
      } while (outcome == PendingReply::Outcome::TimedOut &&
               !host.stopping());
    }
    if (outcome == PendingReply::Outcome::Reply) {
      std::lock_guard<std::mutex> lock(task.pending->mutex);
      task.reply_frame_type = task.pending->frame_type;
      return task.pending->line;
    }
    if (outcome == PendingReply::Outcome::TimedOut) {
      // Withdraw the registration; a reply that raced the give-up still
      // counts (served, not re-solved).
      if (const auto pool = pool_for(task.preference[task.preference_cursor]))
        pool->forget(task.router_id);
      if (task.pending->has_reply()) {
        std::lock_guard<std::mutex> lock(task.pending->mutex);
        task.reply_frame_type = task.pending->frame_type;
        return task.pending->line;
      }
    }
    if (host.stopping()) break;
    // The serving backend broke (or hung): resubmit to the next live one.
    // The walk stays on the task's own view — a key whose owner just left
    // fails over along the same preference list the dispatch used.
    bool resubmitted = false;
    for (std::size_t step = 1; step <= task.preference.size(); ++step) {
      const std::size_t i =
          (task.preference_cursor + step) % task.preference.size();
      const std::shared_ptr<BackendPool> pool = pool_for(task.preference[i]);
      if (!pool) continue;
      task.pending->reset();
      const bool framed =
          task.canonical_mode && options.binary_backend && pool->binary();
      if (pool->submit(task.router_id, backend_payload(task, framed), framed,
                       task.pending)) {
        task.preference_cursor = i;
        ++task.failovers;
        failovers->add(1);
        register_watch(task);
        resubmitted = true;
        break;
      }
    }
    if (!resubmitted) break;
  }
  return std::string();
}

/// Resolve a forwarded task from its raw backend reply: a JSON line when
/// `reply_frame_type` is 0 (line replies and type-4 frames look identical
/// here), a raw type-2/3 frame payload otherwise. Empty raw means every
/// backend was exhausted.
void Router::Impl::finalize_reply(RouteTask& task, const std::string& raw) {
  if (task.trace && task.forwarded)
    // Submit → reply received, the backend exchange the server's own
    // "server.request" span (folded below) nests under.
    task.trace->record("router.dispatch", task.dispatch_span, task.root_span,
                       task.dispatch_start_us, obs::steady_micros());
  if (raw.empty()) {
    host.errors->add(1);
    resolve_error(task, "all backends unavailable");
    return;
  }
  if (task.passthrough) {
    // Passthrough forwards are always JSON, so the reply is too.
    const bool is_error = raw.rfind("{\"error\"", 0) == 0;
    if (is_error)
      host.errors->add(1);
    else
      host.requests->add(1);
    resolve_json(task, net::with_id_prefix(raw, task.client_id), is_error);
    return;
  }
  if (task.reply_frame_type == net::kFrameError) {
    // The binary twin of the semantic-error branch below: re-own the
    // message, do not fail over.
    std::string message = "backend error";
    try {
      const io::BinaryError be = io::parse_binary_error(raw);
      if (!be.message.empty()) message = be.message;
    } catch (const std::exception&) {
    }
    host.errors->add(1);
    resolve_error(task, message);
    return;
  }
  engine::SolveReport report;
  if (task.reply_frame_type == net::kFrameSolveReport) {
    try {
      io::BinaryReply br = io::parse_binary_report(raw);
      report = std::move(br.report);
      task.backend_events = br.events_json;
      // Fold the backend's spans into this request's recorder: they
      // already parent under the propagated dispatch span id, so the
      // assembled tree crosses the process boundary without fixups.
      if (task.trace && !br.spans_json.empty()) {
        try {
          task.trace->adopt(obs::spans_from_json(
              io::json::Value::parse(br.spans_json)));
        } catch (const std::exception&) {
          // Span text is diagnostics; a malformed tail never fails a solve.
        }
      }
    } catch (const std::exception& e) {
      host.errors->add(1);
      resolve_error(task,
                    std::string("router: bad backend reply: ") + e.what());
      return;
    }
  } else if (raw.rfind("{\"error\"", 0) == 0) {
    // A semantic backend error (unknown strategy, bad knobs): re-own it so
    // the client sees its own label/id, and do not fail over — every
    // backend would refuse the same request.
    std::string message = "backend error";
    try {
      const io::json::Value document = io::json::Value::parse(raw);
      if (const io::json::Value* error = document.find("error");
          error != nullptr && error->is_string())
        message = error->as_string();
    } catch (const std::exception&) {
    }
    host.errors->add(1);
    resolve_error(task, message);
    return;
  } else {
    try {
      const io::json::Value document = io::json::Value::parse(raw);
      report = io::parse_wire_response(document,
                                       task.canonical.pattern.rows(),
                                       task.canonical.pattern.cols());
      task.backend_events = raw_events_array(raw);
      // Fold the backend's spans into this request's recorder (see the
      // binary branch above).
      if (task.trace) {
        if (const io::json::Value* trace = document.find("trace");
            trace != nullptr && trace->is_object())
          if (const io::json::Value* spans = trace->find("spans");
              spans != nullptr && spans->is_array())
            task.trace->adopt(obs::spans_from_json(*spans));
      }
    } catch (const std::exception& e) {
      host.errors->add(1);
      resolve_error(task,
                    std::string("router: bad backend reply: ") + e.what());
      return;
    }
  }
  // Insert the clean canonical-space report before stamping per-client
  // routing telemetry; the partition must witness the canonical pattern.
  const bool certified = static_cast<bool>(
      validate_partition(task.canonical.pattern, report.partition));
  if (l1 && certified)
    l1->insert(task.l1_key, task.strategy, task.canonical.pattern, report);
  const std::string endpoint = task.preference[task.preference_cursor];
  if (task.promoted && certified) {
    // Replica-aware accounting: a promoted key answered by a non-primary
    // member of its replica set is the survives-a-kill property working.
    if (task.preference_cursor > 0 &&
        task.preference_cursor < options.replicas) {
      replica_hits->add(1);
      report.add_telemetry("cluster.replica_hit",
                           static_cast<std::uint64_t>(task.preference_cursor));
    }
    // Fan the result out when the key just crossed the threshold, or when
    // a backend actually re-solved it (a fresh certificate the other
    // replicas do not have yet). Warm repeats skip the fan-out.
    const std::string* cache_hit = report.find_telemetry("cache_hit");
    if (task.promoted_now ||
        (cache_hit != nullptr && *cache_hit == "false"))
      replicate(task, report);
  }
  const std::uint64_t lift_start = obs::steady_micros();
  resolve_report(task, std::move(report), endpoint.c_str());
  if (task.trace)
    task.trace->record("router.lift", obs::new_span_id(), task.root_span,
                       lift_start, obs::steady_micros());
  if (task.immediate_is_error)
    host.errors->add(1);
  else
    host.requests->add(1);
}

/// One micro-batch: prepare every message, dispatch the forwards (they
/// run concurrently on the backends — the pipelined fan-out), then await
/// and send replies in message order. Runs on a reactor worker: a blocked
/// await occupies the worker, never an event loop, which is why the route
/// tier sizes io_workers far above the serve tier's pool.
void Router::Impl::process_batch(const net::ConnPtr& conn,
                                 std::vector<net::Message> messages) {
  const std::uint64_t batch_start_us = obs::steady_micros();
  std::vector<RouteTask> tasks(messages.size());
  std::size_t admitted = 0;
  for (std::size_t i = 0; i < messages.size(); ++i) {
    RouteTask& task = tasks[i];
    const net::Message& m = messages[i];
    if (m.upgrade) {
      task.mode = m.mode;
      task.client_id = io::salvage_request_id(m.payload);
      resolve_json(task, net::upgrade_ack(task.client_id), false);
      continue;
    }
    prepare_task(m, task);
    if (task.admitted) ++admitted;
    if (task.admitted && !task.resolved) dispatch(task);
  }

  for (RouteTask& task : tasks) {
    if (task.skip) continue;
    if (task.watch) {
      // Spawns a tracked relay thread — the stream must not occupy this
      // worker for the lifetime of someone else's solve.
      if (!conn->closed()) handle_watch(conn, task.client_id, task.mode);
      continue;
    }
    const bool pre_resolved = task.resolved;
    if (!task.resolved) {
      finalize_reply(task, await_reply(task));
      unregister_watch(task);
    }
    const bool is_error = task.immediate_is_error;
    if (pre_resolved) {
      if (is_error)
        host.errors->add(1);
      else if (task.admitted || task.canonical_mode)
        host.requests->add(1);
    }

    const std::uint64_t done_us = obs::steady_micros();
    const std::uint64_t elapsed_us = done_us - batch_start_us;
    std::string trace_hex;
    std::string spans_json;
    if (task.trace) {
      // Close the root span, attach the assembled spans (router's own +
      // the backend's, folded in finalize_reply) to the reply, and publish
      // the trace before the send so an immediate {"op":"trace"} on
      // another connection finds it.
      const obs::TraceContext& ctx = task.trace->context();
      trace_hex = obs::trace_id_hex(ctx.hi, ctx.lo);
      task.trace->record("router.request", task.root_span, task.remote_parent,
                         task.trace->created_us(), done_us);
      std::vector<obs::Span> spans = task.trace->spans();
      // Passthrough replies are forwarded verbatim and already carry the
      // backend's own trace member; splicing a second one would duplicate
      // the key. Their router spans live in the local store only.
      if (!is_error && !task.passthrough) {
        if (task.binary_solve) {
          // The spans array rides the type-2 payload itself.
          spans_json = obs::spans_json(spans);
        } else if (!task.immediate.empty() && task.immediate.back() == '}') {
          task.immediate.pop_back();
          task.immediate += ",\"trace\":{\"id\":\"" + trace_hex +
                            "\",\"spans\":" + obs::spans_json(spans) + "}}";
        }
      }
      host.traces().add(ctx.hi, ctx.lo, std::move(spans));
    }
    if (task.admitted) {
      host.request_micros->record(elapsed_us);
      if (host.is_slow(elapsed_us))
        log_slow(task, static_cast<double>(elapsed_us) / 1000.0, trace_hex);
    }

    if (task.binary_solve) {
      const std::uint8_t out_type =
          is_error ? net::kFrameError : net::kFrameSolveReport;
      const std::string payload =
          is_error ? io::binary_error_payload(task.client_id,
                                              task.error_message, task.label)
                   : io::binary_report_payload(
                         *task.final_report, task.include_partition,
                         task.client_id, task.original.rows(),
                         task.original.cols(), task.backend_events,
                         spans_json);
      conn->send(net::encode_frame(out_type, payload));
    } else {
      conn->send(framed_json(task.mode, task.immediate));
    }
    // A dead client still drains its remaining in-flight awaits (send on
    // a closed connection is a harmless no-op) so admission slots and
    // pending ids retire cleanly.
  }
  host.release_admitted(admitted);
}

void Router::Impl::health_loop() {
  const long interval_ns = static_cast<long>(
      std::max(1.0, options.health_interval_ms) * 1e6);
  while (!host.stopping()) {
    timespec nap{interval_ns / 1000000000L, interval_ns % 1000000000L};
    ::nanosleep(&nap, nullptr);
    std::vector<std::shared_ptr<BackendPool>> snapshot;
    {
      std::lock_guard<std::mutex> lock(pools_mutex);
      snapshot.reserve(pools.size());
      for (const auto& [endpoint, pool] : pools) snapshot.push_back(pool);
    }
    for (const auto& pool : snapshot) pool->maintain();
    if (!options.dynamic) continue;
    // Fleet mode: eviction is a membership *write*, so only the
    // leaseholder sweeps. A follower's view stays whatever the holder last
    // replicated — evicting locally would only diverge until the next
    // sync overwrote it.
    if (lease && !lease->status().held) continue;
    // Missed-heartbeat eviction: drop silent members, publish the new
    // epoch, then break their pools (outside the cluster lock) so any
    // in-flight replies fail over promptly.
    std::vector<std::string> evicted;
    std::vector<std::shared_ptr<BackendPool>> detached;
    {
      std::lock_guard<std::mutex> lock(cluster_mutex);
      evicted = membership.sweep();
      if (!evicted.empty()) {
        publish_view();
        for (const std::string& endpoint : evicted)
          if (auto pool = detach_pool(endpoint))
            detached.push_back(std::move(pool));
      }
    }
    evictions->add(evicted.size());
    for (const auto& pool : detached) pool->shutdown();
  }
}

Router::Router(RouterOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Router::~Router() { stop(); }

void Router::start() {
  Impl& impl = *impl_;
  if (impl.options.backends.empty() && !impl.options.dynamic)
    throw std::runtime_error(
        "router needs at least one backend (or --dynamic to let backends "
        "join)");
  for (const std::string& peer : impl.options.peers) {
    std::string host_name;
    std::uint16_t port = 0;
    if (!net::parse_endpoint(peer, host_name, port))
      throw std::runtime_error("bad peer endpoint '" + peer +
                               "' (want host:port)");
  }
  if (!impl.options.peers.empty() && impl.options.advertise.empty() &&
      (impl.options.host == "0.0.0.0" || impl.options.host == "::"))
    throw std::runtime_error(
        "--peers with a wildcard bind address needs --advertise=host:port "
        "(the identity peers grant the lease to and redirect clients at)");
  {
    std::lock_guard<std::mutex> lock(impl.cluster_mutex);
    for (const std::string& endpoint : impl.options.backends) {
      std::string host_name;
      std::uint16_t port = 0;
      if (!net::parse_endpoint(endpoint, host_name, port))
        throw std::runtime_error("bad backend endpoint '" + endpoint +
                                 "' (want host:port)");
      // Membership dedups by endpoint, so a repeated endpoint cannot
      // shadow a shard.
      const std::string normalized = host_name + ":" + std::to_string(port);
      impl.membership.add_static(normalized);
      impl.ensure_pool(normalized);
    }
    impl.publish_view();
  }
  // Best-effort initial connects: a late backend just starts in backoff.
  {
    std::vector<std::shared_ptr<BackendPool>> snapshot;
    {
      std::lock_guard<std::mutex> lock(impl.pools_mutex);
      for (const auto& [endpoint, pool] : impl.pools)
        snapshot.push_back(pool);
    }
    for (const auto& pool : snapshot) pool->maintain();
  }

  const auto make_lease = [&impl](std::uint16_t port) {
    impl.self_endpoint =
        impl.options.advertise.empty()
            ? impl.options.host + ":" + std::to_string(port)
            : impl.options.advertise;
    if (impl.options.peers.empty()) return;
    cluster::LeaderLease::Options lease_options;
    lease_options.self = impl.self_endpoint;
    lease_options.ttl = std::chrono::duration_cast<cluster::LeaseClock::duration>(
        std::chrono::duration<double, std::milli>(impl.options.lease_ttl_ms));
    impl.lease = std::make_unique<cluster::LeaderLease>(lease_options);
  };
  // A peer's hello can arrive the moment the port is bound, so the lease
  // exists before the reactor serves whenever the endpoint is known up
  // front; only an ephemeral port without --advertise waits for the bind.
  const bool endpoint_known =
      impl.options.port != 0 || !impl.options.advertise.empty();
  if (endpoint_known) make_lease(impl.options.port);
  impl.host.start();
  if (!endpoint_known) make_lease(impl.host.port());
  impl.health_thread = std::thread([&impl]() { impl.health_loop(); });
  if (impl.lease)
    impl.sync_thread = std::thread([&impl]() { impl.sync_loop(); });
}

void Router::stop() {
  Impl& impl = *impl_;
  if (!impl.host.begin_stop()) return;

  // Drain first: messages already handed to workers keep flowing — the
  // backend pools are still up, so in-flight awaits complete and every
  // accepted request is answered before the host joins. Only then tear
  // down the transport.
  impl.host.drain();
  if (impl.health_thread.joinable()) impl.health_thread.join();
  if (impl.sync_thread.joinable()) impl.sync_thread.join();
  std::vector<std::shared_ptr<BackendPool>> snapshot;
  {
    std::lock_guard<std::mutex> lock(impl.pools_mutex);
    for (const auto& [endpoint, pool] : impl.pools) snapshot.push_back(pool);
  }
  for (const auto& pool : snapshot) pool->shutdown();
}

bool Router::running() const noexcept { return impl_->host.running(); }

std::uint16_t Router::port() const noexcept { return impl_->host.port(); }

RouterStats Router::stats() const {
  const Impl& impl = *impl_;
  RouterStats out;
  out.connections = impl.host.connections->value();
  out.requests = impl.host.requests->value();
  out.errors = impl.host.errors->value();
  out.rejected = impl.host.rejected->value();
  out.l1_hits = impl.l1_hits->value();
  out.failovers = impl.failovers->value();
  out.epoch = impl.membership.epoch();
  out.members = impl.membership.size();
  out.joins = impl.joins->value();
  out.leaves = impl.leaves->value();
  out.evictions = impl.evictions->value();
  out.promotions = impl.promotions->value();
  out.replica_hits = impl.replica_hits->value();
  out.replica_puts = impl.replica_puts->value();
  out.promoted = impl.hot_keys.promoted_count();
  if (impl.lease) {
    const cluster::LeaseStatus status = impl.lease->status();
    out.lease_holder = status.holder;
    out.term = status.term;
    out.leaseholder = status.held;
  } else {
    out.lease_holder = impl.self_endpoint;
    out.leaseholder = true;  // standalone: the implicit lease is ours
  }
  out.lease_acquires = impl.lease_acquires->value();
  out.lease_renewals = impl.lease_renewals->value();
  out.redirects = impl.redirects->value();
  out.forwards = impl.forwards->value();
  out.syncs_sent = impl.syncs_sent->value();
  out.syncs_applied = impl.syncs_applied->value();
  for (const Impl::BackendSnapshot& backend : impl.backend_snapshot()) {
    const PoolStats stats = backend.pool->stats();
    BackendHealth health;
    health.endpoint = backend.endpoint;
    health.alive = stats.alive;
    health.binary = stats.binary;
    health.is_static = backend.is_static;
    health.requests = stats.requests;
    health.failures = stats.failures;
    out.backends.push_back(std::move(health));
  }
  return out;
}

const std::shared_ptr<cache::ResultCache>& Router::l1() const noexcept {
  return impl_->l1;
}

// ---- route_forever --------------------------------------------------------

int route_forever(const RouterOptions& options, std::ostream& log) {
  Router router(options);
  const auto start = [&]() {
    router.start();
    log << "ebmf router listening on " << options.host << ":" << router.port()
        << " over " << options.backends.size() << " static backends"
        << (options.dynamic ? " (dynamic: join/leave/heartbeat enabled)" : "")
        << " (l1-mb=" << options.l1_mb
        << ", max-inflight=" << options.max_inflight
        << ", replicas=" << options.replicas << ")" << std::endl;
    if (!options.peers.empty()) {
      log << "fleet: " << options.peers.size() << " peers, lease-ttl="
          << options.lease_ttl_ms << "ms";
      if (!options.advertise.empty())
        log << ", advertise=" << options.advertise;
      log << std::endl;
    }
  };
  const auto drain = [&]() {
    router.stop();
    const RouterStats stats = router.stats();
    log << "routed " << stats.requests << " requests, " << stats.errors
        << " errors, " << stats.rejected << " rejected, " << stats.l1_hits
        << " l1 hits, " << stats.failovers << " failovers, across "
        << stats.connections << " connections" << std::endl;
    log << "cluster: epoch " << stats.epoch << ", " << stats.members
        << " members (" << stats.joins << " joins, " << stats.leaves
        << " leaves, " << stats.evictions << " evictions); "
        << stats.promotions << " promotions, " << stats.replica_hits
        << " replica hits, " << stats.replica_puts << " replica puts"
        << std::endl;
    if (!options.peers.empty())
      log << "fleet: term " << stats.term << ", holder "
          << (stats.lease_holder.empty() ? "<none>" : stats.lease_holder)
          << (stats.leaseholder ? " (this router)" : "") << "; "
          << stats.lease_acquires << " acquires, " << stats.lease_renewals
          << " renewals, " << stats.forwards << " forwards, "
          << stats.redirects << " redirects, " << stats.syncs_sent
          << " syncs sent, " << stats.syncs_applied << " applied"
          << std::endl;
    for (const BackendHealth& backend : stats.backends)
      log << "  backend " << backend.endpoint << ": "
          << (backend.alive ? "alive" : "down")
          << (backend.is_static ? " (static)" : " (announced)") << ", "
          << backend.requests << " requests, " << backend.failures
          << " failures" << std::endl;
  };
  return net::run_until_signal(options.cache_file, router.l1().get(), log,
                               start, drain);
}

}  // namespace ebmf::router
