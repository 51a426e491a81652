// The solver server: a net::Host handler (net/host.h). Batches flow from
// the reactor's workers into the engine, and connections speak line-JSON
// or (after `{"op":"upgrade"}`) the binary frame protocol. What is the
// server's own lives here: batch processing, budget cancellation (hard
// socket deaths, SIGTERM drain), watch streams of in-flight solves,
// replica puts, and the announce control plane.

#include "service/service.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/partition.h"
#include "io/binary_io.h"
#include "io/json.h"
#include "io/request_io.h"
#include "net/frame.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "service/canon.h"

namespace ebmf::service {

namespace {

using net::error_json;
using net::framed_json;
using net::write_line;

/// Owner-side per-connection state hung on the reactor connection.
struct ConnState {
  /// Cancellation flag threaded into every Budget this connection solves
  /// under; flipped by on_close on a hard death and by on_drain.
  std::shared_ptr<std::atomic<bool>> cancel =
      std::make_shared<std::atomic<bool>>(false);
};

std::shared_ptr<ConnState> conn_state(const net::ConnPtr& conn) {
  return std::static_pointer_cast<ConnState>(conn->user());
}

}  // namespace

struct Server::Impl final : net::Handler {
  explicit Impl(ServerOptions opt)
      : options(std::move(opt)), host(options, "server", 0, *this) {
    if (options.cache_mb > 0)
      engine.set_cache(cache::ResultCache::with_capacity_mb(options.cache_mb));
  }

  ServerOptions options;
  engine::Engine engine;
  net::Host host;

  // The server's own series, in the host's instance registry.
  obs::Counter* const puts = host.counter("puts");
  obs::Counter* const joins_sent = host.counter("joins_sent");
  obs::Counter* const join_rejects = host.counter("join_rejects");

  /// One in-flight solve visible to `{"op":"watch"}` and the stats panel.
  struct InflightEntry {
    obs::ProgressSinkPtr sink;
    std::string strategy;
    std::string label;
    std::uint64_t start_us = 0;
  };
  /// Wire id → in-flight entry. Only id-carrying solve requests register
  /// (an id is how a watcher names the solve); entries unregister — and
  /// their sink finishes, releasing every watcher — when the solve's
  /// reply is built.
  mutable std::mutex inflight_mutex;
  std::map<std::int64_t, InflightEntry> inflight_watch;

  /// The announce clients' live sockets, one slot per router in the
  /// (comma-separated) --announce list; -1 when that session is down.
  /// stop() shuts them down (under the mutex, so a concurrent close/reuse
  /// can never hand it a recycled descriptor) to wake blocking heartbeat
  /// reads. Announcing to *every* router of a fleet keeps each router's
  /// local liveness view fresh, so a follower that takes the lease
  /// already knows this backend is alive.
  std::vector<std::thread> announce_threads;
  std::mutex announce_mutex;
  std::vector<int> announce_fds;

  void on_batch(const net::ConnPtr& conn,
                std::vector<net::Message> messages) override {
    process_batch(conn, std::move(messages));
  }
  void on_open(const net::ConnPtr& conn) override {
    conn->set_user(std::make_shared<ConnState>());
  }
  /// A hard death (RST, write overflow) cancels the connection's budgets —
  /// the anytime contract turns that into a fast valid return, freeing the
  /// admission slot. An orderly FIN keeps them: one-shot clients
  /// half-close and then read their answers.
  void on_close(const net::ConnPtr& conn, bool aborted) override {
    if (aborted) on_drain(conn);
  }
  /// The drain cancels every in-flight budget, so accepted requests are
  /// answered fast (and still validly) before the connections close.
  void on_drain(const net::ConnPtr& conn) override {
    if (const std::shared_ptr<ConnState> state = conn_state(conn))
      state->cancel->store(true, std::memory_order_relaxed);
  }

  std::string stats_json(std::int64_t id) const;
  std::string handle_put(const io::WireRequest& wire);
  void handle_watch(const net::ConnPtr& conn, std::int64_t id,
                    net::WireMode mode);
  void watch_stream(const net::ConnPtr& conn,
                    const obs::ProgressSinkPtr& sink, std::int64_t id,
                    net::WireMode mode);
  void log_slow(const engine::SolveReport& report, double elapsed_ms,
                const std::string& trace_id);
  std::string advertised_endpoint() const;
  int dial_announce(const std::string& host, std::uint16_t port);
  bool announce_round(const std::string& host, std::uint16_t port,
                      const std::string& self, std::size_t slot);
  void announce_loop(std::string router, std::size_t slot);
  void process_batch(const net::ConnPtr& conn,
                     std::vector<net::Message> messages);
};

/// The `{"op":"stats"}` reply: server counters + cache counters, one line.
std::string Server::Impl::stats_json(std::int64_t id) const {
  std::ostringstream out;
  out << host.stats_head(id, {{"puts", puts},
                              {"joins_sent", joins_sent},
                              {"join_rejects", join_rejects}});
  out << ",\"cache\":" << cache::stats_json(engine.cache().get());
  // The in-flight requests panel (ebmf top): one entry per watchable solve
  // with its live incumbent/bound bracket from the progress sink.
  out << ",\"inflight_requests\":[";
  {
    const std::lock_guard<std::mutex> lock(inflight_mutex);
    bool first = true;
    const std::uint64_t now_us = obs::steady_micros();
    for (const auto& [wid, entry] : inflight_watch) {
      if (!first) out << ",";
      first = false;
      const obs::ProgressFrame last = entry.sink->last();
      out << "{\"id\":" << wid << ",\"strategy\":\""
          << io::json::escape(entry.strategy) << "\"";
      if (!entry.label.empty())
        out << ",\"label\":\"" << io::json::escape(entry.label) << "\"";
      out << ",\"elapsed_ms\":"
          << (now_us > entry.start_us ? (now_us - entry.start_us) / 1000 : 0)
          << ",\"incumbent_depth\":" << last.incumbent_depth
          << ",\"lower_bound\":" << last.lower_bound
          << ",\"gap\":" << last.gap << "}";
    }
  }
  out << "]";
  out << ",\"metrics\":" << host.metrics_json();
  out << "}";
  return out.str();
}

namespace {

std::string watch_frame_line(std::int64_t id, const obs::ProgressFrame& f) {
  std::string line = obs::progress_frame_json(f);
  if (id >= 0 && !line.empty() && line.front() == '{')
    line = "{\"id\":" + std::to_string(id) + "," + line.substr(1);
  return line;
}

}  // namespace

/// `{"op":"watch","id":N}`: stream the named in-flight solve's progress
/// frames to this connection as JSONL (framed per the connection's wire
/// mode), then a final `{"done":true}` line when the solve retires. The
/// stream runs on a host watch thread so it never occupies a reactor
/// worker for the lifetime of someone else's solve; the publishing solver
/// is never blocked either — the stream thread reads the sink's retained
/// frames and sends them through conn->try_send, which drops on
/// backpressure and reports a closed connection.
void Server::Impl::handle_watch(const net::ConnPtr& conn, std::int64_t id,
                                net::WireMode mode) {
  obs::ProgressSinkPtr sink;
  {
    const std::lock_guard<std::mutex> lock(inflight_mutex);
    const auto it = inflight_watch.find(id);
    if (it != inflight_watch.end()) sink = it->second.sink;
  }
  if (!sink) {
    conn->send(framed_json(
        mode, error_json("watch: no in-flight request with id " +
                             std::to_string(id),
                         "", id)));
    return;
  }
  host.spawn_watch(
      [this, conn, sink, id, mode]() { watch_stream(conn, sink, id, mode); });
}

void Server::Impl::watch_stream(const net::ConnPtr& conn,
                                const obs::ProgressSinkPtr& sink,
                                std::int64_t id, net::WireMode mode) {
  // This thread sends every retained frame itself, in seq order, waking on
  // each publish; the publishing solver never writes to a socket. try_send
  // drops frames a slow subscriber can't absorb (watch is diagnostics, not
  // data plane) and is false only on a closed connection.
  bool dead = false;
  std::uint64_t next_seq = 0;  // the first frame not yet sent
  for (;;) {
    const bool finished = sink->wait_published(next_seq, 0.05);
    for (const obs::ProgressFrame& frame : sink->frames()) {
      if (frame.seq < next_seq) continue;
      next_seq = frame.seq + 1;
      if (!conn->try_send(framed_json(mode, watch_frame_line(id, frame)))) {
        dead = true;
        break;
      }
    }
    if (dead || finished || host.stopping() || conn->closed()) break;
  }
  if (!dead && !conn->closed()) {
    std::string done_line = "{";
    if (id >= 0) done_line += "\"id\":" + std::to_string(id) + ",";
    done_line += "\"watch\":true,\"done\":true,\"frames\":" +
                 std::to_string(sink->published()) + "}";
    conn->send(framed_json(mode, done_line));
  }
}

/// One slow-request JSON line: wall-clock, trace id (when traced), the
/// canonical key prefix, strategy, and per-phase timings — enough to pull
/// the full span tree via `{"op":"trace"}` or find the pattern in the
/// cache.
void Server::Impl::log_slow(const engine::SolveReport& report,
                            double elapsed_ms, const std::string& trace_id) {
  std::ostringstream line;
  line << "{\"slow\":true,\"tier\":\"server\",\"ms\":"
       << io::json::number(elapsed_ms) << ",\"strategy\":\""
       << io::json::escape(report.strategy) << "\"";
  if (!report.label.empty())
    line << ",\"label\":\"" << io::json::escape(report.label) << "\"";
  if (!trace_id.empty())
    line << ",\"trace\":\"" << io::json::escape(trace_id) << "\"";
  if (const std::string* key = report.find_telemetry("canon.key"))
    line << ",\"canon_key\":\"" << io::json::escape(key->substr(0, 16))
         << "\"";
  line << ",\"timings\":{";
  for (std::size_t i = 0; i < report.timings.size(); ++i) {
    if (i != 0) line << ",";
    line << "\"" << io::json::escape(report.timings[i].phase)
         << "\":" << io::json::number(report.timings[i].seconds);
  }
  line << "}";
  host.log_slow(line.str());
}

/// `{"op":"put"}`: a replica cache write from the router. The payload is
/// an input, not trusted state — the pattern must already be canonical
/// (so the stored key matches what this server's own lookups compute) and
/// the certificate must validate before anything reaches the cache; a bad
/// put becomes an error reply, never a wrong cached answer.
std::string Server::Impl::handle_put(const io::WireRequest& wire) {
  if (!engine.cache())
    return error_json("put: this server runs without a cache", "", wire.id);
  const canon::Canonical canonical = canon::canonicalize(wire.request.matrix);
  if (!(canonical.pattern == wire.request.matrix))
    return error_json("put: pattern is not canonical", "", wire.id);
  if (wire.put_report.partition.empty() ||
      !validate_partition(canonical.pattern, wire.put_report.partition))
    return error_json("put: invalid certificate", "", wire.id);
  const canon::CacheKey key = canonical.key.mixed_with(wire.request.strategy);
  engine.cache()->insert(key, wire.request.strategy, canonical.pattern,
                         wire.put_report);
  puts->add(1);
  std::ostringstream out;
  out << "{";
  if (wire.id >= 0) out << "\"id\":" << wire.id << ",";
  out << "\"ok\":true,\"put\":true}";
  return out.str();
}

/// The endpoint this server announces: --advertise when given, else the
/// bind host plus the actually-bound port (resolves --port=0).
std::string Server::Impl::advertised_endpoint() const {
  if (!options.advertise.empty()) return options.advertise;
  const std::uint16_t bound = host.port() != 0 ? host.port() : options.port;
  return options.host + ":" + std::to_string(bound);
}

/// Announce-path connect: a non-blocking dial polled in slices (so stop()
/// lands within ~50 ms even against an unroutable router, instead of the
/// kernel SYN timeout), then a bounded recv window (so a router that
/// accepts but never answers cannot wedge the announce thread — stop()
/// joins it). Returns -1 on any failure; the caller retries.
int Server::Impl::dial_announce(const std::string& host_name,
                                std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host_name.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return -1;
    }
    bool connected = false;
    for (int slice = 0; slice < 40 && !host.stopping(); ++slice) {
      pollfd waiter{fd, POLLOUT, 0};
      const int ready = ::poll(&waiter, 1, 50);
      if (ready < 0 && errno == EINTR) continue;
      if (ready != 0) {
        int error = 0;
        socklen_t length = sizeof error;
        connected = ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error,
                                 &length) == 0 &&
                    error == 0;
        break;
      }
    }
    if (!connected) {
      ::close(fd);
      return -1;
    }
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  timeval window{};
  window.tv_sec = 2;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &window, sizeof window);
  return fd;
}

/// One announce session: dial the router, join, then heartbeat until the
/// session breaks (router gone, eviction notice, or stop()). Returns true
/// when the session ended because of stop() — the loop must not retry.
bool Server::Impl::announce_round(const std::string& host_name,
                                  std::uint16_t port, const std::string& self,
                                  std::size_t slot) {
  const int fd = dial_announce(host_name, port);
  if (fd < 0) return host.stopping();
  {
    std::lock_guard<std::mutex> lock(announce_mutex);
    announce_fds[slot] = fd;
  }
  net::LineBuffer buffer;
  std::string reply;
  const std::string endpoint_json = "\"endpoint\":\"" +
                                    io::json::escape(self) + "\"}";
  bool stopped = false;
  bool joined = false;
  if (write_line(fd, "{\"op\":\"join\"," + endpoint_json) &&
      net::read_line(fd, buffer, reply))
    joined = reply.find("\"joined\":true") != std::string::npos;
  // A router that answered but refused (not --dynamic, bad endpoint) must
  // not be indistinguishable from an unreachable one: the reject counter
  // shows up in this server's own stats verb.
  if (!reply.empty() && !joined) join_rejects->add(1);
  if (joined) {
    joins_sent->add(1);
    // Heartbeat until the router stops answering or asks for a re-join.
    while (!(stopped = host.stopping())) {
      // Nap one heartbeat interval in slices so stop() lands promptly.
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration<double, std::milli>(options.heartbeat_ms);
      while (std::chrono::steady_clock::now() < deadline && !host.stopping()) {
        timespec nap{0, 20 * 1000 * 1000};
        ::nanosleep(&nap, nullptr);
      }
      if ((stopped = host.stopping())) break;
      if (!write_line(fd, "{\"op\":\"heartbeat\"," + endpoint_json)) break;
      if (!net::read_line(fd, buffer, reply)) break;
      if (reply.find("\"rejoin\":true") != std::string::npos) break;
    }
  }
  // A graceful stop says goodbye on the session it held; eviction after a
  // crash is the fallback, not the normal path. The session fd is only
  // read-shutdown by stop() (to wake a blocking reply read), so the leave
  // write still goes through — re-check stopping() because the wake-up
  // itself surfaces as a failed read, not as `stopped`.
  if (stopped || host.stopping())
    write_line(fd, "{\"op\":\"leave\"," + endpoint_json);
  {
    // Deregister before closing: once the slot is -1 under the lock,
    // stop() can no longer shut this (possibly recycled) descriptor down.
    std::lock_guard<std::mutex> lock(announce_mutex);
    announce_fds[slot] = -1;
  }
  ::close(fd);
  return stopped || host.stopping();
}

/// One announce client: join + heartbeat sessions against one router,
/// retried with a pause while that router is unreachable. A fleet runs
/// one of these per --announce entry.
void Server::Impl::announce_loop(std::string router, std::size_t slot) {
  std::string host_name;
  std::uint16_t port = 0;
  if (!net::parse_endpoint(router, host_name, port)) return;
  const std::string self = advertised_endpoint();
  while (!announce_round(host_name, port, self, slot)) {
    // Router unreachable or session broken: pause one heartbeat before
    // re-dialing (also in slices, for prompt stop()).
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration<double, std::milli>(
            std::max(50.0, options.heartbeat_ms));
    while (std::chrono::steady_clock::now() < deadline && !host.stopping()) {
      timespec nap{0, 20 * 1000 * 1000};
      ::nanosleep(&nap, nullptr);
    }
    if (host.stopping()) break;
  }
}

namespace {

/// One message's lifecycle through a batch.
struct PendingLine {
  bool skip = false;      ///< Blank line / handled elsewhere: no reply here.
  std::string error;      ///< Non-empty: reply with an error.
  std::string label;      ///< For error replies.
  std::int64_t id = -1;   ///< Correlation id echoed into the reply.
  std::string immediate;  ///< Pre-rendered JSON reply (admin verbs).
  bool admitted = false;
  bool split = false;
  bool include_partition = false;
  /// Reply framing: the mode + frame type of the triggering message. A
  /// type-1 binary solve answers with a type-2 report (or type-3 error);
  /// everything else answers JSON, framed per `mode`.
  net::WireMode mode = net::WireMode::Line;
  std::uint8_t frame_type = 0;
  std::size_t rows = 0;  ///< Pattern shape for the binary report encoding.
  std::size_t cols = 0;
  /// Progress sink registered under `watch_id` for `{"op":"watch"}`;
  /// finished + unregistered when the reply is built.
  obs::ProgressSinkPtr sink;
  std::int64_t watch_id = -1;
  std::size_t batch_index = 0;  ///< Into the solve_batch vector.
  std::optional<io::WireRequest> wire;            ///< Split path keeps it.
  std::optional<engine::SolveReport> report;      ///< Split path result.
  /// Tracing (set when the request carried a "trace" member): the span
  /// recorder shared with the engine, this request's "server.request" root
  /// span id, and the sender's span the root parents under.
  obs::TracePtr trace;
  std::uint64_t root_span = 0;
  std::uint64_t remote_parent = 0;
};

}  // namespace

/// Parse, admit, solve, and answer one micro-batch, preserving message
/// order. Runs on a reactor worker; replies cork into the connection's
/// write queue (one writev per batch on the happy path).
void Server::Impl::process_batch(const net::ConnPtr& conn,
                                 std::vector<net::Message> messages) {
  const std::shared_ptr<ConnState> state = conn_state(conn);
  const std::uint64_t batch_start_us = obs::steady_micros();
  std::vector<PendingLine> pending(messages.size());
  std::vector<engine::SolveRequest> batch;
  std::size_t admitted = 0;

  for (std::size_t i = 0; i < messages.size(); ++i) {
    PendingLine& p = pending[i];
    const net::Message& m = messages[i];
    p.mode = m.mode;
    p.frame_type = m.frame_type;
    if (m.upgrade) {
      p.id = io::salvage_request_id(m.payload);
      p.immediate = net::upgrade_ack(p.id);
      continue;
    }
    io::WireRequest wire;
    if (m.mode == net::WireMode::Binary &&
        m.frame_type == net::kFrameSolveRequest) {
      try {
        wire = io::parse_binary_request(m.payload);
      } catch (const std::exception& e) {
        p.error = e.what();
        p.id = io::binary_salvage_id(m.payload);
        continue;
      }
    } else if (m.mode == net::WireMode::Binary &&
               m.frame_type != net::kFrameJson) {
      p.error = "unexpected frame type " + std::to_string(m.frame_type) +
                " (clients send solve or json frames)";
      continue;
    } else {
      // A request line, or the identical JSON text in a type-4 frame.
      if (m.payload.find_first_not_of(" \t") == std::string::npos) {
        p.skip = true;
        continue;
      }
      try {
        wire = io::parse_wire_request(m.payload);
      } catch (const std::exception& e) {
        p.error = e.what();
        // A client (or the router) correlating by id needs it echoed even
        // on a rejected request.
        p.id = io::salvage_request_id(m.payload);
        continue;
      }
    }
    p.id = wire.id;
    if (wire.op == io::WireOp::Stats) {
      // Admin verb: answered from counters, never admitted or solved.
      p.immediate = stats_json(wire.id);
      continue;
    }
    bool admin_error = false;
    if (std::optional<std::string> reply = host.admin_reply(wire, &admin_error)) {
      p.immediate = std::move(*reply);
      continue;
    }
    if (wire.op == io::WireOp::Metrics) {
      // Fleet scope is a router capability — a backend only has itself.
      p.error = wire.scope == "fleet"
                    ? "metrics scope 'fleet' needs a router (ebmf route)"
                    : "field 'scope' must be self|local" +
                          std::string(" (got '") + wire.scope + "')";
      continue;
    }
    if (wire.op == io::WireOp::Watch) {
      // Streams on this connection from a host watch thread until the
      // watched solve retires; the batch moves on immediately.
      handle_watch(conn, wire.id, p.mode);
      p.skip = true;
      continue;
    }
    if (wire.op == io::WireOp::Put) {
      // Replica cache write: validated + inserted inline, but under the
      // same admission gate as solves — canonicalization + certificate
      // validation on untrusted payloads is real work, and a put flood
      // must shed exactly like a solve flood.
      if (!host.try_admit()) {
        p.error = host.overloaded_message();
        continue;
      }
      p.admitted = true;
      ++admitted;
      p.immediate = handle_put(wire);
      if (p.immediate.rfind("{\"error\"", 0) == 0 ||
          p.immediate.find(",\"error\"", 0) != std::string::npos)
        host.errors->add(1);
      continue;
    }
    if (wire.op == io::WireOp::Join || wire.op == io::WireOp::Leave ||
        wire.op == io::WireOp::Heartbeat) {
      // Membership verbs belong to the router's control plane; a backend
      // answering them would silently swallow a misconfigured announce.
      p.error = "cluster membership verbs go to a router (ebmf route "
                "--dynamic), not a backend server";
      continue;
    }
    p.label = wire.request.label;
    p.include_partition = wire.include_partition;
    p.rows = wire.request.matrix.rows();
    p.cols = wire.request.matrix.cols();
    if (!host.try_admit()) {
      p.error = host.overloaded_message();
      continue;
    }
    p.admitted = true;
    ++admitted;

    // Per-request deadline: the client's budget capped by the server
    // ceiling; no budget means exactly the ceiling. Every budget shares
    // the connection's cancellation flag.
    const double ceiling = options.budget_ceiling_seconds;
    double seconds = wire.budget_seconds;
    if (ceiling > 0) seconds = seconds > 0 ? std::min(seconds, ceiling) : ceiling;
    if (seconds > 0) wire.request.budget.deadline = Deadline::after(seconds);
    if (state) wire.request.budget.cancel = state->cancel;

    if (wire.id >= 0) {
      // Id-carrying solves are watchable: arm a progress sink on the
      // budget and register it so `{"op":"watch","id":N}` (and the stats
      // in-flight panel) can find this solve while it runs.
      p.sink = std::make_shared<obs::ProgressSink>();
      p.watch_id = wire.id;
      wire.request.budget.progress = p.sink;
      const std::lock_guard<std::mutex> lock(inflight_mutex);
      inflight_watch[wire.id] =
          InflightEntry{p.sink, wire.request.strategy, wire.request.label,
                        obs::steady_micros()};
    }

    if (wire.has_trace) {
      // This request's "server.request" root span parents under the
      // sender's span (router dispatch / client root); the recorder's
      // context carries the root id so engine spans parent under it.
      p.remote_parent = wire.trace.parent_span;
      p.root_span = obs::new_span_id();
      obs::TraceContext ctx = wire.trace;
      ctx.parent_span = p.root_span;
      p.trace = std::make_shared<obs::TraceRecorder>(ctx);
      wire.request.trace = p.trace;
    }

    if (wire.split && !wire.request.masked) {
      p.split = true;
      p.wire = std::move(wire);
    } else {
      p.batch_index = batch.size();
      batch.push_back(std::move(wire.request));
    }
  }

  // Queue wait: parse + admission until the engine actually starts. Batches
  // record it here (once per line), not in the engine, so split sub-requests
  // sharing one recorder don't each re-report it.
  if (admitted > 0) {
    const std::uint64_t queue_end_us = obs::steady_micros();
    for (PendingLine& p : pending)
      if (p.trace)
        p.trace->record("server.queue", obs::new_span_id(), p.root_span,
                        p.trace->created_us(), queue_end_us);
  }
  std::vector<engine::SolveReport> reports;
  if (!batch.empty()) reports = engine.solve_batch(batch, options.threads);
  for (PendingLine& p : pending) {
    if (!p.split) continue;
    try {
      p.report = engine.solve_split(p.wire->request, p.wire->threads);
    } catch (const std::exception& e) {
      p.error = e.what();
    }
  }
  host.release_admitted(admitted);

  // Retire the watchable solves: finishing the sink releases every watcher
  // (their connections get the final done line); unregister only our own
  // entry — a same-id request on another connection may have replaced it.
  for (PendingLine& p : pending) {
    if (!p.sink) continue;
    p.sink->finish();
    const std::lock_guard<std::mutex> lock(inflight_mutex);
    const auto it = inflight_watch.find(p.watch_id);
    if (it != inflight_watch.end() && it->second.sink == p.sink)
      inflight_watch.erase(it);
  }

  for (PendingLine& p : pending) {
    if (p.skip) continue;
    const bool binary_solve = p.mode == net::WireMode::Binary &&
                              p.frame_type == net::kFrameSolveRequest;
    std::string reply;          // JSON reply line (non-binary-solve paths)
    std::string payload;        // binary frame payload (binary solve path)
    std::uint8_t out_type = net::kFrameSolveReport;
    std::string events_json;    // the splices a binary report carries as
    std::string spans_json;     // raw strings instead of reply-text edits
    const engine::SolveReport* done = nullptr;
    if (!p.immediate.empty()) {
      reply = p.immediate;
    } else if (!p.error.empty()) {
      host.errors->add(1);
      if (binary_solve) {
        out_type = net::kFrameError;
        payload = io::binary_error_payload(p.id, p.error, p.label);
      } else {
        reply = error_json(p.error, p.label, p.id);
      }
    } else {
      const engine::SolveReport& report =
          p.split ? *p.report : reports[p.batch_index];
      // solve_batch converts per-request failures (unknown strategy) into
      // "error" telemetry; surface those as protocol errors too.
      if (const std::string* error = report.find_telemetry("error")) {
        host.errors->add(1);
        if (binary_solve) {
          out_type = net::kFrameError;
          payload = io::binary_error_payload(p.id, *error, report.label);
        } else {
          reply = error_json(*error, report.label, p.id);
        }
      } else {
        host.requests->add(1);
        done = &report;
        const std::string* cache_hit = report.find_telemetry("cache_hit");
        if (report.status == engine::Status::Bounded &&
            !(cache_hit != nullptr && *cache_hit == "true")) {
          // A reply whose own solve was cut carries the flight recorder's
          // tail — the "why did my budget run out" answer rides the reply
          // itself. Cache hits and heuristic answers cut nothing.
          events_json = obs::events_json(obs::snapshot_events(32));
        }
        if (!binary_solve) {
          reply = io::wire_response_json(report, p.include_partition, p.id);
          if (!events_json.empty() && !reply.empty() && reply.back() == '}') {
            reply.pop_back();
            reply += ",\"events\":" + events_json + "}";
          }
        }
      }
    }

    const std::uint64_t done_us = obs::steady_micros();
    const std::uint64_t elapsed_us = done_us - batch_start_us;
    std::string trace_hex;
    if (p.trace) {
      // Close the root span, attach this process's spans to the solve reply
      // (the router folds them into its own trace), and publish the trace
      // locally *before* the reply is written so an immediate
      // {"op":"trace"} follow-up on another connection finds it.
      const obs::TraceContext& ctx = p.trace->context();
      trace_hex = obs::trace_id_hex(ctx.hi, ctx.lo);
      p.trace->record("server.request", p.root_span, p.remote_parent,
                      p.trace->created_us(), done_us);
      std::vector<obs::Span> spans = p.trace->spans();
      if (done) {
        spans_json = obs::spans_json(spans);
        if (!binary_solve && !reply.empty() && reply.back() == '}') {
          reply.pop_back();
          reply += ",\"trace\":{\"id\":\"" + trace_hex +
                   "\",\"spans\":" + spans_json + "}}";
        }
      }
      host.traces().add(ctx.hi, ctx.lo, std::move(spans));
    }
    if (done && binary_solve)
      payload = io::binary_report_payload(*done, p.include_partition, p.id,
                                          p.rows, p.cols, events_json,
                                          spans_json);
    if (done || !p.error.empty()) {
      host.request_micros->record(elapsed_us);
      if (done)
        host.registry()
            .histogram("server.solve." + done->strategy + ".micros")
            ->record(elapsed_us);
    }
    if (done && host.is_slow(elapsed_us))
      log_slow(*done, static_cast<double>(elapsed_us) / 1000.0, trace_hex);

    // Enqueue through the reactor: the loop corks this whole batch's
    // replies into one writev. A false return means the connection died;
    // remaining replies are dropped with it (its budget was cancelled by
    // on_close already).
    conn->send(binary_solve ? net::encode_frame(out_type, payload)
                            : framed_json(p.mode, reply));
    if (p.trace) {
      // The reply-write span can't ride in the reply it measures; it lands
      // in the local store only, visible to later {"op":"trace"} queries.
      obs::Span write_span;
      write_span.name = "server.reply_write";
      write_span.span_id = obs::new_span_id();
      write_span.parent_id = p.root_span;
      write_span.start_us = done_us;
      write_span.dur_us = obs::steady_micros() - done_us;
      const obs::TraceContext& ctx = p.trace->context();
      host.traces().add(ctx.hi, ctx.lo, {write_span});
    }
  }
}

Server::Server(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() { stop(); }

void Server::start() {
  Impl& impl = *impl_;
  impl.host.start();
  // The announce clients start after the listener so the advertised
  // endpoint carries the actually-bound port (resolves --port=0). One
  // session per router of the --announce list keeps the whole fleet's
  // liveness views fresh.
  std::vector<std::string> routers;
  net::parse_endpoint_list(impl.options.announce, routers);
  impl.announce_fds.assign(routers.size(), -1);
  for (std::size_t slot = 0; slot < routers.size(); ++slot)
    impl.announce_threads.emplace_back(
        [&impl, router = routers[slot], slot]() {
          impl.announce_loop(router, slot);
        });
}

void Server::stop() {
  Impl& impl = *impl_;
  if (!impl.host.begin_stop()) return;

  // Say goodbye to the routers first: each announce thread sends its
  // best-effort leave on the way out (a blocking heartbeat read is woken
  // by shutting its socket down), so the fleet stops routing here before
  // the drain closes any connection.
  {
    std::lock_guard<std::mutex> lock(impl.announce_mutex);
    for (const int fd : impl.announce_fds)
      if (fd >= 0) ::shutdown(fd, SHUT_RD);
  }
  for (std::thread& t : impl.announce_threads)
    if (t.joinable()) t.join();
  impl.announce_threads.clear();

  // Then the drain: on_drain cancels every in-flight budget, and the
  // anytime contract turns that into fast valid replies.
  impl.host.drain();
}

bool Server::running() const noexcept { return impl_->host.running(); }

std::uint16_t Server::port() const noexcept { return impl_->host.port(); }

ServerStats Server::stats() const {
  const Impl& impl = *impl_;
  ServerStats out;
  out.connections = impl.host.connections->value();
  out.requests = impl.host.requests->value();
  out.errors = impl.host.errors->value();
  out.rejected = impl.host.rejected->value();
  out.puts = impl.puts->value();
  out.joins_sent = impl.joins_sent->value();
  out.join_rejects = impl.join_rejects->value();
  return out;
}

engine::Engine& Server::engine() noexcept { return impl_->engine; }

const ServerOptions& Server::options() const noexcept {
  return impl_->options;
}

// ---- serve_forever --------------------------------------------------------

int serve_forever(const ServerOptions& options, std::ostream& log) {
  Server server(options);
  cache::ResultCache* const cache = server.engine().cache().get();
  const auto start = [&]() {
    server.start();
    log << "ebmf service listening on " << options.host << ":"
        << server.port() << " (threads=" << options.threads
        << ", cache-mb=" << options.cache_mb
        << ", max-inflight=" << options.max_inflight << ")" << std::endl;
  };
  const auto drain = [&]() {
    server.stop();
    const ServerStats stats = server.stats();
    log << "served " << stats.requests << " requests, " << stats.errors
        << " errors, " << stats.rejected << " rejected, across "
        << stats.connections << " connections";
    if (cache != nullptr) {
      const cache::CacheStats cache_stats = cache->stats();
      log << "; cache " << cache_stats.hits << " hits / "
          << cache_stats.misses << " misses / " << cache_stats.evictions
          << " evictions";
    }
    log << std::endl;
  };
  return net::run_until_signal(options.cache_file, cache, log, start, drain);
}

}  // namespace ebmf::service
