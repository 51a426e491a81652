// Backend connection pool: pipelined submits, binary-frame upgrade
// negotiation, id-matched reply dispatch, break detection, and
// exponential-backoff reconnect.

#include "router/pool.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "io/binary_io.h"
#include "net/frame.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "net/net.h"
#include "support/fault.h"
#include "support/rng.h"

namespace ebmf::router {


using Clock = std::chrono::steady_clock;

PendingReply::Outcome PendingReply::wait(double seconds) {
  std::unique_lock<std::mutex> lock(mutex);
  const auto ready = [&] { return done || broken; };
  if (seconds <= 0) {
    cv.wait(lock, ready);
  } else if (!cv.wait_for(lock, std::chrono::duration<double>(seconds),
                          ready)) {
    return Outcome::TimedOut;
  }
  return broken ? Outcome::Broken : Outcome::Reply;
}

bool PendingReply::has_reply() {
  std::lock_guard<std::mutex> lock(mutex);
  return done && !broken;
}

void PendingReply::reset() {
  std::lock_guard<std::mutex> lock(mutex);
  done = false;
  broken = false;
  frame_type = 0;
  line.clear();
}

namespace {

/// One persistent socket to the backend plus its reader thread. Conn
/// objects are created once and recycled through reconnects (stable
/// addresses: the vector holds unique_ptrs and never shrinks).
struct Conn {
  int fd = -1;
  std::atomic<bool> open{false};
  bool binary = false;  ///< Speaks frames (set before `open`, fixed after).
  /// Reader's last store before exiting; maintain() joins on it.
  std::atomic<bool> reader_done{true};
  std::thread reader;
  std::mutex write_mutex;
  std::mutex pending_mutex;
  std::unordered_map<std::uint64_t, PendingPtr> pending;
};

/// Negotiate the frame protocol on a fresh socket: send the upgrade line,
/// wait (bounded) for the JSON ack. 1 = upgraded, 0 = the backend declined
/// (an old build answering with an error keeps a perfectly good line
/// connection), -1 = the socket died or the window expired (caller closes
/// and backs off — a wedged negotiation must not be mistaken for a
/// decline).
int negotiate_upgrade(int fd) {
  if (!net::write_line(fd, "{\"op\":\"upgrade\"}")) return -1;
  timeval window{2, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &window, sizeof window);
  net::LineBuffer buffer;
  std::string line;
  int result = -1;
  if (net::read_line(fd, buffer, line))
    result = line.find("\"upgraded\":true") != std::string::npos ? 1 : 0;
  timeval off{0, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &off, sizeof off);
  return result;
}

/// Send raw bytes (an already-encoded frame) fully, through the same
/// fault-injection seams write_line uses so the network drills exercise
/// the binary path too. False when the peer is gone.
bool send_raw(int fd, const std::string& bytes) {
  fault::maybe_delay();
  if (fault::should_drop_write()) {
    ::shutdown(fd, SHUT_RDWR);
    return false;
  }
  const std::size_t limit = fault::maybe_tear(bytes.size());
  std::size_t sent = 0;
  while (sent < limit) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, limit - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  if (limit < bytes.size()) {  // torn by the drill: kill the connection
    ::shutdown(fd, SHUT_RDWR);
    return false;
  }
  return true;
}

/// Complete one pending reply.
void complete_pending(Conn& conn, std::uint64_t id, std::uint8_t frame_type,
                      std::string&& body) {
  PendingPtr pending;
  {
    std::lock_guard<std::mutex> lock(conn.pending_mutex);
    const auto it = conn.pending.find(id);
    if (it == conn.pending.end()) return;  // late reply, forgotten
    pending = it->second;
    conn.pending.erase(it);
  }
  std::lock_guard<std::mutex> lock(pending->mutex);
  pending->frame_type = frame_type;
  pending->line = std::move(body);
  pending->done = true;
  pending->cv.notify_all();
}

}  // namespace

struct BackendPool::Impl {
  std::string host;
  std::uint16_t port;
  std::string endpoint_text;
  PoolOptions options;

  /// Structural lock: connection selection, reconnects, shutdown.
  mutable std::mutex mutex;
  std::vector<std::unique_ptr<Conn>> conns;
  std::size_t cursor = 0;
  std::atomic<bool> shutting_down{false};

  /// The pool's negotiated wire mode: -1 undecided (no connection has
  /// completed negotiation yet), 0 line-JSON, 1 binary frames. Fixed by
  /// the first decided negotiation (see the header comment).
  std::atomic<int> binary_mode{-1};

  double backoff_ms;
  Clock::time_point next_attempt = Clock::now();
  /// De-synchronizes reconnect schedules: without jitter every pool that
  /// lost the same router restart redials on the same exponential grid,
  /// and the stampede repeats at each doubling. Seeded per-instance.
  Rng jitter;

  /// This backend's own counts (the stats verb's per-backend rows); the
  /// router's aggregates are PoolOptions::dispatches/failures.
  obs::Counter requests;
  obs::Counter failures;

  explicit Impl(std::string h, std::uint16_t p, PoolOptions opt)
      : host(std::move(h)),
        port(p),
        endpoint_text(host + ":" + std::to_string(port)),
        options(opt),
        backoff_ms(opt.backoff_base_ms),
        jitter(std::hash<std::string>{}(endpoint_text) ^
               reinterpret_cast<std::uintptr_t>(this)) {
    if (options.connections == 0) options.connections = 1;
    if (!options.negotiate_binary) binary_mode.store(0);
    for (std::size_t i = 0; i < options.connections; ++i)
      conns.push_back(std::make_unique<Conn>());
  }

  /// Next reconnect delay: the current (capped) backoff spread over
  /// [0.5, 1.5)x so concurrent pools drift apart. Call under `mutex`;
  /// advances the exponential schedule.
  Clock::duration backoff_step() {
    const double delay_ms = backoff_ms * (0.5 + jitter.uniform01());
    backoff_ms = std::min(backoff_ms * 2.0, options.backoff_max_ms);
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(delay_ms));
  }

  /// Fail every reply pending on `conn` (the connection broke): waiting
  /// router threads wake with Broken and fail over.
  void break_pending(Conn& conn) {
    std::unordered_map<std::uint64_t, PendingPtr> orphans;
    {
      std::lock_guard<std::mutex> lock(conn.pending_mutex);
      orphans.swap(conn.pending);
    }
    for (auto& [id, pending] : orphans) {
      std::lock_guard<std::mutex> lock(pending->mutex);
      pending->broken = true;
      pending->cv.notify_all();
    }
  }

  /// Line-mode reader body: frame response lines, match ids, dispatch.
  void read_lines(Conn& conn) {
    net::LineBuffer buffer;
    char chunk[16384];
    const int fd = conn.fd;
    while (true) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      buffer.append(chunk, static_cast<std::size_t>(n));
      std::string line;
      while (buffer.pop(line)) {
        std::uint64_t id = 0;
        if (!net::strip_id_prefix(line, id)) continue;  // unmatched noise
        complete_pending(conn, id, 0, std::move(line));
      }
    }
  }

  /// Binary-mode reader body: decode frames, match ids, dispatch. Type-4
  /// JSON frames are unwrapped to the exact shape a line reply has
  /// (frame_type 0, id prefix stripped), so the router's non-solve paths
  /// never notice which protocol carried them; type-2/3 payloads pass
  /// through raw for io/binary_io.h. A malformed frame is terminal — the
  /// stream has lost sync, so the connection breaks and reconnects.
  void read_frames(Conn& conn) {
    // The bound mirrors the serve tier's default frame cap, not the
    // router's max_line_bytes: replies (reports + partitions) can outgrow
    // request lines.
    net::FrameBuffer frames(64u << 20);
    char chunk[16384];
    const int fd = conn.fd;
    bool dead = false;
    while (!dead) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      frames.append(chunk, static_cast<std::size_t>(n));
      net::Frame frame;
      net::FrameBuffer::Pop status;
      while ((status = frames.pop(&frame)) == net::FrameBuffer::Pop::Ok) {
        if (frame.type == net::kFrameJson) {
          std::uint64_t id = 0;
          if (!net::strip_id_prefix(frame.payload, id)) continue;
          complete_pending(conn, id, 0, std::move(frame.payload));
          continue;
        }
        const std::int64_t id = io::binary_salvage_id(frame.payload);
        if (id < 0) continue;  // unmatched noise
        complete_pending(conn, static_cast<std::uint64_t>(id), frame.type,
                         std::move(frame.payload));
      }
      dead = status == net::FrameBuffer::Pop::Bad;
    }
  }

  /// The reader thread: run the mode-appropriate body, then fail all
  /// pending and schedule the reconnect when the socket breaks (or
  /// shutdown() wakes it).
  void reader_loop(Conn& conn) {
    if (conn.binary)
      read_frames(conn);
    else
      read_lines(conn);
    conn.open.store(false, std::memory_order_relaxed);
    break_pending(conn);
    if (!shutting_down.load(std::memory_order_relaxed)) {
      failures.add(1);
      if (options.failures != nullptr) options.failures->add(1);
      std::lock_guard<std::mutex> lock(mutex);
      next_attempt = Clock::now() + backoff_step();
    }
    conn.reader_done.store(true, std::memory_order_release);
  }

  /// Pick a live connection round-robin; nullptr when the backend is down.
  Conn* pick_open() {
    std::lock_guard<std::mutex> lock(mutex);
    for (std::size_t step = 0; step < conns.size(); ++step) {
      Conn& conn = *conns[(cursor + step) % conns.size()];
      if (conn.open.load(std::memory_order_relaxed)) {
        cursor = (cursor + step + 1) % conns.size();
        return &conn;
      }
    }
    return nullptr;
  }

  void maintain() {
    if (shutting_down.load(std::memory_order_relaxed)) return;
    std::lock_guard<std::mutex> lock(mutex);
    bool attempted = false;
    for (auto& conn_ptr : conns) {
      Conn& conn = *conn_ptr;
      if (conn.open.load(std::memory_order_relaxed)) continue;
      if (!conn.reader_done.load(std::memory_order_acquire)) continue;
      if (conn.reader.joinable()) conn.reader.join();
      if (conn.fd >= 0) {
        std::lock_guard<std::mutex> write_lock(conn.write_mutex);
        ::close(conn.fd);
        conn.fd = -1;
      }
      // One connect attempt per maintain() call, rate-limited by backoff.
      if (attempted || Clock::now() < next_attempt) continue;
      attempted = true;
      int fd = -1;
      try {
        fd = net::tcp_connect(host, port);
      } catch (const std::exception&) {
        next_attempt = Clock::now() + backoff_step();
        continue;
      }
      // Wire-mode negotiation. A pool already fixed at line mode (declined
      // once, or --no-binary) skips the round-trip; otherwise the fresh
      // socket negotiates and the first decided outcome becomes sticky.
      int wire = binary_mode.load(std::memory_order_relaxed);
      if (wire != 0) {
        const int negotiated = negotiate_upgrade(fd);
        if (negotiated < 0) {  // died or wedged mid-negotiation
          ::close(fd);
          next_attempt = Clock::now() + backoff_step();
          continue;
        }
        int undecided = -1;
        binary_mode.compare_exchange_strong(undecided, negotiated);
        wire = binary_mode.load(std::memory_order_relaxed);
        if (wire != negotiated) {
          // The backend at this endpoint now disagrees with the pool's
          // fixed framing (swapped for an incompatible build): refuse the
          // connection rather than let one pool speak two protocols.
          ::close(fd);
          next_attempt = Clock::now() + backoff_step();
          continue;
        }
      }
      backoff_ms = options.backoff_base_ms;  // healthy again
      conn.binary = wire == 1;
      {
        // The fd swap happens under the write lock: a submitter that
        // picked this conn just before the break re-checks `open` under
        // the same lock and can never write into (or shut down) a
        // recycled descriptor.
        std::lock_guard<std::mutex> write_lock(conn.write_mutex);
        conn.fd = fd;
        conn.reader_done.store(false, std::memory_order_relaxed);
        conn.open.store(true, std::memory_order_release);
      }
      obs::emit_event(obs::EventCode::PoolReconnect,
                      std::hash<std::string>{}(endpoint_text),
                      failures.value());
      conn.reader = std::thread([this, &conn]() { reader_loop(conn); });
    }
  }

  void shutdown() {
    if (shutting_down.exchange(true)) return;
    {
      std::lock_guard<std::mutex> lock(mutex);
      for (auto& conn : conns)
        if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
    for (auto& conn : conns) {
      if (conn->reader.joinable()) conn->reader.join();
      if (conn->fd >= 0) {
        ::close(conn->fd);
        conn->fd = -1;
      }
      conn->open.store(false, std::memory_order_relaxed);
    }
  }
};

BackendPool::BackendPool(std::string host, std::uint16_t port,
                         PoolOptions options)
    : impl_(std::make_unique<Impl>(std::move(host), port, options)) {}

BackendPool::~BackendPool() { shutdown(); }

const std::string& BackendPool::endpoint() const noexcept {
  return impl_->endpoint_text;
}

bool BackendPool::alive() const noexcept {
  for (const auto& conn : impl_->conns)
    if (conn->open.load(std::memory_order_relaxed)) return true;
  return false;
}

bool BackendPool::binary() const noexcept {
  return impl_->binary_mode.load(std::memory_order_relaxed) == 1;
}

bool BackendPool::submit(std::uint64_t id, const std::string& payload,
                         bool framed, const PendingPtr& pending) {
  Conn* conn = impl_->pick_open();
  if (conn == nullptr) {
    // Opportunistic revival: a failed submit is exactly when the health
    // cadence is too slow to matter (the caller is about to fail over).
    impl_->maintain();
    conn = impl_->pick_open();
    if (conn == nullptr) return false;
  }
  // A pre-encoded frame cannot be downgraded to a line; the router only
  // renders one when binary() said the pool speaks frames, so hitting this
  // means the pool flipped modes under the caller — fail over and re-render.
  if (framed && !conn->binary) return false;
  // Register before writing: a pipelined backend can answer before the
  // write call even returns.
  {
    std::lock_guard<std::mutex> lock(conn->pending_mutex);
    conn->pending[id] = pending;
  }
  bool sent = false;
  {
    // write_mutex also guards the fd lifecycle (maintain() swaps fds only
    // under it), so the re-check below cannot see a recycled descriptor
    // and the failure-path shutdown always hits the socket we wrote to.
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    if (conn->open.load(std::memory_order_relaxed)) {
      if (framed)
        sent = send_raw(conn->fd, payload);
      else if (conn->binary)  // JSON over a frame stream: type-4 wrap
        sent = send_raw(conn->fd, net::encode_frame(net::kFrameJson,
                                                     payload));
      else
        sent = net::write_line(conn->fd, payload);
      // Wake the reader so the break is processed once, centrally.
      if (!sent) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  if (!sent) {
    // Withdraw the registration: the caller resubmits this PendingReply
    // elsewhere, and a stale break signal must not chase it.
    std::lock_guard<std::mutex> lock(conn->pending_mutex);
    conn->pending.erase(id);
    return false;
  }
  impl_->requests.add(1);
  // The router's dispatch volume, aggregated across its pools (per-backend
  // breakdowns live in the stats verb's pool counters).
  if (impl_->options.dispatches != nullptr) impl_->options.dispatches->add(1);
  return true;
}

void BackendPool::forget(std::uint64_t id) {
  for (auto& conn : impl_->conns) {
    std::lock_guard<std::mutex> lock(conn->pending_mutex);
    if (conn->pending.erase(id) > 0) return;
  }
}

void BackendPool::maintain() { impl_->maintain(); }

void BackendPool::shutdown() { impl_->shutdown(); }

PoolStats BackendPool::stats() const {
  PoolStats out;
  out.alive = alive();
  out.binary = binary();
  out.requests = impl_->requests.value();
  out.failures = impl_->failures.value();
  for (const auto& conn : impl_->conns) {
    std::lock_guard<std::mutex> lock(conn->pending_mutex);
    out.inflight += conn->pending.size();
  }
  return out;
}

}  // namespace ebmf::router
