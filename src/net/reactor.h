#pragma once
/// \file reactor.h
/// \brief The event-driven I/O tier: an epoll level-triggered reactor that
/// replaces the thread-per-connection loops in the server and router.
///
/// Shape: one acceptor thread + N event-loop threads (each its own epoll
/// instance and eventfd wakeup) + a small worker pool for message handling,
/// so the event loops never block on a solve. Connections are explicit
/// state machines: bytes arrive on a loop thread, complete messages (JSON
/// lines, or binary frames after a `{"op":"upgrade"}` line flips the
/// framing — see net/frame.h) are extracted in micro-batches and handed to
/// the worker pool, at most one batch in flight per connection, so
/// pipelined replies stay in request order. A reply is written straight to
/// the socket by the thread that produced it when nothing is queued ahead
/// of it; otherwise (or for the rest of a short write) it joins a bounded
/// per-connection write queue the owning loop drains with writev.
///
/// Backpressure and death:
///  * a slow reader first pauses our reads (write queue past the soft
///    limit) and is closed outright past the hard limit;
///  * an orderly FIN (half-close) is *not* an abort: buffered complete
///    messages — plus the unterminated tail `printf | nc` leaves — are
///    still processed, replies flushed, then the connection closes;
///  * a hard error (RST, EPOLLERR) aborts immediately and reports
///    `aborted=true` so the owner can cancel the in-flight solve's budget;
///  * connections idle past `idle_timeout_seconds` (when set) are reaped.
///
/// Drain (`begin_drain` → owner cancels budgets → `shutdown`): accepting
/// and reading stop, already-extracted-and-buffered complete messages are
/// still processed, write queues flush, then everything joins — no
/// accepted request is dropped without a reply.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/net.h"

namespace ebmf::net {

/// Which framing a message arrived under (and its reply should use).
enum class WireMode { Line, Binary };

/// One complete inbound message.
struct Message {
  WireMode mode = WireMode::Line;
  /// Binary mode: the frame type (kFrameSolveRequest…). Line mode: 0.
  std::uint8_t frame_type = 0;
  /// True for the exact `{"op":"upgrade"}` / `{"id":N,"op":"upgrade"}`
  /// line: input framing already flipped to Binary, the handler owes the
  /// JSON ack. Only that byte-exact form negotiates — anything else
  /// reaches the handler as an ordinary line.
  bool upgrade = false;
  /// Line text without the newline, or the frame payload.
  std::string payload;
};

class EventLoop;
class ReactorServer;

/// One accepted connection. Handlers hold it by shared_ptr; all methods
/// are safe from any thread. Reads, interest changes, and the write
/// queue's writev flushes happen only on the owning event loop; send()
/// writes through on the caller's thread only while that queue is empty.
class Conn : public std::enable_shared_from_this<Conn> {
 public:
  /// Send raw bytes (already framed: line + '\n', or a full frame): written
  /// through on the caller's thread when the write queue is empty and no
  /// flush is pending, else (and for a short write's remainder) queued for
  /// the loop. False when the connection is closed, closing, or the write
  /// failed. Crossing the hard write limit aborts the connection (slow
  /// reader).
  bool send(std::string bytes);

  /// Like send() but drops the bytes instead of growing the queue past the
  /// soft limit — the watch-stream contract (a lossy tail beats wedging
  /// the loop). False only when the connection is closed.
  bool try_send(std::string bytes);

  /// Close once the write queue drains (the graceful reply-then-close).
  void close_after_flush();

  [[nodiscard]] bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }

  /// The connection's current *input* framing (flips on upgrade). A reply
  /// producer should frame per-message via Message::mode; this is for
  /// stream writers (watch) that outlive the triggering message.
  [[nodiscard]] WireMode wire_mode() const noexcept {
    return mode_atomic_.load(std::memory_order_acquire) == 0
               ? WireMode::Line
               : WireMode::Binary;
  }

  /// Monotonic connection id (stable across the server's lifetime).
  [[nodiscard]] std::uint64_t conn_id() const noexcept { return id_; }

  /// Owner-attached per-connection state (e.g. the cancel flag).
  void set_user(std::shared_ptr<void> user);
  [[nodiscard]] std::shared_ptr<void> user() const;

 private:
  friend class EventLoop;
  friend class ReactorServer;

  Conn(int fd, std::uint64_t id, ReactorServer* server, EventLoop* loop)
      : fd_(fd), id_(id), server_(server), loop_(loop) {}

  const int fd_;
  const std::uint64_t id_;
  ReactorServer* const server_;
  EventLoop* const loop_;

  std::atomic<bool> closed_{false};
  std::atomic<int> mode_atomic_{0};  // 0 = Line, 1 = Binary (observers)
  std::atomic<std::uint64_t> last_activity_us_{0};

  // ---- input state, under in_mutex_ ------------------------------------
  mutable std::mutex in_mutex_;
  std::string in_;
  std::size_t in_consumed_ = 0;
  WireMode mode_ = WireMode::Line;
  bool processing_ = false;       // a batch is queued/running on a worker
  bool peer_half_closed_ = false; // FIN seen; tail may still need serving
  bool tail_flushed_ = false;     // the unterminated tail was delivered
  std::shared_ptr<void> user_;

  // ---- output state, under out_mutex_ ----------------------------------
  mutable std::mutex out_mutex_;
  std::deque<std::string> out_;
  std::size_t out_head_offset_ = 0;  // bytes of out_.front() already sent
  std::size_t out_bytes_ = 0;
  bool flush_queued_ = false;   // a flush command is pending on the loop
  bool closing_after_flush_ = false;

  // ---- loop-thread-only bookkeeping ------------------------------------
  bool registered_ = false;     // in the loop's epoll set
  bool want_write_ = false;     // EPOLLOUT armed
  bool read_paused_write_ = false;  // backpressure: slow reader
  bool read_paused_input_ = false;  // backpressure: handler behind
  bool half_closed_seen_ = false;   // FIN handled (loop-side view)
};

using ConnPtr = std::shared_ptr<Conn>;

/// Reactor tuning. Defaults fit both tiers; the servers surface the
/// interesting ones as CLI options.
struct ReactorOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t event_loops = 2;        ///< epoll loop threads.
  std::size_t workers = 0;            ///< Handler threads (0 = auto).
  std::size_t max_batch = 32;         ///< Messages handed per on_batch.
  std::size_t max_message_bytes = 4u << 20;  ///< Line/frame size cap.
  std::size_t write_soft_limit = 4u << 20;   ///< Pause reads above this.
  std::size_t write_hard_limit = 64u << 20;  ///< Abort the conn above this.
  double idle_timeout_seconds = 0.0;  ///< Reap idle conns (0 = never).
};

/// Owner hooks. on_open/on_close run on a loop thread and must not block;
/// on_batch runs on a worker thread and may (that is the point).
struct ReactorCallbacks {
  std::function<void(const ConnPtr&)> on_open;
  /// At most one call in flight per connection; messages are in arrival
  /// order. Replies go through conn->send() with per-message framing.
  std::function<void(const ConnPtr&, std::vector<Message>)> on_batch;
  /// Render the reply for a fatal protocol error (oversized line, bad
  /// frame header) in the given mode — raw bytes, framing included. The
  /// connection closes after it flushes. Null: a bare JSON error line.
  std::function<std::string(WireMode, const std::string& message)>
      protocol_error_reply;
  /// `aborted` = death with work possibly in flight (RST, EPOLLERR, write
  /// overflow) — the owner should cancel the connection's budget. An
  /// orderly close reports aborted=false.
  std::function<void(const ConnPtr&, bool aborted)> on_close;
};

/// A fixed pool of handler threads fed by a mutex+cv deque.
class WorkerPool {
 public:
  void start(std::size_t threads);
  void post(std::function<void()> task);
  void stop();  // drains the queue, then joins

  [[nodiscard]] std::size_t size() const noexcept { return threads_.size(); }

 private:
  void run();

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// The acceptor + loops + workers bundle a server tier runs on.
class ReactorServer {
 public:
  ReactorServer(ReactorOptions options, ReactorCallbacks callbacks);
  ~ReactorServer();

  ReactorServer(const ReactorServer&) = delete;
  ReactorServer& operator=(const ReactorServer&) = delete;

  /// Bind, spin up loops/workers/acceptor. Throws on bind failure.
  void start();

  /// The resolved listening port (after start()).
  [[nodiscard]] std::uint16_t port() const noexcept;

  /// Stop accepting and reading. Messages already buffered keep flowing to
  /// on_batch; call shutdown() to finish. Idempotent.
  void begin_drain();

  /// Complete the drain: wait for in-flight batches, flush write queues
  /// (bounded), close every connection, join all threads. Idempotent.
  void shutdown();

  /// Snapshot of the live connections (for budget cancellation on drain
  /// and diagnostics).
  [[nodiscard]] std::vector<ConnPtr> connections() const;

  [[nodiscard]] bool draining() const noexcept {
    return draining_.load(std::memory_order_acquire);
  }

 private:
  friend class Conn;
  friend class EventLoop;

  void accept_loop();
  void adopt(int fd);
  /// Run the handler batch for `conn`, then keep extracting until the
  /// input is drained (the per-connection strand; runs on a worker).
  void run_batches(const ConnPtr& conn, std::vector<Message> batch);
  /// Extract + dispatch if idle; called after reads and batch completion.
  void dispatch_input(const ConnPtr& conn);
  /// Extraction under conn->in_mutex_ (caller holds it). Returns false on
  /// a fatal protocol error with `error` set.
  bool extract_locked(const ConnPtr& conn, std::vector<Message>* batch,
                      std::string* error);
  void protocol_error(const ConnPtr& conn, WireMode mode,
                      const std::string& message);
  void note_closed(const ConnPtr& conn, bool aborted);

  ReactorOptions options_;
  ReactorCallbacks callbacks_;

  TcpListener listener_;
  std::thread accept_thread_;
  std::vector<std::unique_ptr<EventLoop>> loops_;
  WorkerPool workers_;

  mutable std::mutex conns_mutex_;
  std::vector<ConnPtr> conns_;

  std::atomic<std::uint64_t> next_conn_id_{1};
  std::atomic<std::size_t> next_loop_{0};
  std::atomic<std::size_t> batches_in_flight_{0};
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};
};

}  // namespace ebmf::net
