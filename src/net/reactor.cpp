// The epoll level-triggered reactor: event loops, the per-connection
// strand, bounded write queues flushed with writev, and drain.

#include "net/reactor.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <unordered_map>

#include "io/json.h"
#include "net/frame.h"
#include "support/fault.h"

namespace ebmf::net {

namespace {

std::uint64_t steady_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Only the byte-exact `{"op":"upgrade"}` / `{"id":<digits>,"op":"upgrade"}`
/// forms negotiate — the extractor must flip the input framing before the
/// handler ever sees the line, so the check cannot afford (or tolerate) a
/// JSON parse's flexibility. Variants reach the handler as ordinary lines
/// and earn an explanatory error there.
bool is_upgrade_line(const std::string& line) {
  static constexpr char kBare[] = "{\"op\":\"upgrade\"}";
  if (line == kBare) return true;
  static constexpr char kIdPrefix[] = "{\"id\":";
  constexpr std::size_t kIdPrefixLen = sizeof kIdPrefix - 1;
  if (line.rfind(kIdPrefix, 0) != 0) return false;
  std::size_t pos = kIdPrefixLen;
  if (pos >= line.size() || line[pos] < '0' || line[pos] > '9') return false;
  while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') ++pos;
  static constexpr char kTail[] = ",\"op\":\"upgrade\"}";
  return line.compare(pos, std::string::npos, kTail) == 0;
}

constexpr int kMaxEvents = 64;
constexpr int kEpollTickMs = 200;
constexpr std::size_t kReadChunk = 65536;
constexpr int kMaxIov = 64;

}  // namespace

// ---------------------------------------------------------------------------
// WorkerPool

void WorkerPool::start(std::size_t threads) {
  threads_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    threads_.emplace_back([this] { run(); });
}

void WorkerPool::post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void WorkerPool::run() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ && drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void WorkerPool::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& thread : threads_)
    if (thread.joinable()) thread.join();
  threads_.clear();
}

// ---------------------------------------------------------------------------
// EventLoop

class EventLoop {
 public:
  explicit EventLoop(ReactorServer* server) : server_(server) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) sys_fail("epoll_create1");
    event_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (event_fd_ < 0) sys_fail("eventfd");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = event_fd_;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev);
  }

  ~EventLoop() {
    if (event_fd_ >= 0) ::close(event_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }

  void start() {
    thread_ = std::thread([this] { run(); });
  }

  void stop_and_join() {
    stopping_.store(true, std::memory_order_release);
    wake();
    if (thread_.joinable()) thread_.join();
  }

  /// Thread-safe: run `fn` on the loop thread at the next wakeup.
  void post(std::function<void()> fn) {
    {
      std::lock_guard<std::mutex> lock(cmd_mutex_);
      commands_.push_back(std::move(fn));
    }
    wake();
  }

  // ---- loop-thread-only operations below --------------------------------

  void register_conn(const ConnPtr& conn) {
    if (server_->draining_.load(std::memory_order_acquire)) {
      conn->closed_.store(true, std::memory_order_release);
      ::close(conn->fd_);
      return;
    }
    conns_[conn->fd_] = conn;
    conn->registered_ = true;
    conn->last_activity_us_.store(steady_us(), std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(server_->conns_mutex_);
      server_->conns_.push_back(conn);
    }
    if (server_->callbacks_.on_open) server_->callbacks_.on_open(conn);
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.fd = conn->fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->fd_, &ev) != 0)
      close_conn(conn, /*aborted=*/true);
  }

  /// Drain the write queue with writev; arms EPOLLOUT on a short write,
  /// closes on completion when requested, and applies write backpressure.
  void flush_conn(const ConnPtr& conn) {
    if (conn->closed_.load(std::memory_order_acquire)) return;
    bool dead = false;
    bool close_when_done = false;
    bool empty = false;
    std::size_t backlog = 0;
    {
      std::lock_guard<std::mutex> lock(conn->out_mutex_);
      conn->flush_queued_ = false;
      // Fault-injection seam (EBMF_FAULT): drills drop or tear server
      // replies the way the per-line writer used to.
      if (!conn->out_.empty() && fault::should_drop_write()) {
        ::shutdown(conn->fd_, SHUT_RDWR);
        dead = true;
      }
      std::size_t budget = conn->out_bytes_;
      const std::size_t tear = dead ? 0 : fault::maybe_tear(budget);
      const bool torn = tear < budget;
      budget = tear;
      while (!dead && !conn->out_.empty() && budget > 0) {
        iovec iov[kMaxIov];
        int count = 0;
        std::size_t offset = conn->out_head_offset_;
        std::size_t planned = 0;
        for (auto it = conn->out_.begin();
             it != conn->out_.end() && count < kMaxIov && planned < budget;
             ++it) {
          std::size_t len = it->size() - offset;
          if (planned + len > budget) len = budget - planned;
          iov[count].iov_base = const_cast<char*>(it->data()) + offset;
          iov[count].iov_len = len;
          planned += len;
          ++count;
          offset = 0;
        }
        const ssize_t n = ::writev(conn->fd_, iov, count);
        if (n < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          dead = true;
          break;
        }
        std::size_t left = static_cast<std::size_t>(n);
        budget -= left;
        conn->out_bytes_ -= left;
        while (left > 0) {
          std::string& front = conn->out_.front();
          const std::size_t avail = front.size() - conn->out_head_offset_;
          if (left >= avail) {
            left -= avail;
            conn->out_.pop_front();
            conn->out_head_offset_ = 0;
          } else {
            conn->out_head_offset_ += left;
            left = 0;
          }
        }
      }
      if (torn && !dead) {
        ::shutdown(conn->fd_, SHUT_RDWR);
        dead = true;
      }
      empty = conn->out_.empty();
      backlog = conn->out_bytes_;
      close_when_done = conn->closing_after_flush_;
    }
    if (dead) {
      close_conn(conn, /*aborted=*/true);
      return;
    }
    if (empty && close_when_done) {
      close_conn(conn, /*aborted=*/false);
      return;
    }
    const bool want_write = !empty;
    const bool pause_read =
        backlog > server_->options_.write_soft_limit;
    const bool resume_read =
        conn->read_paused_write_ &&
        backlog <= server_->options_.write_soft_limit / 2;
    if (want_write != conn->want_write_ ||
        (pause_read && !conn->read_paused_write_) || resume_read) {
      conn->want_write_ = want_write;
      if (pause_read) conn->read_paused_write_ = true;
      if (resume_read) conn->read_paused_write_ = false;
      update_interest(conn);
    }
  }

  void update_interest(const ConnPtr& conn) {
    if (conn->closed_.load(std::memory_order_acquire) || !conn->registered_)
      return;
    const bool want_read = !server_->draining_.load(std::memory_order_acquire) &&
                           !conn->read_paused_write_ &&
                           !conn->read_paused_input_ &&
                           !conn->half_closed_seen_;
    epoll_event ev{};
    ev.events = EPOLLRDHUP;
    if (want_read) ev.events |= EPOLLIN;
    if (conn->want_write_) ev.events |= EPOLLOUT;
    ev.data.fd = conn->fd_;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd_, &ev);
  }

  /// Close now. `aborted` = death with work possibly in flight.
  void close_conn(const ConnPtr& conn, bool aborted) {
    if (conn->closed_.exchange(true, std::memory_order_acq_rel)) return;
    if (conn->registered_) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd_, nullptr);
      conns_.erase(conn->fd_);
    }
    {
      // Under out_mutex_: a worker's write-through in Conn::send must not
      // see the fd recycled between its closed_ check and its write.
      std::lock_guard<std::mutex> lock(conn->out_mutex_);
      ::close(conn->fd_);
    }
    server_->note_closed(conn, aborted);
  }

  /// FIN/EPOLLRDHUP: stop reading, flush the unterminated tail through the
  /// handler, close once quiescent. Explicitly NOT an abort — an in-flight
  /// solve keeps its budget (orderly `printf | nc` clients half-close).
  void half_close(const ConnPtr& conn) {
    if (conn->half_closed_seen_) return;
    conn->half_closed_seen_ = true;
    {
      std::lock_guard<std::mutex> lock(conn->in_mutex_);
      conn->peer_half_closed_ = true;
    }
    update_interest(conn);
    server_->dispatch_input(conn);
    maybe_close_quiescent(conn);
  }

  /// Close a half-closed connection once nothing is pending: no batch in
  /// flight, no extractable input, write queue flushed (or closes when it
  /// is).
  void maybe_close_quiescent(const ConnPtr& conn) {
    if (conn->closed_.load(std::memory_order_acquire)) return;
    bool quiescent = false;
    {
      std::lock_guard<std::mutex> lock(conn->in_mutex_);
      quiescent = conn->peer_half_closed_ && !conn->processing_;
    }
    if (!quiescent) return;
    bool close_now = false;
    {
      std::lock_guard<std::mutex> lock(conn->out_mutex_);
      if (conn->out_.empty())
        close_now = true;
      else
        conn->closing_after_flush_ = true;
    }
    if (close_now) close_conn(conn, /*aborted=*/false);
  }

  void read_some(const ConnPtr& conn) {
    char buf[kReadChunk];
    bool saw_eof = false;
    int rounds = 0;
    for (;;) {
      const ssize_t n = ::recv(conn->fd_, buf, sizeof buf, 0);
      if (n > 0) {
        {
          std::lock_guard<std::mutex> lock(conn->in_mutex_);
          conn->in_.append(buf, static_cast<std::size_t>(n));
        }
        conn->last_activity_us_.store(steady_us(), std::memory_order_relaxed);
        if (static_cast<std::size_t>(n) < sizeof buf) break;
        if (++rounds >= 4) break;  // fairness; level-trigger re-notifies
        continue;
      }
      if (n == 0) {
        saw_eof = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(conn, /*aborted=*/true);
      return;
    }
    server_->dispatch_input(conn);
    // Input backpressure: a handler far behind a fast writer caps buffered
    // bytes; the periodic sweep resumes reading once it catches up.
    {
      std::lock_guard<std::mutex> lock(conn->in_mutex_);
      if (!conn->read_paused_input_ && conn->processing_ &&
          conn->in_.size() - conn->in_consumed_ >
              2 * server_->options_.max_message_bytes) {
        conn->read_paused_input_ = true;
        update_interest(conn);
      }
    }
    if (saw_eof) half_close(conn);
  }

 private:
  void wake() {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(event_fd_, &one, sizeof one);
  }

  void run_commands() {
    std::vector<std::function<void()>> commands;
    {
      std::lock_guard<std::mutex> lock(cmd_mutex_);
      commands.swap(commands_);
    }
    for (std::function<void()>& fn : commands) fn();
  }

  void sweep(std::uint64_t now_us) {
    // Iterate over a snapshot: close_conn mutates conns_.
    std::vector<ConnPtr> snapshot;
    snapshot.reserve(conns_.size());
    for (const auto& [fd, conn] : conns_) snapshot.push_back(conn);
    const double idle = server_->options_.idle_timeout_seconds;
    for (const ConnPtr& conn : snapshot) {
      if (conn->closed_.load(std::memory_order_acquire)) continue;
      if (conn->read_paused_input_) {
        std::unique_lock<std::mutex> lock(conn->in_mutex_);
        const bool resume = conn->in_.size() - conn->in_consumed_ <=
                            server_->options_.max_message_bytes;
        lock.unlock();
        if (resume) {
          conn->read_paused_input_ = false;
          update_interest(conn);
        }
      }
      if (conn->half_closed_seen_) {
        server_->dispatch_input(conn);
        maybe_close_quiescent(conn);
        continue;
      }
      if (idle > 0) {
        const std::uint64_t last =
            conn->last_activity_us_.load(std::memory_order_relaxed);
        if (now_us > last && static_cast<double>(now_us - last) >
                                 idle * 1e6) {
          bool busy;
          {
            std::lock_guard<std::mutex> lock(conn->in_mutex_);
            busy = conn->processing_;
          }
          std::size_t backlog;
          {
            std::lock_guard<std::mutex> lock(conn->out_mutex_);
            backlog = conn->out_bytes_;
          }
          // Reap only truly idle connections — never one we owe work.
          if (!busy && backlog == 0) close_conn(conn, /*aborted=*/false);
        }
      }
    }
  }

  void run() {
    epoll_event events[kMaxEvents];
    std::uint64_t last_sweep = steady_us();
    while (!stopping_.load(std::memory_order_acquire)) {
      const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, kEpollTickMs);
      run_commands();
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == event_fd_) {
          std::uint64_t drained = 0;
          while (::read(event_fd_, &drained, sizeof drained) > 0) {
          }
          continue;
        }
        const auto it = conns_.find(fd);
        if (it == conns_.end()) continue;
        ConnPtr conn = it->second;  // close_conn below erases the entry
        const std::uint32_t ev = events[i].events;
        if ((ev & (EPOLLIN | EPOLLRDHUP)) != 0) read_some(conn);
        if (conn->closed_.load(std::memory_order_acquire)) continue;
        if ((ev & EPOLLRDHUP) != 0) half_close(conn);
        if (conn->closed_.load(std::memory_order_acquire)) continue;
        if ((ev & EPOLLOUT) != 0) flush_conn(conn);
        if (conn->closed_.load(std::memory_order_acquire)) continue;
        if ((ev & (EPOLLERR | EPOLLHUP)) != 0)
          close_conn(conn, /*aborted=*/true);
      }
      const std::uint64_t now = steady_us();
      if (now - last_sweep > static_cast<std::uint64_t>(kEpollTickMs) * 1000) {
        sweep(now);
        last_sweep = now;
      }
    }
    // Shutdown: run any straggler commands, then close what remains.
    run_commands();
    std::vector<ConnPtr> remaining;
    remaining.reserve(conns_.size());
    for (const auto& [fd, conn] : conns_) remaining.push_back(conn);
    for (const ConnPtr& conn : remaining)
      close_conn(conn, /*aborted=*/false);
  }

  ReactorServer* const server_;
  int epoll_fd_ = -1;
  int event_fd_ = -1;
  std::thread thread_;
  std::mutex cmd_mutex_;
  std::vector<std::function<void()>> commands_;
  std::unordered_map<int, ConnPtr> conns_;
  std::atomic<bool> stopping_{false};
};

// ---------------------------------------------------------------------------
// Conn

bool Conn::send(std::string bytes) {
  bool need_flush = false;
  bool overflow = false;
  bool dead = false;
  {
    std::lock_guard<std::mutex> lock(out_mutex_);
    if (closed_.load(std::memory_order_acquire) || closing_after_flush_)
      return false;
    if (out_.empty() && !flush_queued_) {
      // Nothing is queued ahead of these bytes: write them through now and
      // queue only what the socket did not take. close_conn closes the fd
      // under out_mutex_, so it cannot be recycled under this write.
      std::size_t sent = 0;
      if (fault::should_drop_write()) {  // EBMF_FAULT seams, as in flush
        ::shutdown(fd_, SHUT_RDWR);
        dead = true;
      }
      const std::size_t limit = dead ? 0 : fault::maybe_tear(bytes.size());
      while (!dead && sent < limit) {
        const ssize_t n =
            ::send(fd_, bytes.data() + sent, limit - sent, MSG_NOSIGNAL);
        if (n < 0) {
          if (errno == EINTR) continue;
          if (errno != EAGAIN && errno != EWOULDBLOCK) dead = true;
          break;
        }
        sent += static_cast<std::size_t>(n);
      }
      if (!dead && limit < bytes.size()) {  // torn by the drill
        ::shutdown(fd_, SHUT_RDWR);
        dead = true;
      }
      if (!dead && sent == bytes.size()) return true;
      bytes.erase(0, sent);
    }
    if (!dead) {
      out_bytes_ += bytes.size();
      out_.push_back(std::move(bytes));
      overflow = out_bytes_ > server_->options_.write_hard_limit;
      need_flush = !flush_queued_;
      flush_queued_ = true;
    }
  }
  ConnPtr self = shared_from_this();
  if (dead || overflow) {
    // A failed write-through, or a slow reader past the hard limit: the
    // connection is beyond saving.
    loop_->post([loop = loop_, self] { loop->close_conn(self, true); });
    return false;
  }
  if (need_flush)
    loop_->post([loop = loop_, self] { loop->flush_conn(self); });
  return true;
}

bool Conn::try_send(std::string bytes) {
  {
    std::lock_guard<std::mutex> lock(out_mutex_);
    if (closed_.load(std::memory_order_acquire) || closing_after_flush_)
      return false;
    if (out_bytes_ + bytes.size() > server_->options_.write_soft_limit)
      return true;  // drop: a lossy stream frame beats wedging the conn
  }
  return send(std::move(bytes));
}

void Conn::close_after_flush() {
  {
    std::lock_guard<std::mutex> lock(out_mutex_);
    if (closed_.load(std::memory_order_acquire)) return;
    closing_after_flush_ = true;
  }
  ConnPtr self = shared_from_this();
  loop_->post([loop = loop_, self] { loop->flush_conn(self); });
}

void Conn::set_user(std::shared_ptr<void> user) {
  std::lock_guard<std::mutex> lock(in_mutex_);
  user_ = std::move(user);
}

std::shared_ptr<void> Conn::user() const {
  std::lock_guard<std::mutex> lock(in_mutex_);
  return user_;
}

// ---------------------------------------------------------------------------
// ReactorServer

ReactorServer::ReactorServer(ReactorOptions options,
                             ReactorCallbacks callbacks)
    : options_(std::move(options)), callbacks_(std::move(callbacks)) {
  if (options_.event_loops == 0) options_.event_loops = 1;
  if (options_.max_batch == 0) options_.max_batch = 1;
  if (options_.workers == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    options_.workers = hw == 0 ? 4 : (hw < 4 ? 4 : (hw > 16 ? 16 : hw));
  }
}

ReactorServer::~ReactorServer() { shutdown(); }

void ReactorServer::start() {
  listener_.listen(options_.host, options_.port);
  workers_.start(options_.workers);
  for (std::size_t i = 0; i < options_.event_loops; ++i) {
    loops_.push_back(std::make_unique<EventLoop>(this));
    loops_.back()->start();
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  started_.store(true, std::memory_order_release);
}

std::uint16_t ReactorServer::port() const noexcept {
  return listener_.port();
}

void ReactorServer::accept_loop() {
  while (!draining_.load(std::memory_order_acquire)) {
    const int fd = listener_.accept_ready(100);
    if (fd < 0) continue;
    adopt(fd);
  }
}

void ReactorServer::adopt(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  EventLoop* loop =
      loops_[next_loop_.fetch_add(1, std::memory_order_relaxed) %
             loops_.size()]
          .get();
  ConnPtr conn(new Conn(fd, next_conn_id_.fetch_add(1), this, loop));
  loop->post([loop, conn] { loop->register_conn(conn); });
}

bool ReactorServer::extract_locked(const ConnPtr& conn,
                                   std::vector<Message>* batch,
                                   std::string* error) {
  std::string& in = conn->in_;
  std::size_t& pos = conn->in_consumed_;
  while (batch->size() < options_.max_batch) {
    const std::size_t avail = in.size() - pos;
    if (avail == 0) break;
    if (conn->mode_ == WireMode::Line) {
      const std::size_t nl = in.find('\n', pos);
      if (nl == std::string::npos) {
        if (avail > options_.max_message_bytes) {
          *error = "request line too long";
          return false;
        }
        if (conn->peer_half_closed_ && !conn->tail_flushed_) {
          // EOF with an unterminated tail: `printf | nc` never sends the
          // final newline — serve the tail as the last line.
          Message tail;
          tail.payload.assign(in, pos, std::string::npos);
          pos = in.size();
          if (!tail.payload.empty() && tail.payload.back() == '\r')
            tail.payload.pop_back();
          conn->tail_flushed_ = true;
          batch->push_back(std::move(tail));
        }
        break;
      }
      if (nl - pos > options_.max_message_bytes) {
        *error = "request line too long";
        return false;
      }
      Message message;
      message.payload.assign(in, pos, nl - pos);
      pos = nl + 1;
      if (!message.payload.empty() && message.payload.back() == '\r')
        message.payload.pop_back();
      if (is_upgrade_line(message.payload)) {
        message.upgrade = true;
        conn->mode_ = WireMode::Binary;
        conn->mode_atomic_.store(1, std::memory_order_release);
      }
      batch->push_back(std::move(message));
    } else {
      if (avail < kFrameHeaderBytes) break;
      FrameHeader header;
      if (!parse_frame_header(in.data() + pos, options_.max_message_bytes,
                              &header, error))
        return false;
      if (avail < kFrameHeaderBytes + header.payload_len) break;
      Message message;
      message.mode = WireMode::Binary;
      message.frame_type = header.type;
      message.payload.assign(in, pos + kFrameHeaderBytes, header.payload_len);
      pos += kFrameHeaderBytes + header.payload_len;
      batch->push_back(std::move(message));
    }
  }
  if (pos > 65536 && pos * 2 > in.size()) {
    in.erase(0, pos);
    pos = 0;
  }
  return true;
}

void ReactorServer::dispatch_input(const ConnPtr& conn) {
  std::vector<Message> batch;
  std::string error;
  WireMode mode = WireMode::Line;
  {
    std::lock_guard<std::mutex> lock(conn->in_mutex_);
    if (conn->closed_.load(std::memory_order_acquire) || conn->processing_)
      return;
    const bool ok = extract_locked(conn, &batch, &error);
    mode = conn->mode_;
    if (ok && batch.empty()) return;
    if (ok) conn->processing_ = true;
  }
  if (!error.empty()) {
    protocol_error(conn, mode, error);
    return;
  }
  batches_in_flight_.fetch_add(1, std::memory_order_acq_rel);
  workers_.post([this, conn, b = std::move(batch)]() mutable {
    run_batches(conn, std::move(b));
  });
}

void ReactorServer::run_batches(const ConnPtr& conn,
                                std::vector<Message> batch) {
  for (;;) {
    callbacks_.on_batch(conn, std::move(batch));
    batch.clear();
    std::string error;
    WireMode mode = WireMode::Line;
    bool half_closed = false;
    {
      std::lock_guard<std::mutex> lock(conn->in_mutex_);
      const bool ok = extract_locked(conn, &batch, &error);
      mode = conn->mode_;
      if (!ok || batch.empty()) {
        conn->processing_ = false;
        half_closed = conn->peer_half_closed_;
      }
    }
    if (!error.empty()) {
      protocol_error(conn, mode, error);
      break;
    }
    if (batch.empty()) {
      if (half_closed) {
        ConnPtr self = conn;
        conn->loop_->post([loop = conn->loop_, self] {
          loop->maybe_close_quiescent(self);
        });
      }
      break;
    }
  }
  batches_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
}

void ReactorServer::protocol_error(const ConnPtr& conn, WireMode mode,
                                   const std::string& message) {
  std::string reply;
  if (callbacks_.protocol_error_reply) {
    reply = callbacks_.protocol_error_reply(mode, message);
  } else {
    reply = "{\"error\":\"" + io::json::escape(message) + "\"}\n";
  }
  conn->send(std::move(reply));
  conn->close_after_flush();
}

void ReactorServer::note_closed(const ConnPtr& conn, bool aborted) {
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (auto it = conns_.begin(); it != conns_.end(); ++it) {
      if (it->get() == conn.get()) {
        conns_.erase(it);
        break;
      }
    }
  }
  if (callbacks_.on_close) callbacks_.on_close(conn, aborted);
}

std::vector<ConnPtr> ReactorServer::connections() const {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  return conns_;
}

void ReactorServer::begin_drain() {
  if (draining_.exchange(true, std::memory_order_acq_rel)) return;
  listener_.shutdown_now();
  if (accept_thread_.joinable()) accept_thread_.join();
  // Stop reading everywhere, but push already-buffered complete messages
  // through the handlers — an accepted request is never dropped silently.
  for (const std::unique_ptr<EventLoop>& loop : loops_) {
    EventLoop* raw = loop.get();
    raw->post([this, raw] {
      for (const ConnPtr& conn : connections()) {
        // Interest and fds are loop-only state: each loop drains its own.
        if (conn->loop_ != raw) continue;
        raw->update_interest(conn);
        dispatch_input(conn);
      }
    });
  }
}

void ReactorServer::shutdown() {
  if (!started_.load(std::memory_order_acquire)) return;
  begin_drain();
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
  // 1. Let in-flight batches finish (the owner cancelled their budgets
  // between begin_drain and here, so solvers bail at the next checkpoint).
  while (batches_in_flight_.load(std::memory_order_acquire) != 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // 2. Bounded wait for write queues to flush.
  const std::uint64_t deadline = steady_us() + 5'000'000;
  for (;;) {
    std::size_t backlog = 0;
    for (const ConnPtr& conn : connections()) {
      std::lock_guard<std::mutex> lock(conn->out_mutex_);
      backlog += conn->out_bytes_;
    }
    if (backlog == 0 || steady_us() > deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // 3. Loops close their remaining connections on exit; then the workers.
  for (const std::unique_ptr<EventLoop>& loop : loops_)
    loop->stop_and_join();
  workers_.stop();
  listener_.close();
}

}  // namespace ebmf::net
