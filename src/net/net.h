#pragma once
/// \file net.h
/// \brief Socket and line-framing plumbing below both tiers: the reactor
/// (net/reactor.h), the host (net/host.h), the blocking net::Client
/// (net/client.h), the router's backend pools and the CLI.
///
/// The wire protocol is newline-delimited JSON over TCP; every process in
/// the topology — `ebmf serve`, `ebmf route`, `ebmf client` — needs the
/// same pieces: a listener with a pollable accept loop, a blocking
/// connect, a full-line writer that survives partial sends, a byte buffer
/// that frames complete lines out of recv chunks, and the "host:port"
/// endpoint parsers.
///
/// Also here: the protocol's error-reply renderer and the `"id"` prefix
/// helpers the router uses to match pipelined backend replies to their
/// requests (responses carry the id as their first member, so the match
/// needs no full JSON parse on the hot path).

#include <cstdint>
#include <string>
#include <vector>

namespace ebmf::net {

/// Throw std::runtime_error("<what>: <strerror(errno)>").
[[noreturn]] void sys_fail(const std::string& what);

/// Disable Nagle on a connected TCP socket (best-effort; every socket the
/// tree creates — accepts, tcp_connect, pool dials — goes through this).
void set_tcp_nodelay(int fd);

/// `{"error": "...", "label": "..."}` with an optional `"id"` first member
/// — the protocol's failure reply (id < 0 omits the field).
std::string error_json(const std::string& message, const std::string& label,
                       std::int64_t id = -1);

/// Send `bytes` fully on a blocking socket; false when the peer is gone
/// (errno is left describing the failure). Every blocking send in the tree
/// goes through here, and so through the fault-injection seams
/// (support/fault.h): a drill can stall the write, drop it, or tear it
/// mid-message and shoot the connection.
bool send_all(int fd, const std::string& bytes);

/// send_all(`line` + '\n').
bool write_line(int fd, std::string line);

class LineBuffer;

/// Block for the next complete line on `fd`, buffering into `buffer`
/// (EINTR retried). False on EOF, error or a receive timeout; an
/// unterminated tail stays in `buffer`.
bool read_line(int fd, LineBuffer& buffer, std::string& line);

/// Negotiate the binary frame protocol (net/frame.h) on a line-mode
/// connection: send `{"op":"upgrade"}` and read the ack line through
/// `buffer`. Bytes that arrive behind the ack stay in `buffer` — they are
/// already frames. 1 = upgraded, 0 = the peer declined (an old build
/// answering with an error keeps a perfectly good line connection), -1 =
/// the socket died or `timeout_seconds` (> 0) expired first, which must
/// not be mistaken for a decline.
int negotiate_upgrade(int fd, LineBuffer& buffer, double timeout_seconds = 0);

/// Blocking IPv4 connect; returns the fd or throws std::runtime_error.
int tcp_connect(const std::string& host, std::uint16_t port);

/// Split "host:port" (port 1..65535). False on malformed input.
bool parse_endpoint(const std::string& text, std::string& host,
                    std::uint16_t& port);

/// Append every non-empty entry of the comma-separated "host:port" list
/// `text` to `endpoints` (`--announce`, `--backends`, `--peers`,
/// `--connect`). False when an entry is malformed; `bad` then names the
/// first such entry.
bool parse_endpoint_list(const std::string& text,
                         std::vector<std::string>& endpoints,
                         std::string* bad = nullptr);

/// If `line` is an object whose first member is `"id": <uint>`, extract the
/// id and rewrite `line` without it (`{"id":7,"x":1}` -> `{"x":1}`). False
/// (line untouched) when there is no id prefix.
bool strip_id_prefix(std::string& line, std::uint64_t& id);

/// Splice `"id": id` in as the first member of a rendered JSON object
/// (id < 0 returns the line unchanged).
std::string with_id_prefix(const std::string& line, std::int64_t id);

/// Frames complete '\n'-terminated lines (CR trimmed) out of appended
/// chunks. flush() hands back a trailing unterminated line — `printf | nc`
/// clients do not always send the final newline. Popped bytes are only
/// skipped (a consumed offset, compacted once it dominates the buffer, as
/// FrameBuffer does) and the newline search resumes where the last one
/// stopped, so a long line arriving in many chunks is scanned once.
class LineBuffer {
 public:
  void append(const char* data, std::size_t n) { buffer_.append(data, n); }

  /// Pop the next complete line; false when none is buffered.
  bool pop(std::string& line);

  /// Pop the unterminated tail (EOF handling); false when empty.
  bool flush(std::string& line);

  /// Drop everything buffered (a reconnect starts a fresh stream).
  void clear() noexcept;

  /// Hand over the unconsumed bytes verbatim and clear (a connection that
  /// switches to frames passes what arrived behind the ack on).
  std::string take();

  /// Unconsumed bytes.
  [[nodiscard]] std::size_t size() const noexcept {
    return buffer_.size() - consumed_;
  }

 private:
  std::string buffer_;
  std::size_t consumed_ = 0;  ///< Bytes of buffer_ already popped.
  std::size_t scanned_ = 0;   ///< Unconsumed bytes known to hold no '\n'.
};

/// A bound, listening IPv4 socket with a poll-based accept step — the
/// accept-loop shape both Server and Router run (poll with a timeout so the
/// loop can reap finished workers and notice stop()).
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener() { close(); }

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Bind + listen. Throws std::runtime_error (errno text) when the
  /// address is unusable. Port 0 binds an ephemeral port; port() reports
  /// the resolved one.
  void listen(const std::string& host, std::uint16_t port);

  /// Poll for a pending connection up to `timeout_ms`, then accept it.
  /// Returns the connection fd, or -1 when nothing arrived (timeout,
  /// EINTR, or the listener was shut down).
  int accept_ready(int timeout_ms);

  /// Wake any accept_ready() poll and refuse further connections (stop()
  /// path; close() releases the fd).
  void shutdown_now();

  void close();

  [[nodiscard]] bool listening() const noexcept { return fd_ >= 0; }
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace ebmf::net
