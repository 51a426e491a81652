// The blocking client for both wires: address-list failover, redirect
// chasing, request-id dedupe, and the binary upgrade with replies
// normalized back to JSON lines.

#include "net/client.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <ctime>
#include <functional>
#include <stdexcept>

#include "io/binary_io.h"

namespace ebmf::net {

namespace {

/// Answered-id cache bound: big enough for any realistic pipeline window,
/// small enough that a long-lived client never grows without bound.
constexpr std::size_t kAnsweredCap = 1024;

/// Redirect-chase bound: past this many hops in one round_trip the fleet
/// is mid-election; fall back to ordinary rotation instead of looping.
constexpr std::size_t kRedirectHops = 4;

/// Client sockets are not budget-bound the way the server's are; accept
/// reply frames up to the frame layer's practical ceiling.
constexpr std::size_t kMaxReplyPayload = 64u << 20;

/// Decode one reply frame back to the JSON line the line protocol would
/// have produced (see the file comment of client.h).
std::string normalize_reply(const Frame& frame) {
  switch (frame.type) {
    case kFrameJson:
      return frame.payload;
    case kFrameError: {
      const io::BinaryError be = io::parse_binary_error(frame.payload);
      return error_json(be.message, be.label, be.id);
    }
    case kFrameSolveReport: {
      io::BinaryReply br = io::parse_binary_report(frame.payload);
      std::string reply = io::wire_response_json(
          br.report, br.render_partition && !br.report.partition.empty(),
          br.id);
      const auto splice = [&reply](const std::string& key,
                                   const std::string& body) {
        if (body.empty() || reply.empty() || reply.back() != '}') return;
        reply.pop_back();
        reply += "," + key + ":" + body + "}";
      };
      splice("\"events\"", br.events_json);
      if (!br.spans_json.empty())
        splice("\"trace\"", "{\"spans\":" + br.spans_json + "}");
      return reply;
    }
    default:
      throw std::runtime_error("unexpected reply frame type " +
                               std::to_string(frame.type));
  }
}

}  // namespace

Client::Client(const std::vector<std::string>& endpoints)
    : endpoints_(endpoints),
      jitter_state_(0x9e3779b97f4a7c15ull ^
                    reinterpret_cast<std::uintptr_t>(this)),
      frames_(kMaxReplyPayload) {
  if (endpoints_.empty())
    throw std::runtime_error("client needs at least one address");
  for (cursor_ = 0; cursor_ < endpoints_.size(); ++cursor_)
    if (connect_to(endpoints_[cursor_])) return;
  // No address answered the first pass — ride out a transient (fleet
  // restarting, injected connect fault) with the same jittered-backoff
  // rotation a mid-flight reconnect uses before giving up.
  cursor_ = 0;
  if (reconnect()) return;
  std::string list;
  for (const std::string& endpoint : endpoints_)
    list += (list.empty() ? "" : ", ") + endpoint;
  throw std::runtime_error("all addresses refused (" + list + ")");
}

Client::Client(const std::string& host, std::uint16_t port)
    : Client(std::vector<std::string>{host + ":" + std::to_string(port)}) {}

Client::~Client() { close(); }

bool Client::negotiate() {
  const int result = negotiate_upgrade(fd_, buffer_);
  if (result < 0) return false;
  binary_ = result == 1;
  if (binary_) {
    // Replies pipelined behind the ack are already frames.
    const std::string rest = buffer_.take();
    frames_.append(rest.data(), rest.size());
  }
  return true;
}

bool Client::connect_to(const std::string& endpoint) {
  std::string host;
  std::uint16_t port = 0;
  if (!parse_endpoint(endpoint, host, port)) return false;
  close();
  buffer_.clear();
  frames_ = FrameBuffer(kMaxReplyPayload);
  binary_ = false;
  try {
    fd_ = tcp_connect(host, port);
  } catch (const std::exception&) {
    return false;
  }
  if (upgraded_ && !negotiate()) {
    close();
    return false;
  }
  connected_ = host + ":" + std::to_string(port);
  return true;
}

bool Client::reconnect(std::size_t rounds) {
  for (std::size_t round = 0; round < rounds; ++round) {
    if (round > 0) {
      // Full rotation failed: pause with capped exponential backoff,
      // jittered over [0.5, 1.5)x so a client herd restarting against the
      // same fleet doesn't re-dial in lockstep.
      jitter_state_ ^= jitter_state_ << 13;
      jitter_state_ ^= jitter_state_ >> 7;
      jitter_state_ ^= jitter_state_ << 17;
      const double fraction =
          static_cast<double>(jitter_state_ >> 11) * 0x1.0p-53;
      const double pause_ms = backoff_ms_ * (0.5 + fraction);
      backoff_ms_ = std::min(backoff_ms_ * 2.0, 1000.0);
      timespec nap{static_cast<time_t>(pause_ms / 1000.0),
                   static_cast<long>(std::fmod(pause_ms, 1000.0) * 1e6)};
      ::nanosleep(&nap, nullptr);
    }
    for (std::size_t step = 0; step < endpoints_.size(); ++step) {
      cursor_ = (cursor_ + 1) % endpoints_.size();
      if (connect_to(endpoints_[cursor_])) {
        backoff_ms_ = 50.0;
        return true;
      }
    }
  }
  return false;
}

bool Client::upgrade() {
  if (fd_ < 0) throw std::runtime_error("client is closed");
  upgraded_ = true;
  if (binary_ || negotiate() || reconnect()) return binary_;
  throw std::runtime_error("connection lost awaiting upgrade");
}

bool Client::record_answered(std::int64_t id, std::size_t line_hash,
                             const std::string& reply) {
  if (id < 0) return true;  // un-id'd requests cannot be deduped
  for (const auto& entry : answered_)
    if (entry.id == id && entry.line_hash == line_hash) return false;
  if (answered_.size() >= kAnsweredCap)
    answered_.erase(answered_.begin());
  answered_.push_back(Answered{id, line_hash, reply});
  return true;
}

bool Client::write_request(const std::string* line,
                           const io::WireRequest* wire) {
  if (!binary_)
    return write_line(fd_,
                      line != nullptr ? *line : io::wire_request_json(*wire));
  if (line == nullptr && wire->op == io::WireOp::Solve &&
      !wire->request.masked)
    return send_all(fd_, encode_frame(kFrameSolveRequest,
                                      io::binary_request_payload(*wire)));
  return send_all(
      fd_, encode_frame(kFrameJson, line != nullptr
                                        ? *line
                                        : io::wire_request_json(*wire)));
}

void Client::send(const std::string* line, const io::WireRequest* wire) {
  if (fd_ < 0) throw std::runtime_error("client is closed");
  if (write_request(line, wire)) return;
  // A reset peer (restarting backend, failed-over router) rotates to the
  // next address of the list; any other failure propagates immediately.
  if ((errno == ECONNRESET || errno == EPIPE) && reconnect() &&
      write_request(line, wire))
    return;
  sys_fail("send");
}

void Client::send_line(const std::string& line) { send(&line, nullptr); }

void Client::send_request(const io::WireRequest& wire) {
  send(nullptr, &wire);
}

std::string Client::read_line() {
  if (fd_ < 0) throw std::runtime_error("client is closed");
  if (!binary_) {
    std::string line;
    if (net::read_line(fd_, buffer_, line) || buffer_.flush(line))
      return line;
    throw std::runtime_error("server closed the connection");
  }
  Frame frame;
  char chunk[16384];
  while (true) {
    switch (frames_.pop(&frame)) {
      case FrameBuffer::Pop::Ok:
        return normalize_reply(frame);
      case FrameBuffer::Pop::Bad:
        throw std::runtime_error("malformed reply frame: " + frames_.error());
      case FrameBuffer::Pop::NeedMore:
        break;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n > 0)
      frames_.append(chunk, static_cast<std::size_t>(n));
    else if (n == 0 || errno != EINTR)
      throw std::runtime_error("server closed the connection");
  }
}

std::string Client::round_trip(const std::string& line) {
  // Exactly-once for the caller: an id this client already saw answered is
  // served from the cache — the earlier send landed, and re-submitting
  // would make a counting server (or the caller's own tally) see it twice.
  const std::int64_t id = io::salvage_request_id(line);
  const std::size_t line_hash = std::hash<std::string>{}(line);
  if (id >= 0)
    for (const auto& entry : answered_)
      if (entry.id == id && entry.line_hash == line_hash) return entry.reply;

  std::string reply;
  bool have_reply = false;
  try {
    send_line(line);
    reply = read_line();
    have_reply = true;
  } catch (const std::runtime_error&) {
    // The connection died between send and reply (peer restarted, fleet
    // failing over). Solve and stats requests are idempotent, so re-send
    // over the next live address; a second failure propagates.
    if (!reconnect()) throw;
    send_line(line);
    reply = read_line();
    have_reply = true;
  }

  // Chase follower redirects: reconnect to the named leaseholder and
  // re-send there. A stale redirect (old epoch, dead holder) just fails
  // the dial and falls back to rotation.
  for (std::size_t hop = 0; have_reply && hop < kRedirectHops; ++hop) {
    std::string target;
    std::uint64_t epoch = 0;
    std::uint64_t term = 0;
    if (!io::parse_wire_redirect(reply, &target, &epoch, &term)) break;
    if (!connect_to(target) && !reconnect()) break;
    send_line(line);
    reply = read_line();
  }

  // Only *answers* are cached for dedupe. An error or an unresolved
  // redirect means the request was not executed — a retry must reach the
  // fleet again, not be served the failure forever.
  std::string target;
  std::uint64_t epoch = 0;
  std::uint64_t term = 0;
  const bool unresolved =
      io::parse_wire_redirect(reply, &target, &epoch, &term) ||
      reply.rfind("{\"error\"", 0) == 0 ||
      (reply.rfind("{\"id\":", 0) == 0 &&
       reply.find(",\"error\":") != std::string::npos &&
       reply.find(",\"error\":") < 24);
  if (!unresolved) record_answered(id, line_hash, reply);
  return reply;
}

const std::string& Client::endpoint() const noexcept { return connected_; }

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace ebmf::net
