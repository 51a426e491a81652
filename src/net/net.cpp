// Socket and line-framing plumbing shared by both tiers, the client and the
// CLI.

#include "net/net.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "io/json.h"
#include "support/fault.h"

namespace ebmf::net {

void sys_fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void set_tcp_nodelay(int fd) {
  // The protocol is small pipelined request/reply lines and frames; Nagle
  // would stall every micro-batched reply behind the previous ACK. Failure
  // is ignored: fd may be a pipe/socketpair in tests.
  const int yes = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &yes, sizeof yes);
}

std::string error_json(const std::string& message, const std::string& label,
                       std::int64_t id) {
  std::string out = "{";
  if (id >= 0) out += "\"id\":" + std::to_string(id) + ",";
  out += "\"error\":\"" + io::json::escape(message) + "\"";
  if (!label.empty()) out += ",\"label\":\"" + io::json::escape(label) + "\"";
  out += "}";
  return out;
}

bool send_all(int fd, const std::string& bytes) {
  // Fault-injection seam: a drill can stall the write, drop it outright, or
  // tear it mid-message (send a prefix, then shoot the connection) so peers
  // see the same half-open/partial-frame failures a flaky network produces.
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
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  if (limit < bytes.size()) {  // torn: the peer never sees the whole message
    ::shutdown(fd, SHUT_RDWR);
    return false;
  }
  return true;
}

bool write_line(int fd, std::string line) {
  line += '\n';
  return send_all(fd, line);
}

int negotiate_upgrade(int fd, LineBuffer& buffer, double timeout_seconds) {
  if (!write_line(fd, "{\"op\":\"upgrade\"}")) return -1;
  const auto set_window = [fd](double seconds) {
    const auto micros = static_cast<long long>(seconds * 1e6);
    timeval window{static_cast<time_t>(micros / 1000000),
                   static_cast<suseconds_t>(micros % 1000000)};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &window, sizeof window);
  };
  if (timeout_seconds > 0) set_window(timeout_seconds);
  std::string line;
  int result = -1;
  if (read_line(fd, buffer, line))
    result = line.find("\"upgraded\":true") != std::string::npos ? 1 : 0;
  if (timeout_seconds > 0) set_window(0);
  return result;
}

int tcp_connect(const std::string& host, std::uint16_t port) {
  if (fault::should_drop_connect()) {
    errno = ECONNREFUSED;
    sys_fail("connect " + host + ":" + std::to_string(port) +
             " (injected fault)");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) sys_fail("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("bad host '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    sys_fail("connect " + host + ":" + std::to_string(port));
  }
  set_tcp_nodelay(fd);
  return fd;
}

bool parse_endpoint(const std::string& text, std::string& host,
                    std::uint16_t& port) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == text.size())
    return false;
  const std::string port_text = text.substr(colon + 1);
  char* end = nullptr;
  const unsigned long value = std::strtoul(port_text.c_str(), &end, 10);
  if (end == port_text.c_str() || *end != '\0' || value == 0 || value > 65535)
    return false;
  host = text.substr(0, colon);
  port = static_cast<std::uint16_t>(value);
  return true;
}

bool read_line(int fd, LineBuffer& buffer, std::string& line) {
  char chunk[16384];
  while (!buffer.pop(line)) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n > 0)
      buffer.append(chunk, static_cast<std::size_t>(n));
    else if (n == 0 || errno != EINTR)
      return false;
  }
  return true;
}

bool parse_endpoint_list(const std::string& text,
                         std::vector<std::string>& endpoints,
                         std::string* bad) {
  bool ok = true;
  std::string host;
  std::uint16_t port = 0;
  for (std::size_t start = 0; start <= text.size();) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    std::string entry = text.substr(start, comma - start);
    start = comma + 1;
    if (entry.empty()) continue;
    if (ok && !parse_endpoint(entry, host, port)) {
      ok = false;
      if (bad != nullptr) *bad = entry;
    }
    endpoints.push_back(std::move(entry));
  }
  return ok;
}

bool strip_id_prefix(std::string& line, std::uint64_t& id) {
  static constexpr char kPrefix[] = "{\"id\":";
  constexpr std::size_t kPrefixLen = sizeof kPrefix - 1;
  if (line.rfind(kPrefix, 0) != 0) return false;
  std::size_t pos = kPrefixLen;
  if (pos >= line.size() || line[pos] < '0' || line[pos] > '9') return false;
  std::uint64_t value = 0;
  while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
    value = value * 10 + static_cast<std::uint64_t>(line[pos] - '0');
    ++pos;
  }
  if (pos >= line.size()) return false;
  std::string rest;
  rest.reserve(line.size());
  rest += '{';
  if (line[pos] == ',') {
    rest.append(line, pos + 1, std::string::npos);
  } else if (line[pos] == '}') {
    rest.append(line, pos, std::string::npos);  // only member -> "{}"
  } else {
    return false;
  }
  line = std::move(rest);
  id = value;
  return true;
}

std::string with_id_prefix(const std::string& line, std::int64_t id) {
  if (id < 0 || line.empty() || line.front() != '{') return line;
  const std::string prefix = "{\"id\":" + std::to_string(id);
  if (line.size() >= 2 && line[1] == '}')  // "{}"
    return prefix + "}";
  return prefix + "," + line.substr(1);
}

bool LineBuffer::pop(std::string& line) {
  const std::size_t nl = buffer_.find('\n', consumed_ + scanned_);
  if (nl == std::string::npos) {
    scanned_ = buffer_.size() - consumed_;
    return false;
  }
  line.assign(buffer_, consumed_, nl - consumed_);
  consumed_ = nl + 1;
  scanned_ = 0;
  if (consumed_ == buffer_.size()) {
    clear();
  } else if (consumed_ > 65536 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return true;
}

bool LineBuffer::flush(std::string& line) {
  if (size() == 0) return false;
  line.assign(buffer_, consumed_, std::string::npos);
  clear();
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return true;
}

std::string LineBuffer::take() {
  std::string rest = buffer_.substr(consumed_);
  clear();
  return rest;
}

void LineBuffer::clear() noexcept {
  buffer_.clear();
  consumed_ = 0;
  scanned_ = 0;
}

void TcpListener::listen(const std::string& host, std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) sys_fail("socket");
  const int yes = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &yes, sizeof yes);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close();
    throw std::runtime_error("bad bind address '" + host + "'");
  }
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int saved = errno;
    close();
    errno = saved;
    sys_fail("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd_, SOMAXCONN) != 0) {
    const int saved = errno;
    close();
    errno = saved;
    sys_fail("listen");
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
}

int TcpListener::accept_ready(int timeout_ms) {
  if (fd_ < 0) return -1;
  pollfd waiter{fd_, POLLIN, 0};
  const int ready = ::poll(&waiter, 1, timeout_ms);
  if (ready <= 0) return -1;
  const int conn = ::accept(fd_, nullptr, nullptr);
  if (conn >= 0) set_tcp_nodelay(conn);
  return conn;
}

void TcpListener::shutdown_now() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void TcpListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace ebmf::net
