#include "net/frame_client.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>

#include "io/binary_io.h"
#include "net/frame.h"
#include "net/net.h"

namespace ebmf::net {


namespace {

// Client sockets are not budget-bound the way the server's are; accept
// anything up to the frame layer's practical ceiling.
constexpr std::size_t kMaxReplyPayload = 64u << 20;

}  // namespace

FrameClient::FrameClient(const std::string& host, std::uint16_t port)
    : fd_(tcp_connect(host, port)) {}

FrameClient::~FrameClient() { close(); }

void FrameClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void FrameClient::send_bytes(const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("connection lost mid-send");
    sent += static_cast<std::size_t>(n);
  }
}

void FrameClient::send_json(const std::string& line) {
  if (binary_) {
    send_bytes(encode_frame(kFrameJson, line));
  } else {
    send_bytes(line + "\n");
  }
}

void FrameClient::send_request(const io::WireRequest& wire) {
  if (binary_ && wire.op == io::WireOp::Solve && !wire.request.masked) {
    send_bytes(
        encode_frame(kFrameSolveRequest, io::binary_request_payload(wire)));
    return;
  }
  send_json(io::wire_request_json(wire));
}

bool FrameClient::upgrade() {
  if (binary_) return true;
  send_bytes("{\"op\":\"upgrade\"}\n");
  // The ack is the connection's last line-framed reply; buffered bytes
  // after its newline (possible when requests were pipelined behind the
  // upgrade) already belong to the frame protocol.
  std::string line;
  while (true) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      break;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("connection lost awaiting upgrade");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  binary_ = line.find("\"upgraded\":true") != std::string::npos;
  return binary_;
}

std::string FrameClient::read_reply() {
  if (!binary_) {
    while (true) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        return line;
      }
      char chunk[16384];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("server closed the connection");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }
  while (true) {
    if (buffer_.size() >= kFrameHeaderBytes) {
      FrameHeader header;
      std::string error;
      if (!parse_frame_header(buffer_.data(), kMaxReplyPayload, &header,
                              &error))
        throw std::runtime_error("malformed reply frame: " + error);
      if (buffer_.size() >= kFrameHeaderBytes + header.payload_len) {
        const std::string payload =
            buffer_.substr(kFrameHeaderBytes, header.payload_len);
        buffer_.erase(0, kFrameHeaderBytes + header.payload_len);
        return normalize_reply(header.type, payload);
      }
    }
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("server closed the connection");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string FrameClient::normalize_reply(std::uint8_t type,
                                         const std::string& payload) {
  switch (type) {
    case kFrameJson:
      return payload;
    case kFrameError: {
      const io::BinaryError be = io::parse_binary_error(payload);
      return error_json(be.message, be.label, be.id);
    }
    case kFrameSolveReport: {
      io::BinaryReply br = io::parse_binary_report(payload);
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
                               std::to_string(type));
  }
}

}  // namespace ebmf::net
