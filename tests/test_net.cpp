// Tests for ebmf::net: the frame codec (header validation, incremental
// decoding at every split offset), the line framer, the binary payload
// codecs, the reactor-backed wire through a real service — upgrade
// negotiation, JSON-vs-binary reply equivalence, pipelined ordering across
// the upgrade, protocol errors, torn writes, idle reaping, and drain — the
// client's upgrade across failover (library and `ebmf client --binary`),
// and the reactor's write-through send path.

#include "net/frame.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/cli.h"
#include "io/binary_io.h"
#include "io/json.h"
#include "io/request_io.h"
#include "net/client.h"
#include "net/reactor.h"
#include "net/net.h"
#include "service/service.h"
#include "support/fault.h"

namespace ebmf::net {
namespace {


// ---- frame codec -----------------------------------------------------------

TEST(Frame, EncodeParsesBackVerbatim) {
  const std::string bytes = encode_frame(kFrameJson, "{\"op\":\"stats\"}");
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + 14);
  FrameHeader header;
  std::string error;
  ASSERT_TRUE(parse_frame_header(bytes.data(), 1 << 20, &header, &error))
      << error;
  EXPECT_EQ(header.type, kFrameJson);
  EXPECT_EQ(header.payload_len, 14u);
  EXPECT_EQ(bytes.substr(kFrameHeaderBytes), "{\"op\":\"stats\"}");
}

TEST(Frame, HeaderRejectsEveryMalformedShape) {
  FrameHeader header;
  std::string error;
  // Zero-length payload.
  std::string zero = encode_frame(kFrameJson, "x");
  zero[0] = zero[1] = zero[2] = zero[3] = 0;
  EXPECT_FALSE(parse_frame_header(zero.data(), 1 << 20, &header, &error));
  // Oversized payload.
  const std::string big = encode_frame(kFrameJson, std::string(64, 'x'));
  EXPECT_FALSE(parse_frame_header(big.data(), 63, &header, &error));
  EXPECT_NE(error.find("64"), std::string::npos) << error;
  // Unknown frame types (0 and one past the last).
  for (const std::uint8_t type : {std::uint8_t{0}, std::uint8_t{5}}) {
    std::string bytes = encode_frame(kFrameJson, "x");
    bytes[4] = static_cast<char>(type);
    EXPECT_FALSE(parse_frame_header(bytes.data(), 1 << 20, &header, &error))
        << unsigned(type);
  }
  // Wrong version.
  std::string versioned = encode_frame(kFrameJson, "x");
  versioned[5] = 2;
  EXPECT_FALSE(
      parse_frame_header(versioned.data(), 1 << 20, &header, &error));
  // Nonzero reserved bytes.
  std::string reserved = encode_frame(kFrameJson, "x");
  reserved[6] = 1;
  EXPECT_FALSE(
      parse_frame_header(reserved.data(), 1 << 20, &header, &error));
}

TEST(Frame, BufferDecodesStreamSplitAtEveryByteOffset) {
  // Three frames of varied types and sizes, fed in two fragments split at
  // every possible byte boundary — the decoder must produce the identical
  // frame sequence regardless of how the stream fragments.
  std::string stream;
  append_frame(stream, kFrameSolveRequest, std::string(3, 'a'));
  append_frame(stream, kFrameJson, "{}");
  append_frame(stream, kFrameSolveReport, std::string(57, 'b'));
  for (std::size_t split = 0; split <= stream.size(); ++split) {
    FrameBuffer buffer(1 << 20);
    buffer.append(stream.data(), split);
    std::vector<Frame> frames;
    Frame frame;
    while (buffer.pop(&frame) == FrameBuffer::Pop::Ok)
      frames.push_back(frame);
    buffer.append(stream.data() + split, stream.size() - split);
    while (buffer.pop(&frame) == FrameBuffer::Pop::Ok)
      frames.push_back(frame);
    ASSERT_EQ(frames.size(), 3u) << "split at " << split;
    EXPECT_EQ(frames[0].type, kFrameSolveRequest);
    EXPECT_EQ(frames[0].payload, std::string(3, 'a'));
    EXPECT_EQ(frames[1].type, kFrameJson);
    EXPECT_EQ(frames[1].payload, "{}");
    EXPECT_EQ(frames[2].type, kFrameSolveReport);
    EXPECT_EQ(frames[2].payload, std::string(57, 'b'));
    EXPECT_EQ(buffer.pending(), 0u) << "split at " << split;
  }
}

TEST(Frame, BufferFedOneByteAtATime) {
  std::string stream;
  append_frame(stream, kFrameError, "oops");
  append_frame(stream, kFrameJson, "{\"id\":1}");
  FrameBuffer buffer(1 << 20);
  std::vector<Frame> frames;
  for (const char byte : stream) {
    buffer.append(&byte, 1);
    Frame frame;
    while (buffer.pop(&frame) == FrameBuffer::Pop::Ok)
      frames.push_back(frame);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].payload, "oops");
  EXPECT_EQ(frames[1].payload, "{\"id\":1}");
}

TEST(Frame, BufferBadHeaderIsTerminal) {
  FrameBuffer buffer(1 << 20);
  std::string bytes = encode_frame(kFrameJson, "x");
  bytes[5] = 9;  // bad version
  // A valid frame queued behind the malformed one must never surface.
  append_frame(bytes, kFrameJson, "{}");
  buffer.append(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(buffer.pop(&frame), FrameBuffer::Pop::Bad);
  EXPECT_FALSE(buffer.error().empty());
  EXPECT_EQ(buffer.pop(&frame), FrameBuffer::Pop::Bad);
}

// ---- line framer -----------------------------------------------------------

TEST(LineBuffer, PipelinedLinesInOddChunksPopInOrder) {
  // 10k lines of varied length (some CR-terminated), appended in chunks
  // whose sizes share no factor with the line lengths, popped as they
  // complete: every line comes back once, in order, CR trimmed.
  std::string stream;
  std::vector<std::string> sent;
  for (int i = 0; i < 10000; ++i) {
    std::string line = "{\"id\":" + std::to_string(i) + ",\"pad\":\"" +
                       std::string(static_cast<std::size_t>(i % 97), 'x') +
                       "\"}";
    sent.push_back(line);
    stream += line;
    stream += i % 3 == 0 ? "\r\n" : "\n";
  }
  LineBuffer buffer;
  std::vector<std::string> popped;
  std::string line;
  const std::size_t chunks[] = {1, 7, 13, 333, 4099, 65537};
  std::size_t at = 0;
  for (std::size_t k = 0; at < stream.size(); ++k) {
    const std::size_t n = std::min(chunks[k % 6], stream.size() - at);
    buffer.append(stream.data() + at, n);
    at += n;
    while (buffer.pop(line)) popped.push_back(line);
  }
  EXPECT_EQ(popped, sent);
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_FALSE(buffer.flush(line));
  // An unterminated tail stays put until flushed.
  buffer.append("{\"tail\":1}\r", 11);
  EXPECT_FALSE(buffer.pop(line));
  ASSERT_TRUE(buffer.flush(line));
  EXPECT_EQ(line, "{\"tail\":1}");
  EXPECT_EQ(buffer.size(), 0u);
}

// ---- binary payload codecs -------------------------------------------------

TEST(BinaryCodec, RequestRoundTripsThroughTheWire) {
  io::WireRequest wire = io::parse_wire_request(
      R"({"id":7,"pattern":"110;011;111","label":"eq2","strategy":"sap",)"
      R"("include_partition":true,"split":true,"seed":9,"trials":17})");
  wire.request.pre_canonical = true;
  wire.request.canon_hi = 0x0123456789abcdefull;
  wire.request.canon_lo = 0xfedcba9876543210ull;
  const io::WireRequest back =
      io::parse_binary_request(io::binary_request_payload(wire));
  EXPECT_EQ(back.id, 7);
  EXPECT_EQ(back.request.label, "eq2");
  EXPECT_EQ(back.request.strategy, "sap");
  EXPECT_TRUE(back.include_partition);
  EXPECT_TRUE(back.split);
  EXPECT_EQ(back.request.seed, 9u);
  EXPECT_EQ(back.request.trials, 17u);
  EXPECT_TRUE(back.request.pre_canonical);
  EXPECT_EQ(back.request.canon_hi, wire.request.canon_hi);
  EXPECT_EQ(back.request.canon_lo, wire.request.canon_lo);
  ASSERT_EQ(back.request.matrix.rows(), 3u);
  ASSERT_EQ(back.request.matrix.cols(), 3u);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_EQ(back.request.matrix.test(r, c),
                wire.request.matrix.test(r, c));
}

TEST(BinaryCodec, ProbesSlotKeepsTheLayoutAndIsRangeChecked) {
  // The retired bound-race width keeps its u32 slot after id (8), flags
  // (4), strategy (4 + 3), label (4 + 0), budget, conflicts and nodes
  // (8 each): written as 1, range-checked on read, then ignored.
  const io::WireRequest wire = io::parse_wire_request(
      R"({"pattern":"110;011","strategy":"sap","probes":4})");
  std::string payload = io::binary_request_payload(wire);
  constexpr std::size_t kSlot = 8 + 4 + 4 + 3 + 4 + 0 + 8 + 8 + 8;
  ASSERT_GT(payload.size(), kSlot + 4);
  EXPECT_EQ(payload.substr(kSlot, 4), std::string("\x01\0\0\0", 4));
  payload[kSlot] = 4;
  EXPECT_EQ(io::parse_binary_request(payload).request.probes, 1u);
  payload[kSlot] = 0x01;
  payload[kSlot + 1] = 0x10;  // 4097
  EXPECT_THROW((void)io::parse_binary_request(payload), std::runtime_error);
}

TEST(BinaryCodec, MaskedRequestsHaveNoBinaryEncoding) {
  const io::WireRequest wire =
      io::parse_wire_request(R"({"pattern":"1*;01"})");
  ASSERT_TRUE(wire.request.masked.has_value());
  EXPECT_THROW((void)io::binary_request_payload(wire), std::exception);
}

engine::SolveReport sample_report() {
  engine::SolveReport report;
  report.label = "sample";
  report.strategy = "sap";
  report.status = engine::Status::Optimal;
  report.lower_bound = 2;
  report.upper_bound = 2;
  report.gap = 0;
  report.total_seconds = 0.25;
  report.add_timing("canon", 0.01);
  report.add_timing("sap", 0.2);
  report.add_telemetry("cache_hit", "false");
  report.add_telemetry("canon.key", "00ff");
  Rectangle first{BitVec::from_string("110"), BitVec::from_string("0110")};
  Rectangle second{BitVec::from_string("001"), BitVec::from_string("1001")};
  report.partition = {first, second};
  return report;
}

TEST(BinaryCodec, IncumbentSlotCarriesTheDepthAndIsRangeChecked) {
  // The retired incumbent_depth keeps its u64 slot after id (8), flags (4),
  // label (4 + 6), strategy (4 + 3), status (1), lower and upper bound (8
  // each): written from upper_bound, range-checked on read, then dropped.
  std::string payload = io::binary_report_payload(sample_report(), false, 1,
                                                  3, 4);
  constexpr std::size_t kSlot = 8 + 4 + 4 + 6 + 4 + 3 + 1 + 8 + 8;
  ASSERT_GT(payload.size(), kSlot + 8);
  EXPECT_EQ(payload.substr(kSlot, 8), std::string("\x02\0\0\0\0\0\0\0", 8));
  payload[kSlot] = 7;
  EXPECT_EQ(io::parse_binary_report(payload).report.upper_bound, 2u);
  payload[kSlot + 7] = 0x01;  // far past any pattern dimension
  EXPECT_THROW((void)io::parse_binary_report(payload), std::runtime_error);
}

TEST(BinaryCodec, ReportRoundTripPreservesEveryField) {
  const engine::SolveReport report = sample_report();
  const io::BinaryReply back = io::parse_binary_report(
      io::binary_report_payload(report, /*include_partition=*/true, 42, 3, 4,
                                "[{\"tick\":1}]", "[{\"name\":\"s\"}]"));
  EXPECT_EQ(back.id, 42);
  EXPECT_TRUE(back.render_partition);
  EXPECT_EQ(back.rows, 3u);
  EXPECT_EQ(back.cols, 4u);
  EXPECT_EQ(back.events_json, "[{\"tick\":1}]");
  EXPECT_EQ(back.spans_json, "[{\"name\":\"s\"}]");
  const engine::SolveReport& decoded = back.report;
  EXPECT_EQ(decoded.label, report.label);
  EXPECT_EQ(decoded.strategy, report.strategy);
  EXPECT_EQ(decoded.status, report.status);
  EXPECT_EQ(decoded.lower_bound, report.lower_bound);
  EXPECT_EQ(decoded.upper_bound, report.upper_bound);
  EXPECT_EQ(decoded.gap, report.gap);
  EXPECT_EQ(decoded.total_seconds, report.total_seconds);
  ASSERT_EQ(decoded.timings.size(), 2u);
  EXPECT_EQ(decoded.timings[1].phase, "sap");
  EXPECT_EQ(decoded.timings[1].seconds, 0.2);
  ASSERT_EQ(decoded.partition.size(), 2u);
  EXPECT_TRUE(decoded.partition[0].contains(0, 1));
  EXPECT_FALSE(decoded.partition[0].contains(2, 1));
  EXPECT_TRUE(decoded.partition[1].contains(2, 0));
}

TEST(BinaryCodec, PartitionRidesEvenWhenNotRequested) {
  // Regression: depth() derives from the partition, so a payload that
  // dropped it when the client didn't ask for the JSON splice would
  // decode every unrequested reply as depth 0.
  const engine::SolveReport report = sample_report();
  const io::BinaryReply back = io::parse_binary_report(
      io::binary_report_payload(report, /*include_partition=*/false, 1, 3, 4));
  EXPECT_FALSE(back.render_partition);
  ASSERT_EQ(back.report.partition.size(), 2u);
  EXPECT_EQ(back.report.depth(), 2u);
  // And the normalized JSON omits the partition but keeps the real depth.
  const std::string rendered = io::wire_response_json(
      back.report, back.render_partition && !back.report.partition.empty(),
      back.id);
  EXPECT_NE(rendered.find("\"depth\":2"), std::string::npos) << rendered;
  EXPECT_EQ(rendered.find("\"partition\""), std::string::npos) << rendered;
}

TEST(BinaryCodec, ErrorRoundTripsWithIdAndLabel) {
  const io::BinaryError back = io::parse_binary_error(
      io::binary_error_payload(13, "unknown strategy 'nope'", "m.txt"));
  EXPECT_EQ(back.id, 13);
  EXPECT_EQ(back.message, "unknown strategy 'nope'");
  EXPECT_EQ(back.label, "m.txt");
}

TEST(BinaryCodec, TruncatedPayloadsAreRejectedNotRead) {
  const engine::SolveReport report = sample_report();
  const std::string full =
      io::binary_report_payload(report, true, 1, 3, 4, "[]", "[]");
  // Every strict prefix must throw, never crash or return garbage.
  for (std::size_t cut = 0; cut < full.size(); ++cut)
    EXPECT_THROW((void)io::parse_binary_report(full.substr(0, cut)),
                 std::exception)
        << "prefix of " << cut << " bytes parsed";
  EXPECT_EQ(io::binary_salvage_id(full), 1);
  EXPECT_EQ(io::binary_salvage_id(full.substr(0, 4)), -1);
}

// ---- the wire through a real service ---------------------------------------

service::ServerOptions test_options() {
  service::ServerOptions options;
  options.port = 0;  // ephemeral
  options.cache_mb = 8;
  options.budget_ceiling_seconds = 5.0;
  return options;
}

/// Structural comparison of two reply lines: every field that is stable
/// across repeated solves of the same pattern (timings and cache telemetry
/// legitimately differ between a cold and a warm solve).
void expect_equivalent_replies(const std::string& line_reply,
                               const std::string& frame_reply) {
  const io::json::Value a = io::json::Value::parse(line_reply);
  const io::json::Value b = io::json::Value::parse(frame_reply);
  for (const char* key : {"depth", "lower_bound", "upper_bound",
                          "incumbent_depth", "gap"}) {
    ASSERT_NE(a.find(key), nullptr) << key;
    ASSERT_NE(b.find(key), nullptr) << key;
    EXPECT_EQ(a.find(key)->as_number(), b.find(key)->as_number()) << key;
  }
  for (const char* key : {"label", "status"}) {
    EXPECT_EQ(a.find(key)->as_string(), b.find(key)->as_string()) << key;
  }
  EXPECT_EQ(a.find("partition") != nullptr, b.find("partition") != nullptr);
}

TEST(Wire, UpgradeNegotiatesAndBinaryRepliesMatchLineReplies) {
  service::Server server(test_options());
  server.start();
  Client line("127.0.0.1", server.port());
  Client frames("127.0.0.1", server.port());
  ASSERT_TRUE(frames.upgrade());
  EXPECT_TRUE(frames.binary());

  for (const char* pattern : {"110;011;111", "10;01", "1111;1111"}) {
    for (const bool with_partition : {false, true}) {
      const std::string request = std::string("{\"id\":3,\"pattern\":\"") +
                                  pattern + "\",\"label\":\"eq\"" +
                                  (with_partition
                                       ? ",\"include_partition\":true}"
                                       : "}");
      const std::string line_reply = line.round_trip(request);
      frames.send_request(io::parse_wire_request(request));
      const std::string frame_reply = frames.read_line();
      ASSERT_EQ(frame_reply.rfind("{\"id\":3,", 0), 0u) << frame_reply;
      expect_equivalent_replies(line_reply, frame_reply);
      if (with_partition)
        EXPECT_NE(frame_reply.find("\"partition\""), std::string::npos);
    }
  }
  server.stop();
}

TEST(Wire, DeclinedUpgradeKeepsTheLineProtocolUsable) {
  // An un-upgraded client is just a line client; send_request falls back
  // to JSON and read_line pops lines.
  service::Server server(test_options());
  server.start();
  Client client("127.0.0.1", server.port());
  EXPECT_FALSE(client.binary());
  client.send_request(io::parse_wire_request(R"({"pattern":"10;01"})"));
  const io::json::Value reply = io::json::Value::parse(client.read_line());
  EXPECT_EQ(reply.find("depth")->as_number(), 2.0);
  server.stop();
}

TEST(Wire, AdminVerbsRideTheBinaryConnectionAsJsonFrames) {
  service::Server server(test_options());
  server.start();
  Client client("127.0.0.1", server.port());
  ASSERT_TRUE(client.upgrade());
  client.send_line(R"({"op":"stats","id":5})");
  const io::json::Value stats = io::json::Value::parse(client.read_line());
  EXPECT_EQ(stats.find("id")->as_number(), 5.0);
  EXPECT_EQ(stats.find("role")->as_string(), "server");
  // A masked request has no binary encoding: send_request transparently
  // falls back to a type-4 JSON frame.
  client.send_request(io::parse_wire_request(R"({"pattern":"1*;01"})"));
  const io::json::Value masked = io::json::Value::parse(client.read_line());
  EXPECT_EQ(masked.find("error"), nullptr);
  EXPECT_GE(masked.find("depth")->as_number(), 1.0);
  server.stop();
}

TEST(Wire, UpgradeMidPipelineAnswersEachRequestInItsOwnProtocol) {
  // One write carries: a line request, the upgrade line, and a binary
  // frame request. The server must answer the first as a line, ack the
  // upgrade as a line, and answer the third as a frame — in order.
  service::Server server(test_options());
  server.start();
  const int fd = tcp_connect("127.0.0.1", server.port());
  ASSERT_GE(fd, 0);
  std::string bytes =
      "{\"id\":1,\"pattern\":\"10;01\"}\n"
      "{\"op\":\"upgrade\"}\n";
  append_frame(bytes, kFrameSolveRequest,
               io::binary_request_payload(io::parse_wire_request(
                   R"({"id":2,"pattern":"110;011;111"})")));
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));

  std::string buffer;
  const auto read_more = [&]() {
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    ASSERT_GT(n, 0) << "server closed mid-pipeline";
    buffer.append(chunk, static_cast<std::size_t>(n));
  };
  const auto pop_line = [&]() -> std::string {
    std::size_t newline;
    while ((newline = buffer.find('\n')) == std::string::npos) read_more();
    std::string line = buffer.substr(0, newline);
    buffer.erase(0, newline + 1);
    return line;
  };
  const std::string first = pop_line();
  EXPECT_EQ(first.rfind("{\"id\":1,", 0), 0u) << first;
  const std::string ack = pop_line();
  EXPECT_NE(ack.find("\"upgraded\":true"), std::string::npos) << ack;
  // Everything after the ack's newline is frames.
  FrameBuffer decoder(4u << 20);
  decoder.append(buffer.data(), buffer.size());
  Frame frame;
  while (decoder.pop(&frame) != FrameBuffer::Pop::Ok) {
    buffer.clear();
    read_more();
    decoder.append(buffer.data(), buffer.size());
  }
  ASSERT_EQ(frame.type, kFrameSolveReport);
  const io::BinaryReply reply = io::parse_binary_report(frame.payload);
  EXPECT_EQ(reply.id, 2);
  EXPECT_EQ(reply.report.depth(), 3u);
  ::close(fd);
  server.stop();
}

TEST(Wire, PipelinedBinaryRequestsAnswerInOrder) {
  service::Server server(test_options());
  server.start();
  Client client("127.0.0.1", server.port());
  ASSERT_TRUE(client.upgrade());
  const int n = 24;
  for (int i = 0; i < n; ++i) {
    // Alternate sizes so completion order differs from request order
    // without the reactor's per-connection sequencing.
    const std::string pattern = (i % 2 == 0) ? "110;011;111" : "10;01";
    client.send_request(io::parse_wire_request(
        "{\"id\":" + std::to_string(i) + ",\"pattern\":\"" + pattern +
        "\"}"));
  }
  for (int i = 0; i < n; ++i) {
    const io::json::Value reply = io::json::Value::parse(client.read_line());
    ASSERT_EQ(reply.find("error"), nullptr) << i;
    EXPECT_EQ(reply.find("id")->as_number(), static_cast<double>(i));
    EXPECT_EQ(reply.find("depth")->as_number(), (i % 2 == 0) ? 3.0 : 2.0);
  }
  server.stop();
}

/// Block until one newline-terminated line arrives on a raw socket.
/// Returns false on EOF; leftover bytes past the newline stay in `buffer`.
bool read_line_fd(int fd, std::string& buffer, std::string& line) {
  while (true) {
    const std::size_t newline = buffer.find('\n');
    if (newline != std::string::npos) {
      line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

TEST(Wire, MalformedFrameGetsAnErrorFrameThenClose) {
  service::Server server(test_options());
  server.start();
  // An unknown frame type is a terminal protocol error: the server answers
  // with a type-3 error frame and closes the connection.
  const int fd = tcp_connect("127.0.0.1", server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(write_line(fd, "{\"op\":\"upgrade\"}"));
  std::string buffer;
  std::string ack;
  ASSERT_TRUE(read_line_fd(fd, buffer, ack));
  ASSERT_NE(ack.find("\"upgraded\":true"), std::string::npos);
  std::string bytes = encode_frame(kFrameJson, "{}");
  bytes[4] = 9;
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  // The error frame arrives, then EOF.
  std::string wire = buffer;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0)
    wire.append(chunk, static_cast<std::size_t>(n));
  FrameBuffer decoder(4u << 20);
  decoder.append(wire.data(), wire.size());
  Frame frame;
  ASSERT_EQ(decoder.pop(&frame), FrameBuffer::Pop::Ok);
  EXPECT_EQ(frame.type, kFrameError);
  const io::BinaryError error = io::parse_binary_error(frame.payload);
  EXPECT_NE(error.message.find("frame"), std::string::npos) << error.message;
  ::close(fd);
  // The server survived: a fresh connection still solves.
  Client fresh("127.0.0.1", server.port());
  EXPECT_NE(fresh.round_trip(R"({"pattern":"10;01"})").find("\"depth\":2"),
            std::string::npos);
  server.stop();
}

TEST(Wire, TornWritesNeverWedgeTheServer) {
  service::Server server(test_options());
  server.start();
  // A client whose every write is torn mid-line: the server sees bytes
  // but never a newline, then the socket shuts down. The reactor must
  // drop the connection without disturbing its neighbours.
  fault::Config plan;
  plan.torn_write = 1.0;
  plan.seed = 7;
  fault::configure(plan);
  const std::uint64_t torn_before = fault::stats().torn_writes;
  {
    const int fd = tcp_connect("127.0.0.1", server.port());
    ASSERT_GE(fd, 0);
    (void)write_line(
        fd, R"({"pattern":"110;011;111","label":"torn-victim"})");
    char chunk[256];
    // The peer never answers a torn line; it closes or stays silent.
    struct timeval tv{0, 200000};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    (void)::recv(fd, chunk, sizeof chunk, 0);
    ::close(fd);
  }
  fault::reset();
  EXPECT_GT(fault::stats().torn_writes, torn_before)
      << "the drill never drilled anything";
  // Torn frames too: promise 64 payload bytes, deliver 10, hang up.
  {
    const int fd = tcp_connect("127.0.0.1", server.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(write_line(fd, "{\"op\":\"upgrade\"}"));
    std::string buffer;
    std::string ack;
    ASSERT_TRUE(read_line_fd(fd, buffer, ack));
    ASSERT_NE(ack.find("\"upgraded\":true"), std::string::npos);
    const std::string full = encode_frame(kFrameJson, std::string(64, 'x'));
    ASSERT_EQ(::send(fd, full.data(), kFrameHeaderBytes + 10, MSG_NOSIGNAL),
              static_cast<ssize_t>(kFrameHeaderBytes + 10));
    ::shutdown(fd, SHUT_WR);
    char chunk[64];
    while (::recv(fd, chunk, sizeof chunk, 0) > 0) {
    }
    ::close(fd);
  }
  // Both casualties drained; the server still answers.
  Client fresh("127.0.0.1", server.port());
  EXPECT_NE(fresh.round_trip(R"({"pattern":"10;01"})").find("\"depth\":2"),
            std::string::npos);
  server.stop();
}

TEST(Wire, IdleConnectionsAreReapedHalfOpenIncluded) {
  service::ServerOptions options = test_options();
  options.idle_timeout_seconds = 0.2;
  service::Server server(options);
  server.start();
  // An idle upgraded connection and an idle line connection both get
  // reaped; a connection kept warm by traffic survives. Both idlers are
  // raw sockets probed with MSG_DONTWAIT so the probe itself never
  // refreshes their activity clocks.
  const int idle_binary = tcp_connect("127.0.0.1", server.port());
  ASSERT_GE(idle_binary, 0);
  ASSERT_TRUE(write_line(idle_binary, "{\"op\":\"upgrade\"}"));
  {
    std::string buffer;
    std::string ack;
    ASSERT_TRUE(read_line_fd(idle_binary, buffer, ack));
    ASSERT_NE(ack.find("\"upgraded\":true"), std::string::npos);
  }
  const int idle_line = tcp_connect("127.0.0.1", server.port());
  ASSERT_GE(idle_line, 0);
  Client busy("127.0.0.1", server.port());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool binary_reaped = false;
  bool line_reaped = false;
  while (std::chrono::steady_clock::now() < deadline &&
         !(binary_reaped && line_reaped)) {
    // Traffic keeps the busy connection's clock fresh past several sweeps.
    ASSERT_NE(
        busy.round_trip(R"({"pattern":"10;01"})").find("\"depth\":2"),
        std::string::npos);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    char byte;
    if (!line_reaped)
      line_reaped = ::recv(idle_line, &byte, 1, MSG_DONTWAIT) == 0;
    if (!binary_reaped)
      binary_reaped = ::recv(idle_binary, &byte, 1, MSG_DONTWAIT) == 0;
  }
  EXPECT_TRUE(binary_reaped) << "idle binary connection never reaped";
  EXPECT_TRUE(line_reaped) << "idle line connection never reaped";
  ::close(idle_line);
  ::close(idle_binary);
  server.stop();
}

TEST(Wire, SlowReaderBackpressureDeliversEverythingEventually) {
  // Pipeline a large burst without reading a byte, then drain: every
  // reply arrives, in order, through the reactor's outbound queue.
  service::ServerOptions options = test_options();
  options.max_inflight = 1024;
  options.max_batch = 64;
  service::Server server(options);
  server.start();
  Client client("127.0.0.1", server.port());
  ASSERT_TRUE(client.upgrade());
  const int n = 200;
  for (int i = 0; i < n; ++i)
    client.send_request(io::parse_wire_request(
        "{\"id\":" + std::to_string(i) + ",\"pattern\":\"10;01\"}"));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (int i = 0; i < n; ++i) {
    const io::json::Value reply = io::json::Value::parse(client.read_line());
    ASSERT_EQ(reply.find("error"), nullptr) << i;
    EXPECT_EQ(reply.find("id")->as_number(), static_cast<double>(i));
  }
  server.stop();
}

TEST(Wire, DrainUnderMixedProtocolLoadLosesNothingAccepted) {
  service::ServerOptions options = test_options();
  options.budget_ceiling_seconds = 30.0;
  service::Server server(options);
  server.start();
  std::vector<std::thread> clients;
  std::atomic<int> finished{0};
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&, c]() {
      try {
        Client client("127.0.0.1", server.port());
        if (c % 2 == 0) {
          if (!client.upgrade()) return;
        }
        client.send_request(io::parse_wire_request(
            R"({"pattern":"111000;000111;110011"})"));
        (void)client.read_line();
        finished.fetch_add(1);
      } catch (const std::exception&) {
        // Server closed first: acceptable during drain.
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.stop();
  for (auto& t : clients) t.join();
  EXPECT_FALSE(server.running());
}

/// A loopback port nothing listens on: connects to it are refused.
std::uint16_t dead_port() {
  TcpListener probe;
  probe.listen("127.0.0.1", 0);
  return probe.port();
}

TEST(Wire, UpgradedClientConnectsPastADeadAddress) {
  service::Server server(test_options());
  server.start();
  const std::string live = "127.0.0.1:" + std::to_string(server.port());
  Client client({"127.0.0.1:" + std::to_string(dead_port()), live});
  EXPECT_EQ(client.endpoint(), live);
  ASSERT_TRUE(client.upgrade());
  EXPECT_TRUE(client.binary());
  client.send_request(
      io::parse_wire_request(R"({"id":7,"pattern":"110;011;111"})"));
  const std::string reply = client.read_line();
  ASSERT_EQ(reply.rfind("{\"id\":7,", 0), 0u) << reply;
  EXPECT_EQ(io::json::Value::parse(reply).find("depth")->as_number(), 3.0);
  server.stop();
}

TEST(Wire, UpgradedClientUpgradesAgainAfterFailover) {
  auto first = std::make_unique<service::Server>(test_options());
  service::Server second(test_options());
  first->start();
  second.start();
  const std::string second_address =
      "127.0.0.1:" + std::to_string(second.port());
  Client client(
      {"127.0.0.1:" + std::to_string(first->port()), second_address});
  ASSERT_TRUE(client.upgrade());
  ASSERT_EQ(client.round_trip(R"({"pattern":"10;01"})").find("\"error\""),
            std::string::npos);

  first->stop();
  first.reset();
  const std::string reply = client.round_trip(R"({"pattern":"10;01"})");
  EXPECT_EQ(reply.find("\"error\""), std::string::npos) << reply;
  EXPECT_EQ(client.endpoint(), second_address);
  EXPECT_TRUE(client.binary());
  // A type-1 frame only parses on an upgraded connection: a line-mode
  // server would read its header bytes as a malformed line.
  client.send_request(
      io::parse_wire_request(R"({"id":4,"pattern":"110;011;111"})"));
  const std::string framed = client.read_line();
  ASSERT_EQ(framed.rfind("{\"id\":4,", 0), 0u) << framed;
  EXPECT_EQ(io::json::Value::parse(framed).find("depth")->as_number(), 3.0);
  second.stop();
}

TEST(Wire, CliBinaryClientFailsOverAndMatchesLineReplies) {
  service::Server server(test_options());
  server.start();
  const std::string live = "127.0.0.1:" + std::to_string(server.port());
  const std::string connect =
      "--connect=127.0.0.1:" + std::to_string(dead_port()) + "," + live;
  std::vector<std::string> files;
  for (const char* pattern : {"110\n011\n111\n", "10\n01\n"}) {
    files.push_back("/tmp/ebmf_wire_cli_" + std::to_string(files.size()) +
                    ".txt");
    std::ofstream(files.back()) << pattern;
  }
  const auto run = [&](bool binary) {
    std::vector<std::string> args = files;
    args.push_back(connect);
    if (binary) args.push_back("--binary");
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(cli::run_command("client", args, out, err), 0) << err.str();
    std::vector<std::string> replies;
    std::istringstream lines(out.str());
    for (std::string line; std::getline(lines, line);)
      replies.push_back(line);
    return replies;
  };
  const std::vector<std::string> line_replies = run(false);
  const std::vector<std::string> frame_replies = run(true);
  ASSERT_EQ(line_replies.size(), files.size());
  ASSERT_EQ(frame_replies.size(), files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    expect_equivalent_replies(line_replies[i], frame_replies[i]);
    EXPECT_EQ(io::json::Value::parse(frame_replies[i])
                  .find("endpoint")
                  ->as_string(),
              live);
  }
  server.stop();
}

// ---- write-through sends ---------------------------------------------------

/// Read one '\n'-terminated line through a LineBuffer; false on EOF.
bool read_framed_line(int fd, LineBuffer& buffer, std::string& line) {
  while (!buffer.pop(line)) {
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  return true;
}

constexpr int kStreamLines = 2000;

/// Connect with a small receive window, so a peer's sends fill the socket
/// and the reactor has to queue.
int connect_small_window(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int tiny = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof tiny);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(WriteThrough, RepliesAndAWatchStreamStayInOrderOnOneConnection) {
  // The handler sends replies while another thread streams try_send frames
  // on the same connection, as a watch does, to a reader slower than the
  // writers, so sends keep finding the socket full or the queue non-empty:
  // each side's lines arrive whole and in order, and no reply is lost.
  ReactorOptions options;
  options.event_loops = 1;
  options.workers = 2;
  options.write_soft_limit = 1u << 20;
  ReactorCallbacks callbacks;
  const std::string pad(1500, '.');
  callbacks.on_batch = [&pad](const ConnPtr& conn,
                              std::vector<Message> batch) {
    for (const Message& message : batch) {
      if (message.payload != "go") continue;
      std::thread stream([conn, &pad] {
        for (int k = 0; k < kStreamLines; ++k)
          if (!conn->try_send("w" + std::to_string(k) + pad + "\n")) return;
      });
      for (int k = 0; k < kStreamLines; ++k)
        conn->send("r" + std::to_string(k) + pad + "\n");
      stream.join();
      conn->send("end\n");
    }
  };
  ReactorServer server(options, callbacks);
  server.start();
  const int fd = connect_small_window(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(write_line(fd, "go"));
  LineBuffer buffer;
  std::string line;
  int next_reply = 0;
  int last_frame = -1;
  for (int read = 0; read_framed_line(fd, buffer, line) && line != "end";
       ++read) {
    if (read % 50 == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_GT(line.size(), pad.size()) << "torn line";
    const std::string head = line.substr(0, line.size() - pad.size());
    ASSERT_EQ(line.substr(head.size()), pad) << "torn line";
    const int k = std::stoi(head.substr(1));
    ASSERT_EQ(head, head.substr(0, 1) + std::to_string(k)) << "torn line";
    if (head[0] == 'r') {
      ASSERT_EQ(k, next_reply) << "reply out of order";
      ++next_reply;
    } else {
      ASSERT_EQ(head[0], 'w') << "torn line";
      ASSERT_GT(k, last_frame) << "stream frame out of order";
      last_frame = k;
    }
  }
  EXPECT_EQ(line, "end");
  EXPECT_EQ(next_reply, kStreamLines);
  EXPECT_GE(last_frame, 0);
  ::close(fd);
  server.shutdown();
}

TEST(WriteThrough, ShortWriteFallsBackToTheLoopQueue) {
  // A reply far larger than the socket buffers can hold while the peer
  // reads nothing: the write-through takes what fits and send() returns at
  // once with the rest queued for the loop's writev. Everything then
  // arrives intact, and a reply sent after it arrives after it.
  ReactorOptions options;
  options.event_loops = 1;
  options.workers = 1;
  options.write_soft_limit = 1u << 20;
  options.write_hard_limit = 64u << 20;
  const std::string big = [] {
    std::string text(12u << 20, 'b');
    for (std::size_t i = 0; i < text.size(); i += 4096)
      text[i] = static_cast<char>('a' + (i / 4096) % 26);
    return text;
  }();
  std::atomic<bool> sent{false};
  ReactorCallbacks callbacks;
  callbacks.on_batch = [&](const ConnPtr& conn, std::vector<Message> batch) {
    for (const Message& message : batch) {
      if (message.payload != "big") continue;
      EXPECT_TRUE(conn->send(big + "\n"));
      sent.store(true);
      EXPECT_TRUE(conn->send("after\n"));
    }
  };
  ReactorServer server(options, callbacks);
  server.start();
  const int fd = connect_small_window(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(write_line(fd, "big"));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!sent.load() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(sent.load()) << "send() blocked on a full socket";
  LineBuffer buffer;
  std::string line;
  ASSERT_TRUE(read_framed_line(fd, buffer, line));
  EXPECT_TRUE(line == big) << "the big reply arrived damaged ("
                           << line.size() << " of " << big.size() << " bytes)";
  ASSERT_TRUE(read_framed_line(fd, buffer, line));
  EXPECT_EQ(line, "after");
  ::close(fd);
  server.shutdown();
}

TEST(WriteThrough, PeerCloseRacingSendIsSafe) {
  // Handlers flood replies at peers that reset mid-stream, while a
  // bystander keeps dialing fresh connections (which reuse the freed
  // descriptors): every flood ends with send() refusing, and the bystander
  // only ever reads its own replies.
  ReactorOptions options;
  options.event_loops = 1;
  options.workers = 4;
  options.write_soft_limit = 256u << 10;
  options.write_hard_limit = 8u << 20;
  std::atomic<int> floods_ended{0};
  ReactorCallbacks callbacks;
  callbacks.on_batch = [&](const ConnPtr& conn, std::vector<Message> batch) {
    for (const Message& message : batch) {
      if (message.payload == "flood") {
        const std::string line = std::string(1000, 'x') + "\n";
        while (conn->send(line)) {
        }
        floods_ended.fetch_add(1);
      } else {
        conn->send("pong " + message.payload + "\n");
      }
    }
  };
  ReactorServer server(options, callbacks);
  server.start();
  std::atomic<bool> done{false};
  std::atomic<int> bystander_ok{0};
  std::thread bystander([&] {
    for (int i = 0; !done.load(); ++i) {
      const int fd = tcp_connect("127.0.0.1", server.port());
      const std::string ping = "p" + std::to_string(i);
      ASSERT_TRUE(write_line(fd, ping));
      LineBuffer buffer;
      std::string line;
      ASSERT_TRUE(read_framed_line(fd, buffer, line));
      ASSERT_EQ(line, "pong " + ping) << "a reply crossed connections";
      bystander_ok.fetch_add(1);
      ::close(fd);
    }
  });
  constexpr int kFloods = 12;
  for (int round = 0; round < kFloods; ++round) {
    const int fd = tcp_connect("127.0.0.1", server.port());
    ASSERT_TRUE(write_line(fd, "flood"));
    char chunk[4096];
    ASSERT_GT(::recv(fd, chunk, sizeof chunk, 0), 0);
    const linger reset{1, 0};  // close with RST while sends are running
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof reset);
    ::close(fd);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (floods_ended.load() < kFloods &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  done.store(true);
  bystander.join();
  EXPECT_EQ(floods_ended.load(), kFloods) << "a send() never saw the close";
  EXPECT_GT(bystander_ok.load(), 0);
  server.shutdown();
}

}  // namespace
}  // namespace ebmf::net
