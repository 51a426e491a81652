// Tests for ebmf::service: in-process server round-trips, per-connection
// ordering under pipelining, 64-way concurrency, protocol errors, admission
// control, and the cache behaviour across connections.

#include "service/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "benchgen/generators.h"
#include "io/json.h"
#include "io/request_io.h"
#include "support/rng.h"

namespace ebmf::service {
namespace {

ServerOptions test_options() {
  ServerOptions options;
  options.port = 0;  // ephemeral
  options.cache_mb = 8;
  options.budget_ceiling_seconds = 5.0;
  return options;
}

/// Parsed response convenience: depth + cache_hit + error presence.
struct Reply {
  io::json::Value document;

  explicit Reply(const std::string& line)
      : document(io::json::Value::parse(line)) {}

  [[nodiscard]] bool is_error() const {
    return document.find("error") != nullptr;
  }
  [[nodiscard]] double depth() const {
    return document.find("depth")->as_number();
  }
  [[nodiscard]] std::string label() const {
    const io::json::Value* value = document.find("label");
    return value == nullptr ? "" : value->as_string();
  }
  [[nodiscard]] std::string telemetry(const std::string& key) const {
    const io::json::Value* t = document.find("telemetry");
    if (t == nullptr) return "";
    const io::json::Value* value = t->find(key);
    return value == nullptr ? "" : value->as_string();
  }
};

TEST(Service, RoundTripSolvesAndReportsJson) {
  Server server(test_options());
  server.start();
  Client client("127.0.0.1", server.port());
  const Reply reply(client.round_trip(
      R"({"pattern": "110;011;111", "label": "eq2"})"));
  EXPECT_FALSE(reply.is_error());
  EXPECT_EQ(reply.depth(), 3.0);
  EXPECT_EQ(reply.label(), "eq2");
  EXPECT_EQ(reply.document.find("status")->as_string(), "optimal");
  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.stats().requests, 1u);
}

TEST(Service, IncludePartitionAttachesCertificate) {
  Server server(test_options());
  server.start();
  Client client("127.0.0.1", server.port());
  const Reply reply(client.round_trip(
      R"({"pattern": "10;01", "include_partition": true})"));
  ASSERT_FALSE(reply.is_error());
  const io::json::Value* partition = reply.document.find("partition");
  ASSERT_NE(partition, nullptr);
  EXPECT_EQ(partition->size(), 2u);
  server.stop();
}

TEST(Service, PipelinedRequestsAnswerInOrder) {
  Server server(test_options());
  server.start();
  Client client("127.0.0.1", server.port());
  const int n = 20;
  for (int i = 0; i < n; ++i) {
    // Alternate instance sizes so completion order would differ from
    // request order without the server's per-connection sequencing.
    const std::string pattern =
        (i % 2 == 0) ? "110;011;111" : "10;01";
    client.send_line("{\"pattern\": \"" + pattern + "\", \"label\": \"r" +
                     std::to_string(i) + "\"}");
  }
  for (int i = 0; i < n; ++i) {
    const Reply reply(client.read_line());
    ASSERT_FALSE(reply.is_error()) << i;
    EXPECT_EQ(reply.label(), "r" + std::to_string(i));
    EXPECT_EQ(reply.depth(), (i % 2 == 0) ? 3.0 : 2.0);
  }
  server.stop();
}

TEST(Service, Sustains64ConcurrentInFlightRequests) {
  ServerOptions options = test_options();
  options.threads = 4;  // solver pool much smaller than the request count
  Server server(options);
  server.start();
  const int connections = 64;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  clients.reserve(connections);
  for (int c = 0; c < connections; ++c) {
    clients.emplace_back([&, c]() {
      try {
        Client client("127.0.0.1", server.port());
        const Reply reply(client.round_trip(
            "{\"pattern\": \"110;011;111\", \"label\": \"c" +
            std::to_string(c) + "\"}"));
        if (!reply.is_error() && reply.depth() == 3.0 &&
            reply.label() == "c" + std::to_string(c))
          ok.fetch_add(1);
      } catch (const std::exception&) {
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), connections);
  EXPECT_GE(server.stats().connections, 64u);
  server.stop();
}

TEST(Service, RepeatedPatternHitsCacheAcrossConnections) {
  Server server(test_options());
  server.start();
  {
    Client first("127.0.0.1", server.port());
    const Reply cold(first.round_trip(R"({"pattern": "1110;0111;1111"})"));
    EXPECT_EQ(cold.telemetry("cache_hit"), "false");
  }
  {
    Client second("127.0.0.1", server.port());
    // A column-permuted duplicate from a brand-new connection.
    const Reply warm(second.round_trip(R"({"pattern": "1101;1011;1111"})"));
    EXPECT_EQ(warm.telemetry("cache_hit"), "true");
  }
  ASSERT_NE(server.engine().cache(), nullptr);
  EXPECT_GE(server.engine().cache()->stats().hits, 1u);
  server.stop();
}

TEST(Service, MalformedLinesYieldErrorsAndKeepTheConnection) {
  Server server(test_options());
  server.start();
  Client client("127.0.0.1", server.port());
  const Reply bad(client.round_trip("this is not json"));
  EXPECT_TRUE(bad.is_error());
  const Reply missing(client.round_trip(R"({"strategy": "sap"})"));
  EXPECT_TRUE(missing.is_error());
  const Reply unknown(
      client.round_trip(R"({"pattern": "10;01", "strategy": "nope"})"));
  EXPECT_TRUE(unknown.is_error());
  EXPECT_NE(unknown.document.find("error")->as_string().find("nope"),
            std::string::npos);
  // The connection still works after three protocol errors.
  const Reply good(client.round_trip(R"({"pattern": "10;01"})"));
  EXPECT_FALSE(good.is_error());
  EXPECT_EQ(good.depth(), 2.0);
  EXPECT_EQ(server.stats().errors, 3u);
  server.stop();
}

TEST(Service, SplitRequestsRouteThroughSolveSplit) {
  Server server(test_options());
  server.start();
  Client client("127.0.0.1", server.port());
  // Two diagonal blocks: the split path decomposes, the giant-component
  // fallback telemetry appears for a single-component pattern.
  const Reply split(client.round_trip(
      R"({"pattern": "1100;1100;0011;0011", "split": true})"));
  ASSERT_FALSE(split.is_error());
  EXPECT_EQ(split.depth(), 2.0);
  const Reply single(client.round_trip(
      R"({"pattern": "11;11", "split": true})"));
  ASSERT_FALSE(single.is_error());
  EXPECT_EQ(single.telemetry("split.fallback"), "single-component");
  server.stop();
}

TEST(Service, AdmissionControlShedsLoadWithAnError) {
  ServerOptions options = test_options();
  options.max_inflight = 1;
  options.max_batch = 8;
  Server server(options);
  server.start();
  Client client("127.0.0.1", server.port());
  // A pipelined burst on one connection is parsed as one batch; with one
  // admission slot the surplus is rejected, in order.
  for (int i = 0; i < 4; ++i)
    client.send_line(R"({"pattern": "110;011;111"})");
  int errors = 0;
  int served = 0;
  for (int i = 0; i < 4; ++i) {
    const Reply reply(client.read_line());
    if (reply.is_error())
      ++errors;
    else
      ++served;
  }
  EXPECT_GE(served, 1);
  EXPECT_EQ(served + errors, 4);
  if (errors > 0) EXPECT_GE(server.stats().rejected, 1u);
  server.stop();
}

TEST(Service, StopDrainsCleanlyUnderLoad) {
  ServerOptions options = test_options();
  options.budget_ceiling_seconds = 30.0;  // long budgets; drain must cancel
  Server server(options);
  server.start();
  std::vector<std::thread> clients;
  std::atomic<int> answered{0};
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&]() {
      try {
        Client client("127.0.0.1", server.port());
        const Reply reply(client.round_trip(
            R"({"pattern": "111000;000111;110011"})"));
        (void)reply;
        answered.fetch_add(1);
      } catch (const std::exception&) {
        // Server closed first: acceptable during drain.
      }
    });
  }
  // Give the clients a moment to get in flight, then drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.stop();
  for (auto& t : clients) t.join();
  EXPECT_FALSE(server.running());
}

TEST(Service, StatsVerbReportsCountersAndCache) {
  Server server(test_options());
  server.start();
  Client client("127.0.0.1", server.port());
  const Reply solve(client.round_trip(R"({"pattern": "110;011;111"})"));
  ASSERT_FALSE(solve.is_error());
  const Reply stats(client.round_trip(R"({"op": "stats", "id": 5})"));
  ASSERT_FALSE(stats.is_error());
  EXPECT_EQ(stats.document.find("id")->as_number(), 5.0);
  EXPECT_EQ(stats.document.find("role")->as_string(), "server");
  const io::json::Value* server_block = stats.document.find("server");
  ASSERT_NE(server_block, nullptr);
  EXPECT_EQ(server_block->find("requests")->as_number(), 1.0);
  const io::json::Value* cache_block = stats.document.find("cache");
  ASSERT_NE(cache_block, nullptr);
  ASSERT_TRUE(cache_block->is_object());
  EXPECT_GE(cache_block->find("misses")->as_number(), 1.0);
  // The stats line is not a solve: the request counter did not move.
  EXPECT_EQ(server.stats().requests, 1u);
  server.stop();
}

TEST(Service, RequestIdIsEchoedFirstInTheResponse) {
  Server server(test_options());
  server.start();
  Client client("127.0.0.1", server.port());
  const std::string raw =
      client.round_trip(R"({"pattern": "10;01", "id": 11})");
  EXPECT_EQ(raw.rfind("{\"id\":11,", 0), 0u);
  const Reply reply(raw);
  ASSERT_FALSE(reply.is_error());
  EXPECT_EQ(reply.document.find("id")->as_number(), 11.0);
  // Errors echo the id too (the router matches error replies by id).
  const std::string bad = client.round_trip(R"({"id": 12, "nope": 1})");
  EXPECT_EQ(bad.rfind("{\"id\":12,", 0), 0u);
  EXPECT_TRUE(Reply(bad).is_error());
  server.stop();
}

TEST(Service, ClientReconnectsOnceAcrossAServerRestart) {
  ServerOptions options = test_options();
  Server first(options);
  first.start();
  const std::uint16_t port = first.port();
  Client client("127.0.0.1", port);
  const Reply before(client.round_trip(R"({"pattern": "10;01"})"));
  ASSERT_FALSE(before.is_error());

  // Restart the server on the same port while the client holds its (now
  // dead) connection. The next round_trip must succeed transparently via
  // the single reconnect + re-send.
  first.stop();
  options.port = port;
  Server second(options);
  second.start();
  const Reply after(client.round_trip(R"({"pattern": "110;011;111"})"));
  ASSERT_FALSE(after.is_error());
  EXPECT_EQ(after.depth(), 3.0);
  EXPECT_GE(second.stats().requests, 1u);
  second.stop();
}

TEST(Service, EphemeralPortIsReportedAndReusable) {
  Server first(test_options());
  first.start();
  const std::uint16_t port = first.port();
  EXPECT_NE(port, 0);
  first.stop();
  // The port is released after stop(); a new server can bind it again.
  ServerOptions options = test_options();
  options.port = port;
  Server second(options);
  second.start();
  EXPECT_EQ(second.port(), port);
  second.stop();
}

// ---- live progress streaming and the flight recorder -----------------------

std::string pattern_text(const BinaryMatrix& m) {
  std::string out;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    if (r != 0) out += ';';
    for (std::size_t c = 0; c < m.cols(); ++c)
      out += m.test(r, c) ? '1' : '0';
  }
  return out;
}

/// A structured qldpc-block pattern whose rank certificate goes slack, so
/// row packing alone answers it as a heuristic.
std::string hard_pattern(std::size_t blocks, std::size_t width) {
  Rng rng(7);
  return pattern_text(benchgen::qldpc_block_matrix(blocks, width, 0.3, rng));
}

/// Gap 20² k=6 (seed 6). Sent with `"trials":1`, SAP brackets it at
/// [16, 19], its SAT search narrows that to [16, 17] within ~1,500
/// conflicts, and the next bound stays open for seconds. So a budgeted
/// `auto` solve publishes seed, search and final frames and runs until its
/// deadline instead of certifying early.
std::string open_pattern() {
  Rng rng(6);
  return pattern_text(benchgen::gap_matrix(20, 20, 6, rng).matrix);
}

/// Subscribe `watcher` to in-flight id 0, retrying while the solve line is
/// still in flight to the server. Returns the first stream line ("" when
/// the subscription never took).
std::string subscribe_watch(Client& watcher) {
  for (int attempt = 0; attempt < 100; ++attempt) {
    watcher.send_line(R"({"op":"watch","id":0})");
    const std::string line = watcher.read_line();
    if (line.find("no in-flight request") == std::string::npos) return line;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return "";
}

TEST(Watch, UnknownIdIsAnErrorAndKeepsTheConnection) {
  Server server(test_options());
  server.start();
  Client client("127.0.0.1", server.port());
  const Reply miss(client.round_trip(R"({"op":"watch","id":777})"));
  ASSERT_TRUE(miss.is_error());
  EXPECT_NE(miss.document.find("error")->as_string().find(
                "no in-flight request with id 777"),
            std::string::npos);
  EXPECT_EQ(miss.document.find("id")->as_number(), 777.0);
  // The connection still serves solves afterwards.
  const Reply good(client.round_trip(R"({"pattern": "10;01"})"));
  EXPECT_FALSE(good.is_error());
  server.stop();
}

TEST(Watch, StreamsFramesWithNonIncreasingGapThenDone) {
  Server server(test_options());
  server.start();
  Client solver("127.0.0.1", server.port());
  solver.send_line("{\"id\":0,\"pattern\":\"" + open_pattern() +
                   "\",\"strategy\":\"auto\",\"trials\":1,\"budget\":1.5}");

  Client watcher("127.0.0.1", server.port());
  std::string line = subscribe_watch(watcher);
  ASSERT_FALSE(line.empty()) << "watch never attached";

  std::size_t frames = 0;
  std::uint64_t prev_seq = 0;
  std::uint64_t prev_gap = 0;
  bool have_gap = false;
  bool done = false;
  while (!done) {
    const io::json::Value frame = io::json::Value::parse(line);
    ASSERT_EQ(frame.find("error"), nullptr) << line;
    EXPECT_EQ(frame.find("id")->as_number(), 0.0);
    if (frame.find("done") != nullptr) {
      EXPECT_NE(frame.find("watch"), nullptr);
      EXPECT_GE(frame.find("frames")->as_number(),
                static_cast<double>(frames));
      done = true;
      break;
    }
    ASSERT_NE(frame.find("progress"), nullptr) << line;
    const auto seq =
        static_cast<std::uint64_t>(frame.find("seq")->as_number());
    if (frames != 0) EXPECT_GT(seq, prev_seq) << "seq not increasing";
    prev_seq = seq;
    // The anytime trajectory only improves: once the search phase starts
    // reporting a gap, it never widens.
    if (frame.find("phase") != nullptr &&
        frame.find("phase")->as_string() == "search") {
      const auto gap =
          static_cast<std::uint64_t>(frame.find("gap")->as_number());
      if (have_gap) EXPECT_LE(gap, prev_gap) << "gap widened";
      prev_gap = gap;
      have_gap = true;
    }
    ++frames;
    line = watcher.read_line();
  }
  EXPECT_TRUE(done);
  EXPECT_GE(frames, 3u) << "budgeted auto solve streamed too few frames";

  // The solve reply itself still arrives on the solving connection, and —
  // being budget-cut — carries the flight recorder's tail.
  const Reply reply(solver.read_line());
  ASSERT_FALSE(reply.is_error());
  if (reply.document.find("status")->as_string() != "optimal")
    EXPECT_NE(reply.document.find("events"), nullptr);
  server.stop();
}

TEST(Watch, SubscriberDisconnectMidSolveDoesNotStallTheSolver) {
  Server server(test_options());
  server.start();
  Client solver("127.0.0.1", server.port());
  solver.send_line("{\"id\":0,\"pattern\":\"" + open_pattern() +
                   "\",\"strategy\":\"auto\",\"trials\":1,\"budget\":1.0}");
  {
    Client watcher("127.0.0.1", server.port());
    const std::string first = subscribe_watch(watcher);
    ASSERT_FALSE(first.empty());
    // Hang up mid-stream: the destructor closes the socket while the
    // solve is still publishing.
  }
  const Reply reply(solver.read_line());
  ASSERT_FALSE(reply.is_error());
  EXPECT_GE(reply.document.find("depth")->as_number(), 1.0);
  server.stop();
}

TEST(Events, BudgetCutReplyCarriesFlightRecorderSnapshot) {
  Server server(test_options());
  server.start();
  Client client("127.0.0.1", server.port());
  const Reply reply(client.round_trip(
      "{\"pattern\":\"" + open_pattern() +
      "\",\"strategy\":\"auto\",\"trials\":1,\"budget\":0.3}"));
  ASSERT_FALSE(reply.is_error());
  ASSERT_NE(reply.document.find("status")->as_string(), "optimal");
  const io::json::Value* events = reply.document.find("events");
  ASSERT_NE(events, nullptr) << "budget-cut reply lost its events";
  ASSERT_TRUE(events->is_array());
  ASSERT_GE(events->size(), 1u);
  // Records carry the documented shape: tick + named event.
  const io::json::Value& record = events->at(0);
  EXPECT_NE(record.find("tick"), nullptr);
  EXPECT_NE(record.find("event"), nullptr);
  server.stop();
}

TEST(Events, WarmHeuristicHitCarriesNoEvents) {
  Server server(test_options());
  server.start();
  Client client("127.0.0.1", server.port());
  // Fill the flight recorder first, so a wrongly spliced tail would show.
  const Reply cut(client.round_trip(
      "{\"pattern\":\"" + open_pattern() +
      "\",\"strategy\":\"auto\",\"trials\":1,\"budget\":0.2}"));
  ASSERT_FALSE(cut.is_error());
  const std::string line = "{\"pattern\":\"" + hard_pattern(24, 32) +
                           "\",\"strategy\":\"heuristic\",\"trials\":5}";
  const Reply cold(client.round_trip(line));
  ASSERT_FALSE(cold.is_error());
  ASSERT_EQ(cold.document.find("status")->as_string(), "heuristic");
  EXPECT_EQ(cold.document.find("events"), nullptr)
      << "a heuristic answer cuts no solve";
  const Reply warm(client.round_trip(line));
  ASSERT_FALSE(warm.is_error());
  EXPECT_EQ(warm.telemetry("cache_hit"), "true");
  EXPECT_EQ(warm.document.find("status")->as_string(), "heuristic");
  EXPECT_EQ(warm.document.find("events"), nullptr)
      << "a cache hit carried unrelated flight-recorder events";
  server.stop();
}

TEST(Events, VerbSnapshotsTheRecorderOnDemand) {
  Server server(test_options());
  server.start();
  Client client("127.0.0.1", server.port());
  // A solve first, so the rings hold something attributable.
  const Reply solve(client.round_trip(
      "{\"pattern\":\"" + open_pattern() +
      "\",\"strategy\":\"auto\",\"trials\":1,\"budget\":0.2}"));
  ASSERT_FALSE(solve.is_error());
  const std::string raw = client.round_trip(R"({"op":"events","id":3})");
  EXPECT_EQ(raw.rfind("{\"id\":3,", 0), 0u);
  const Reply reply(raw);
  ASSERT_FALSE(reply.is_error());
  const io::json::Value* events = reply.document.find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  EXPECT_GE(events->size(), 1u);
  server.stop();
}

TEST(Metrics, MalformedScopeIsRejectedFleetNeedsARouter) {
  Server server(test_options());
  server.start();
  Client client("127.0.0.1", server.port());
  const Reply bogus(
      client.round_trip(R"({"op":"metrics","scope":"bogus"})"));
  ASSERT_TRUE(bogus.is_error());
  EXPECT_NE(bogus.document.find("error")->as_string().find(
                "must be self|local"),
            std::string::npos);
  // A backend has no fleet: the error names the router capability.
  const Reply fleet(
      client.round_trip(R"({"op":"metrics","scope":"fleet"})"));
  ASSERT_TRUE(fleet.is_error());
  EXPECT_NE(fleet.document.find("error")->as_string().find("needs a router"),
            std::string::npos);
  // Explicit self/local scopes answer exactly like the default.
  for (const char* scope : {"self", "local"}) {
    const Reply ok(client.round_trip(
        std::string(R"({"op":"metrics","scope":")") + scope + "\"}"));
    ASSERT_FALSE(ok.is_error()) << scope;
    EXPECT_NE(ok.document.find("body"), nullptr);
  }
  server.stop();
}

}  // namespace
}  // namespace ebmf::service
