// Tests for ebmf::router: rendezvous-ring stability under membership
// changes, canonical shard affinity (permuted duplicates hitting one
// backend cache through the router), the router L1, pipelined ordering
// under concurrency, stats, and kill-one-backend failover mid-stream.

#include "router/router.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "benchgen/generators.h"
#include "io/json.h"
#include "net/client.h"
#include "router/pool.h"
#include "router/ring.h"
#include "net/net.h"
#include "service/service.h"
#include "support/rng.h"

namespace ebmf::router {
namespace {

service::ServerOptions backend_options() {
  service::ServerOptions options;
  options.port = 0;  // ephemeral
  options.cache_mb = 8;
  options.budget_ceiling_seconds = 5.0;
  return options;
}

/// A 2-backend fixture: two in-process servers plus a router over them.
struct Fleet {
  explicit Fleet(double l1_mb = 0.0, std::size_t backends = 2,
                 bool binary_backend = true) {
    for (std::size_t i = 0; i < backends; ++i) {
      servers.push_back(std::make_unique<service::Server>(backend_options()));
      servers.back()->start();
    }
    RouterOptions options;
    options.port = 0;
    options.l1_mb = l1_mb;
    options.binary_backend = binary_backend;
    options.backoff_base_ms = 5;  // fast recovery in tests
    options.backoff_max_ms = 50;
    options.health_interval_ms = 10;
    options.reply_timeout_seconds = 10.0;
    for (const auto& server : servers)
      options.backends.push_back("127.0.0.1:" +
                                 std::to_string(server->port()));
    router = std::make_unique<Router>(options);
    router->start();
  }

  ~Fleet() {
    if (router) router->stop();
    for (auto& server : servers) server->stop();
  }

  std::vector<std::unique_ptr<service::Server>> servers;
  std::unique_ptr<Router> router;
};

/// Parsed response convenience (same shape as test_service.cpp's Reply).
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

/// A fresh row/column permutation of `m`.
BinaryMatrix permuted_copy(const BinaryMatrix& m, Rng& rng) {
  const auto row_perm = rng.permutation(m.rows());
  const auto col_perm = rng.permutation(m.cols());
  BinaryMatrix out(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      if (m.test(row_perm[i], col_perm[j])) out.set(i, j);
  return out;
}

std::string pattern_text(const BinaryMatrix& m) {
  std::string text;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    if (i != 0) text += ';';
    text += m.row(i).to_string();
  }
  return text;
}

// ---- ring -----------------------------------------------------------------

TEST(RendezvousRing, OwnersSpreadAcrossBackends) {
  RendezvousRing ring;
  ring.add("a:1");
  ring.add("b:1");
  ring.add("c:1");
  std::vector<std::size_t> counts(3, 0);
  for (std::uint64_t key = 0; key < 3000; ++key) ++counts[ring.owner(key)];
  for (const std::size_t count : counts) {
    EXPECT_GT(count, 600u);   // roughly balanced thirds
    EXPECT_LT(count, 1400u);
  }
}

TEST(RendezvousRing, AddingABackendMovesOnlyItsOwnKeys) {
  RendezvousRing before;
  before.add("a:1");
  before.add("b:1");
  before.add("c:1");
  RendezvousRing after = before;
  const std::size_t added = after.add("d:1");

  std::size_t moved = 0;
  for (std::uint64_t key = 0; key < 4000; ++key) {
    const std::size_t old_owner = before.owner(key);
    const std::size_t new_owner = after.owner(key);
    if (new_owner != old_owner) {
      ++moved;
      // Every moved key moved *to the new backend* — no reshuffling among
      // the survivors.
      EXPECT_EQ(new_owner, added);
    }
  }
  // ~1/4 of the keys belong to the new backend.
  EXPECT_GT(moved, 4000u / 8);
  EXPECT_LT(moved, 4000u / 2);
}

TEST(RendezvousRing, RemovingABackendOnlyRehomesItsKeys) {
  RendezvousRing before;
  before.add("a:1");
  before.add("b:1");
  before.add("c:1");
  RendezvousRing after;
  after.add("a:1");
  after.add("b:1");  // "c:1" removed; indices 0/1 align with `before`

  for (std::uint64_t key = 0; key < 4000; ++key) {
    const std::size_t old_owner = before.owner(key);
    if (old_owner == 2) continue;  // c's keys re-home, anywhere is fine
    EXPECT_EQ(after.owner(key), old_owner) << key;
  }
}

TEST(RendezvousRing, SingleAddMovesAtMostAboutOneNthOfKeys) {
  // The HRW contract: adding one backend to N steals only the keys the
  // newcomer now wins — in expectation 1/(N+1) of the space, and *every*
  // moved key moves to the newcomer. Checked across fleet sizes.
  const std::uint64_t keys = 8000;
  for (const std::size_t n : {2u, 3u, 5u, 8u}) {
    RendezvousRing before;
    for (std::size_t i = 0; i < n; ++i)
      before.add("backend-" + std::to_string(i) + ":1");
    RendezvousRing after = before;
    const std::size_t added = after.add("newcomer:1");

    std::uint64_t moved = 0;
    for (std::uint64_t key = 0; key < keys; ++key) {
      const std::size_t old_owner = before.owner(key);
      const std::size_t new_owner = after.owner(key);
      if (new_owner != old_owner) {
        ++moved;
        EXPECT_EQ(new_owner, added) << "n=" << n << " key=" << key;
      }
    }
    // ~1/(n+1) of the keys move; 2x slack absorbs hash variance, and the
    // bound still certifies "<= 1/N", not "anything goes".
    EXPECT_LE(moved, 2 * keys / (n + 1)) << "n=" << n;
    EXPECT_GE(moved, keys / (2 * (n + 1))) << "n=" << n;
  }
}

TEST(RendezvousRing, SingleRemoveRehomesOnlyTheRemovedBackendsKeys) {
  const std::uint64_t keys = 8000;
  for (const std::size_t n : {2u, 3u, 5u, 8u}) {
    RendezvousRing before;
    for (std::size_t i = 0; i < n; ++i)
      before.add("backend-" + std::to_string(i) + ":1");
    // Remove the *last* backend so surviving indices align across rings.
    RendezvousRing after = before;
    ASSERT_TRUE(after.remove("backend-" + std::to_string(n - 1) + ":1"));

    std::uint64_t rehomed = 0;
    for (std::uint64_t key = 0; key < keys; ++key) {
      const std::size_t old_owner = before.owner(key);
      if (old_owner == n - 1) {
        ++rehomed;
        continue;  // the dead backend's keys go wherever ranks them next
      }
      // Every survivor keeps every key it owned: zero collateral movement.
      EXPECT_EQ(after.owner(key), old_owner) << "n=" << n << " key=" << key;
    }
    // The removed backend owned ~1/n of the space — that is the movement
    // ceiling for a single remove.
    EXPECT_LE(rehomed, 2 * keys / n) << "n=" << n;
    EXPECT_GE(rehomed, keys / (2 * n)) << "n=" << n;
  }
}

TEST(RendezvousRing, OrderedIsAPermutationWithOwnerFirst) {
  RendezvousRing ring;
  ring.add("a:1");
  ring.add("b:1");
  ring.add("c:1");
  for (std::uint64_t key = 0; key < 64; ++key) {
    const auto order = ring.ordered(key);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], ring.owner(key));
    const std::set<std::size_t> unique(order.begin(), order.end());
    EXPECT_EQ(unique.size(), 3u);
  }
}

// ---- pool backoff ---------------------------------------------------------

TEST(BackendPool, ReconnectRespectsExponentialBackoff) {
  // Reserve a loopback port, then close it: connects now fail fast
  // (ECONNREFUSED), so backoff timing is the only clock in the test.
  std::uint16_t port = 0;
  {
    net::TcpListener probe;
    probe.listen("127.0.0.1", 0);
    port = probe.port();
  }

  PoolOptions options;
  options.backoff_base_ms = 100;
  options.backoff_max_ms = 2000;
  // The "backend" below is a bare listening socket that never speaks, so
  // the upgrade negotiation (a bounded protocol exchange) would read it as
  // wedged; this test measures backoff clocks, not the wire handshake.
  options.negotiate_binary = false;
  BackendPool pool("127.0.0.1", port, options);
  using Clock = std::chrono::steady_clock;

  // Failure 1: arms a 100 ms window and doubles the next one to 200 ms.
  pool.maintain();
  EXPECT_FALSE(pool.alive());
  // Inside the window, maintain() must not even attempt to connect.
  pool.maintain();
  EXPECT_FALSE(pool.alive());

  // Failure 2 (past the first window): arms the doubled 200 ms window.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  pool.maintain();
  EXPECT_FALSE(pool.alive());
  const auto second_failure = Clock::now();

  // The backend comes up immediately — but the pool owes the window.
  net::TcpListener listener;
  listener.listen("127.0.0.1", port);
  while (!pool.alive() &&
         Clock::now() - second_failure < std::chrono::seconds(5)) {
    pool.maintain();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(pool.alive()) << "pool never reconnected";
  const auto waited = Clock::now() - second_failure;
  // The doubled window was honored. Each window is jittered over
  // [0.5, 1.5)x its nominal length (anti-stampede), so the doubled 200 ms
  // window is at least 100 ms; the bound is loosened below that so
  // scheduler noise cannot flake the test, but an eager pool that skips
  // backoff reconnects within ~5 ms and fails it clearly.
  EXPECT_GE(waited, std::chrono::milliseconds(80));
  pool.shutdown();
}

// ---- routing --------------------------------------------------------------

TEST(Router, RoundTripSolvesThroughABackend) {
  Fleet fleet;
  net::Client client("127.0.0.1", fleet.router->port());
  const Reply reply(client.round_trip(
      R"({"pattern": "110;011;111", "label": "eq2", "id": 42})"));
  ASSERT_FALSE(reply.is_error());
  EXPECT_EQ(reply.depth(), 3.0);
  EXPECT_EQ(reply.label(), "eq2");
  EXPECT_EQ(reply.document.find("id")->as_number(), 42.0);
  EXPECT_EQ(reply.document.find("status")->as_string(), "optimal");
  // The reply names the backend that served it.
  const std::string backend = reply.telemetry("routed.backend");
  EXPECT_NE(backend.find("127.0.0.1:"), std::string::npos);
  EXPECT_EQ(fleet.router->stats().requests, 1u);
}

TEST(Router, PermutedDuplicatesHitTheSameBackendCache) {
  Fleet fleet(/*l1_mb=*/0.0);  // L1 off: observe the *backend* cache
  const BinaryMatrix base = BinaryMatrix::parse("1110;0111;1111");
  Rng rng(7);
  net::Client client("127.0.0.1", fleet.router->port());

  const Reply cold(client.round_trip("{\"pattern\": \"" +
                                     pattern_text(base) + "\"}"));
  ASSERT_FALSE(cold.is_error());
  EXPECT_EQ(cold.telemetry("cache_hit"), "false");
  const std::string backend = cold.telemetry("routed.backend");

  for (int repeat = 0; repeat < 4; ++repeat) {
    const Reply warm(client.round_trip(
        "{\"pattern\": \"" + pattern_text(permuted_copy(base, rng)) + "\"}"));
    ASSERT_FALSE(warm.is_error());
    // Same canonical key -> same backend -> its cache answers.
    EXPECT_EQ(warm.telemetry("routed.backend"), backend) << repeat;
    EXPECT_EQ(warm.telemetry("cache_hit"), "true") << repeat;
    EXPECT_EQ(warm.depth(), cold.depth());
  }
  // Exactly one backend saw the family.
  std::size_t backends_used = 0;
  for (const auto& server : fleet.servers)
    if (server->stats().requests > 0) ++backends_used;
  EXPECT_EQ(backends_used, 1u);
}

TEST(Router, L1AnswersRepeatsWithoutTouchingBackends) {
  Fleet fleet(/*l1_mb=*/8.0);
  const BinaryMatrix base = BinaryMatrix::parse("110;011;111");
  Rng rng(3);
  net::Client client("127.0.0.1", fleet.router->port());

  const Reply cold(client.round_trip("{\"pattern\": \"" +
                                     pattern_text(base) + "\"}"));
  ASSERT_FALSE(cold.is_error());
  const std::uint64_t backend_lines_after_cold =
      fleet.servers[0]->stats().requests + fleet.servers[1]->stats().requests;

  const Reply warm(client.round_trip(
      "{\"pattern\": \"" + pattern_text(permuted_copy(base, rng)) +
      "\", \"include_partition\": true}"));
  ASSERT_FALSE(warm.is_error());
  EXPECT_EQ(warm.telemetry("routed.l1"), "hit");
  EXPECT_EQ(warm.telemetry("routed.backend"), "l1");
  EXPECT_EQ(warm.depth(), cold.depth());
  // The lifted certificate rides along and matches the permuted request.
  const io::json::Value* partition = warm.document.find("partition");
  ASSERT_NE(partition, nullptr);
  EXPECT_EQ(partition->size(), static_cast<std::size_t>(warm.depth()));
  // No extra backend traffic for the warm repeat.
  const std::uint64_t backend_lines_after_warm =
      fleet.servers[0]->stats().requests + fleet.servers[1]->stats().requests;
  EXPECT_EQ(backend_lines_after_warm, backend_lines_after_cold);
  EXPECT_EQ(fleet.router->stats().l1_hits, 1u);
}

TEST(Router, PipelinedRepliesComeBackInOrderUnderConcurrency) {
  Fleet fleet(/*l1_mb=*/0.0);
  const int clients = 8;
  const int per_client = 8;  // 64 requests in flight across the fleet
  std::atomic<int> ok{0};
  std::vector<std::thread> workers;
  workers.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c]() {
      try {
        net::Client client("127.0.0.1", fleet.router->port());
        for (int i = 0; i < per_client; ++i) {
          // Alternate sizes so completion order would differ from request
          // order without per-connection reassembly.
          const std::string pattern =
              (i % 2 == 0) ? "110;011;111" : "10;01";
          client.send_line("{\"pattern\": \"" + pattern +
                           "\", \"label\": \"c" + std::to_string(c) + "-" +
                           std::to_string(i) + "\"}");
        }
        int in_order = 0;
        for (int i = 0; i < per_client; ++i) {
          const Reply reply(client.read_line());
          if (reply.is_error()) continue;
          if (reply.label() !=
              "c" + std::to_string(c) + "-" + std::to_string(i))
            continue;
          if (reply.depth() != ((i % 2 == 0) ? 3.0 : 2.0)) continue;
          ++in_order;
        }
        if (in_order == per_client) ok.fetch_add(1);
      } catch (const std::exception&) {
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(ok.load(), clients);
}

TEST(Router, KilledBackendFailsOverWithoutLosingRequests) {
  Fleet fleet(/*l1_mb=*/0.0);
  net::Client client("127.0.0.1", fleet.router->port());

  // Discover which backend owns the burst pattern's canonical key, so
  // killing exactly that one forces the failover path deterministically.
  const Reply cold(client.round_trip(
      R"({"pattern": "1110;0111;1111", "label": "cold"})"));
  ASSERT_FALSE(cold.is_error());
  const std::string owner = cold.telemetry("routed.backend");
  std::size_t owner_index = fleet.servers.size();
  for (std::size_t i = 0; i < fleet.servers.size(); ++i)
    if (owner == "127.0.0.1:" + std::to_string(fleet.servers[i]->port()))
      owner_index = i;
  ASSERT_LT(owner_index, fleet.servers.size());

  // Kill mid-stream: pipeline a burst at the dead shard's key.
  const int burst = 24;
  for (int i = 0; i < burst; ++i)
    client.send_line("{\"pattern\": \"1110;0111;1111\", \"label\": \"b" +
                     std::to_string(i) + "\"}");
  fleet.servers[owner_index]->stop();

  int answered = 0;
  for (int i = 0; i < burst; ++i) {
    const Reply reply(client.read_line());
    ASSERT_FALSE(reply.is_error()) << i << ": lost a request";
    EXPECT_EQ(reply.label(), "b" + std::to_string(i));
    EXPECT_EQ(reply.depth(), 3.0);
    ++answered;
  }
  // The no-loss property: the dying backend's drain answered some, the
  // failover resubmits covered the rest — 24/24 either way.
  EXPECT_EQ(answered, burst);

  // Wait until the router has noticed the death (health cadence 10 ms),
  // then the owner's keys *must* fail over, with telemetry, every time.
  for (int tries = 0; tries < 200; ++tries) {
    const RouterStats now = fleet.router->stats();
    std::size_t alive = 0;
    for (const BackendHealth& backend : now.backends)
      if (backend.alive) ++alive;
    if (alive == 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (int i = 0; i < 4; ++i) {
    const Reply reply(client.round_trip(
        "{\"pattern\": \"1110;0111;1111\", \"label\": \"after" +
        std::to_string(i) + "\"}"));
    ASSERT_FALSE(reply.is_error()) << i;
    EXPECT_EQ(reply.depth(), 3.0);
    EXPECT_FALSE(reply.telemetry("routed.failover").empty()) << i;
    EXPECT_NE(reply.telemetry("routed.backend"), owner) << i;
  }
  EXPECT_GE(fleet.router->stats().failovers, 4u);

  // Other shards keep working against the survivor too.
  const Reply other(client.round_trip(R"({"pattern": "10;01"})"));
  ASSERT_FALSE(other.is_error());
  EXPECT_EQ(other.depth(), 2.0);
  const RouterStats stats = fleet.router->stats();
  std::size_t alive = 0;
  for (const BackendHealth& backend : stats.backends)
    if (backend.alive) ++alive;
  EXPECT_EQ(alive, 1u);
}

TEST(Router, StatsVerbReportsBackendsAndCounters) {
  Fleet fleet(/*l1_mb=*/4.0);
  net::Client client("127.0.0.1", fleet.router->port());
  const Reply solve(client.round_trip(R"({"pattern": "10;01"})"));
  ASSERT_FALSE(solve.is_error());
  const Reply stats(client.round_trip(R"({"op":"stats","id":9})"));
  ASSERT_FALSE(stats.is_error());
  EXPECT_EQ(stats.document.find("id")->as_number(), 9.0);
  EXPECT_EQ(stats.document.find("role")->as_string(), "router");
  const io::json::Value* router_block = stats.document.find("router");
  ASSERT_NE(router_block, nullptr);
  EXPECT_EQ(router_block->find("requests")->as_number(), 1.0);
  const io::json::Value* backends = stats.document.find("backends");
  ASSERT_NE(backends, nullptr);
  ASSERT_EQ(backends->size(), 2u);
  for (std::size_t i = 0; i < backends->size(); ++i)
    EXPECT_TRUE(backends->at(i).find("alive")->as_bool());
  const io::json::Value* l1 = stats.document.find("l1");
  ASSERT_NE(l1, nullptr);
  EXPECT_TRUE(l1->is_object());
}

TEST(Router, NoBinaryBackendPoolsStayOnLineJson) {
  // `ebmf route --no-binary`: the pools never negotiate frames, so the
  // stats verb reports every backend line-framed, and solves still route.
  Fleet fleet(/*l1_mb=*/0.0, /*backends=*/1, /*binary_backend=*/false);
  net::Client client("127.0.0.1", fleet.router->port());
  const Reply solve(client.round_trip(R"({"pattern": "110;011;111"})"));
  ASSERT_FALSE(solve.is_error());
  EXPECT_EQ(solve.depth(), 3.0);
  const Reply stats(client.round_trip(R"({"op":"stats"})"));
  ASSERT_FALSE(stats.is_error());
  const io::json::Value* backends = stats.document.find("backends");
  ASSERT_NE(backends, nullptr);
  ASSERT_EQ(backends->size(), 1u);
  EXPECT_TRUE(backends->at(0).find("alive")->as_bool());
  EXPECT_FALSE(backends->at(0).find("binary")->as_bool());
}

TEST(Router, MaskedRequestsPassThrough) {
  Fleet fleet;
  net::Client client("127.0.0.1", fleet.router->port());
  const Reply reply(client.round_trip(
      R"({"pattern": "1*;*1", "label": "masked"})"));
  ASSERT_FALSE(reply.is_error());
  EXPECT_EQ(reply.label(), "masked");
  EXPECT_EQ(reply.document.find("strategy")->as_string(), "completion");
}

TEST(Router, MalformedLinesAndUnknownStrategiesBecomeErrors) {
  Fleet fleet;
  net::Client client("127.0.0.1", fleet.router->port());
  const Reply bad(client.round_trip("this is not json"));
  EXPECT_TRUE(bad.is_error());
  const Reply unknown(client.round_trip(
      R"({"pattern": "10;01", "strategy": "nope", "label": "u"})"));
  EXPECT_TRUE(unknown.is_error());
  EXPECT_NE(unknown.document.find("error")->as_string().find("nope"),
            std::string::npos);
  EXPECT_EQ(unknown.label(), "u");
  // The connection survives protocol errors.
  const Reply good(client.round_trip(R"({"pattern": "10;01"})"));
  EXPECT_FALSE(good.is_error());
  EXPECT_GE(fleet.router->stats().errors, 2u);
}

TEST(Router, AllZeroPatternIsAnsweredLocally) {
  Fleet fleet;
  net::Client client("127.0.0.1", fleet.router->port());
  const Reply reply(client.round_trip(R"({"pattern": "000;000"})"));
  ASSERT_FALSE(reply.is_error());
  EXPECT_EQ(reply.depth(), 0.0);
  EXPECT_EQ(reply.document.find("status")->as_string(), "optimal");
  EXPECT_EQ(reply.telemetry("routed.backend"), "local");
}

TEST(Router, StartRejectsEmptyAndMalformedBackends) {
  {
    RouterOptions options;
    options.port = 0;
    Router router(options);
    EXPECT_THROW(router.start(), std::runtime_error);
  }
  {
    RouterOptions options;
    options.port = 0;
    options.backends = {"not-an-endpoint"};
    Router router(options);
    EXPECT_THROW(router.start(), std::runtime_error);
  }
}

// ---- observability: fleet metrics, watch relay, events ---------------------

/// `name{instance="inst"} value` extraction from a federated exposition;
/// -1 when the series/instance pair is absent.
long long federated_value(const std::string& text, const std::string& name,
                          const std::string& instance) {
  const std::string needle = name + "{instance=\"" + instance + "\"} ";
  const std::size_t pos = text.find(needle);
  if (pos == std::string::npos) return -1;
  return std::strtoll(text.c_str() + pos + needle.size(), nullptr, 10);
}

TEST(Router, FleetMetricsScrapeSumsBackendCounters) {
  Fleet fleet(/*l1_mb=*/0.0);
  net::Client client("127.0.0.1", fleet.router->port());
  // Distinct patterns spread across the ring so the counters move.
  for (const char* pattern :
       {"10;01", "110;011;111", "1110;0111;1111", "11;11", "101;010;111"}) {
    const Reply reply(client.round_trip(std::string("{\"pattern\": \"") +
                                        pattern + "\"}"));
    ASSERT_FALSE(reply.is_error()) << pattern;
  }

  const std::string raw =
      client.round_trip(R"({"op":"metrics","scope":"fleet","id":1})");
  const Reply reply(raw);
  ASSERT_FALSE(reply.is_error()) << raw;
  EXPECT_EQ(reply.document.find("scope")->as_string(), "fleet");
  // Router itself + both backends.
  EXPECT_EQ(reply.document.find("instances")->as_number(), 3.0);
  const std::string body = reply.document.find("body")->as_string();

  // The acceptance bar: the fleet request-counter line equals the sum of
  // the per-instance lines, in one exposition. Tier series are per
  // instance, so each backend reports only what it served, and together
  // they served exactly the 5 solves the router forwarded (no L1).
  long long instance_sum = 0;
  for (const auto& server : fleet.servers) {
    const std::string instance =
        "127.0.0.1:" + std::to_string(server->port());
    const long long value =
        federated_value(body, "ebmf_server_requests_total", instance);
    ASSERT_GE(value, 0) << "no per-instance line for " << instance;
    EXPECT_EQ(value, static_cast<long long>(server->stats().requests))
        << instance;
    instance_sum += value;
  }
  EXPECT_EQ(instance_sum, 5);
  EXPECT_EQ(federated_value(body, "ebmf_server_requests_total", "fleet"),
            instance_sum);
  // The router's own series federate too (it is one of the instances).
  EXPECT_EQ(federated_value(body, "ebmf_router_requests_total", "fleet"), 5);
  // Histogram buckets survive the merge with cumulative monotone counts.
  EXPECT_NE(body.find("_bucket{instance=\"fleet\",le=\""), std::string::npos);
}

TEST(Router, MalformedMetricsScopeIsRejected) {
  Fleet fleet;
  net::Client client("127.0.0.1", fleet.router->port());
  const Reply bogus(
      client.round_trip(R"({"op":"metrics","scope":"bogus"})"));
  ASSERT_TRUE(bogus.is_error());
  EXPECT_NE(bogus.document.find("error")->as_string().find(
                "must be self|local|fleet"),
            std::string::npos);
  // Default and self scopes still answer with the router's own registry.
  const Reply self(client.round_trip(R"({"op":"metrics","scope":"self"})"));
  ASSERT_FALSE(self.is_error());
  EXPECT_NE(self.document.find("body"), nullptr);
}

TEST(Router, EventsVerbSnapshotsTheRecorder) {
  Fleet fleet;
  net::Client client("127.0.0.1", fleet.router->port());
  const Reply solve(client.round_trip(R"({"pattern": "110;011;111"})"));
  ASSERT_FALSE(solve.is_error());
  const std::string raw = client.round_trip(R"({"op":"events","id":2})");
  EXPECT_EQ(raw.rfind("{\"id\":2,", 0), 0u);
  const Reply reply(raw);
  ASSERT_FALSE(reply.is_error());
  const io::json::Value* events = reply.document.find("events");
  ASSERT_NE(events, nullptr);
  EXPECT_TRUE(events->is_array());
}

TEST(Router, WatchRelaysBackendProgressFrames) {
  Fleet fleet(/*l1_mb=*/0.0);
  // Gap 20² k=6 (seed 6) on a one-trial packing: SAP's SAT search narrows
  // the bracket, then stays open past the budget, so the budgeted auto
  // solve runs anytime and streams its bracket.
  Rng gen(6);
  const BinaryMatrix hard = benchgen::gap_matrix(20, 20, 6, gen).matrix;
  net::Client solver("127.0.0.1", fleet.router->port());
  solver.send_line("{\"id\":0,\"pattern\":\"" + pattern_text(hard) +
                   "\",\"strategy\":\"auto\",\"trials\":1,\"budget\":1.5}");

  net::Client watcher("127.0.0.1", fleet.router->port());
  std::string line;
  bool streaming = false;
  for (int attempt = 0; attempt < 100 && !streaming; ++attempt) {
    watcher.send_line(R"({"op":"watch","id":0})");
    line = watcher.read_line();
    if (line.find("no in-flight request") != std::string::npos) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    streaming = true;
  }
  ASSERT_TRUE(streaming) << line;

  std::size_t frames = 0;
  bool done = false;
  while (!done) {
    const io::json::Value frame = io::json::Value::parse(line);
    ASSERT_EQ(frame.find("error"), nullptr) << line;
    // The relay rewrote the backend's correlation id to the client's.
    EXPECT_EQ(frame.find("id")->as_number(), 0.0);
    if (frame.find("done") != nullptr) {
      done = true;
      break;
    }
    ASSERT_NE(frame.find("progress"), nullptr) << line;
    ++frames;
    line = watcher.read_line();
  }
  EXPECT_TRUE(done);
  EXPECT_GE(frames, 3u);

  const std::string reply_line = solver.read_line();
  const Reply reply(reply_line);
  ASSERT_FALSE(reply.is_error());
  EXPECT_GE(reply.depth(), 1.0);
  // The backend's budget-cut flight-recorder splice survives the router's
  // lift re-render.
  const io::json::Value document = io::json::Value::parse(reply_line);
  if (const io::json::Value* status = document.find("status");
      status != nullptr && status->as_string() != "optimal") {
    const io::json::Value* events = document.find("events");
    ASSERT_NE(events, nullptr) << reply_line.substr(0, 200);
    EXPECT_TRUE(events->is_array());
    EXPECT_GT(events->size(), 0u);
  }
}

}  // namespace
}  // namespace ebmf::router
