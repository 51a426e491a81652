// Tests for the router-HA stack: leader-lease arbitration, fault
// injection in the net path, replicated-state adoption (member table +
// promoted hot keys), follower redirect/forward semantics, client
// address-list failover with request-id dedupe, and leaseholder takeover
// with warm hot keys.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/lease.h"
#include "cluster/membership.h"
#include "cluster/replica.h"
#include "io/request_io.h"
#include "router/router.h"
#include "net/net.h"
#include "service/service.h"
#include "support/fault.h"

namespace ebmf {
namespace {

using namespace std::chrono_literals;

// ---- leader lease ---------------------------------------------------------

using cluster::LeaderLease;
using cluster::LeaseClock;
using cluster::LeaseStatus;

LeaderLease make_lease(const std::string& self,
                       LeaseClock::duration ttl = 1s) {
  LeaderLease::Options options;
  options.self = self;
  options.ttl = ttl;
  return LeaderLease(options);
}

TEST(LeaderLease, FirstAcquireBidsTermOne) {
  LeaderLease lease = make_lease("a:1");
  const auto t0 = LeaseClock::now();
  const LeaseStatus status = lease.try_acquire(t0);
  EXPECT_TRUE(status.held);
  EXPECT_TRUE(status.valid);
  EXPECT_EQ(status.term, 1u);
  EXPECT_EQ(status.holder, "a:1");
  // Within the TTL the same holder renews at the same term.
  const LeaseStatus renewed = lease.try_acquire(t0 + 100ms);
  EXPECT_TRUE(renewed.held);
  EXPECT_EQ(renewed.term, 1u);
}

TEST(LeaderLease, ValidLeaseIsNeverStolenByAnEqualTermClaim) {
  LeaderLease lease = make_lease("b:1");
  const auto t0 = LeaseClock::now();
  lease.observe_claim("a:1", 1, t0);  // grant a:1 the lease
  // An equal-term claim from another bidder loses while the lease is
  // valid — even when that bidder's endpoint is smaller.
  const auto grant = lease.observe_claim("a:0", 1, t0 + 100ms);
  EXPECT_FALSE(grant.granted);
  EXPECT_EQ(grant.status.holder, "a:1");
  // And our own try_acquire is a no-op against a valid foreign lease.
  const LeaseStatus status = lease.try_acquire(t0 + 100ms);
  EXPECT_FALSE(status.held);
  EXPECT_EQ(status.holder, "a:1");
}

TEST(LeaderLease, ExpiredLeaseIsRebidAtTheNextTerm) {
  LeaderLease lease = make_lease("b:1", 100ms);
  const auto t0 = LeaseClock::now();
  lease.observe_claim("a:1", 3, t0);
  // Past the deadline the holder has been silent a full TTL: bid term 4.
  const LeaseStatus status = lease.try_acquire(t0 + 200ms);
  EXPECT_TRUE(status.held);
  EXPECT_EQ(status.term, 4u);
  EXPECT_EQ(status.holder, "b:1");
}

TEST(LeaderLease, FresherTermDeposesTheHolder) {
  LeaderLease lease = make_lease("a:1");
  const auto t0 = LeaseClock::now();
  ASSERT_TRUE(lease.try_acquire(t0).held);
  const auto grant = lease.observe_claim("b:1", 2, t0 + 10ms);
  EXPECT_TRUE(grant.granted);
  EXPECT_EQ(grant.status.holder, "b:1");
  EXPECT_FALSE(grant.status.held);  // we were deposed
  // The deposed leader does not re-bid while b's lease is valid.
  EXPECT_FALSE(lease.try_acquire(t0 + 20ms).held);
}

TEST(LeaderLease, EqualTermTieOnExpiredLeaseBreaksToSmallerEndpoint) {
  LeaderLease lease = make_lease("c:1", 100ms);
  const auto t0 = LeaseClock::now();
  lease.observe_claim("b:1", 2, t0);
  const auto t1 = t0 + 200ms;  // b's lease expired
  // A larger endpoint at the same term loses the tie...
  EXPECT_FALSE(lease.observe_claim("b:2", 2, t1).granted);
  // ...a smaller one wins it.
  const auto grant = lease.observe_claim("a:1", 2, t1);
  EXPECT_TRUE(grant.granted);
  EXPECT_EQ(grant.status.holder, "a:1");
}

TEST(LeaderLease, ObserveReportAdoptsFresherTermsOnly) {
  LeaderLease lease = make_lease("a:1");
  const auto t0 = LeaseClock::now();
  ASSERT_TRUE(lease.try_acquire(t0).held);  // term 1
  lease.observe_report("b:1", 1, t0 + 10ms);  // same term: ignored
  EXPECT_EQ(lease.status(t0 + 10ms).holder, "a:1");
  lease.observe_report("b:1", 5, t0 + 10ms);  // fresher: adopted
  const LeaseStatus status = lease.status(t0 + 10ms);
  EXPECT_EQ(status.holder, "b:1");
  EXPECT_EQ(status.term, 5u);
  EXPECT_FALSE(status.held);
}

TEST(LeaderLease, SymmetricBidRaceResolvesToTheSmallerEndpoint) {
  // Both routers bid term 1 at once; each refuses the other's claim
  // (observe_claim never breaks a valid lease). The larger endpoint must
  // stand down when the refusal reply names a smaller same-term holder.
  LeaderLease larger = make_lease("b:1");
  const auto t0 = LeaseClock::now();
  ASSERT_TRUE(larger.try_acquire(t0).held);   // b:1 grants itself term 1
  larger.observe_report("a:1", 1, t0 + 10ms);  // a:1's refusal reply
  const LeaseStatus stood_down = larger.status(t0 + 10ms);
  EXPECT_FALSE(stood_down.held);
  EXPECT_EQ(stood_down.holder, "a:1");

  // The smaller endpoint ignores the mirror-image report and keeps it.
  LeaderLease smaller = make_lease("a:1");
  ASSERT_TRUE(smaller.try_acquire(t0).held);
  smaller.observe_report("b:1", 1, t0 + 10ms);
  EXPECT_TRUE(smaller.status(t0 + 10ms).held);
}

TEST(LeaderLease, RebootedLeaderReentersAsFollower) {
  // A rebooted ex-leader starts from term 0; the standing lease it learns
  // about via a hello report keeps it from bidding against the holder.
  LeaderLease lease = make_lease("a:1", 100ms);
  const auto t0 = LeaseClock::now();
  lease.observe_report("b:1", 7, t0);
  EXPECT_FALSE(lease.try_acquire(t0 + 10ms).held);
  // Once b:1 goes silent for a TTL, the bid names term 8.
  const LeaseStatus status = lease.try_acquire(t0 + 300ms);
  EXPECT_TRUE(status.held);
  EXPECT_EQ(status.term, 8u);
}

// ---- fault injection ------------------------------------------------------

/// Every fault test disarms the process-wide plan on exit, pass or fail —
/// leaked faults would poison unrelated tests in this binary.
struct FaultGuard {
  ~FaultGuard() { fault::reset(); }
};

TEST(FaultInjection, SpecParsesKnownKeysAndRejectsGarbage) {
  FaultGuard guard;
  ASSERT_TRUE(fault::configure_from_spec(
      "drop_connect=0.25,drop_write=0.5,torn_write=0.125,delay_p=1,"
      "delay_ms=7,seed=42"));
  const fault::Config config = fault::current();
  EXPECT_DOUBLE_EQ(config.drop_connect, 0.25);
  EXPECT_DOUBLE_EQ(config.drop_write, 0.5);
  EXPECT_DOUBLE_EQ(config.torn_write, 0.125);
  EXPECT_DOUBLE_EQ(config.delay_p, 1.0);
  EXPECT_EQ(config.delay_ms, 7u);
  EXPECT_EQ(config.seed, 42u);
  EXPECT_TRUE(config.any());

  EXPECT_FALSE(fault::configure_from_spec("drop_connect=banana"));
  EXPECT_FALSE(fault::configure_from_spec("nonsense"));
  EXPECT_FALSE(fault::configure_from_spec("unknown_knob=1"));
  // An empty spec is the documented "off" spelling.
  EXPECT_TRUE(fault::configure_from_spec(""));
  EXPECT_FALSE(fault::current().any());
}

TEST(FaultInjection, DropConnectMakesTcpConnectFail) {
  FaultGuard guard;
  net::TcpListener listener;
  listener.listen("127.0.0.1", 0);

  fault::Config config;
  config.drop_connect = 1.0;
  fault::configure(config);
  const std::uint64_t before = fault::stats().connect_drops;
  EXPECT_THROW(net::tcp_connect("127.0.0.1", listener.port()),
               std::runtime_error);
  EXPECT_GT(fault::stats().connect_drops, before);

  // Disarmed, the same dial succeeds — the listener was healthy all along.
  fault::reset();
  const int fd = net::tcp_connect("127.0.0.1", listener.port());
  EXPECT_GE(fd, 0);
  ::close(fd);
}

TEST(FaultInjection, DropWriteAndTornWriteBreakTheLine) {
  FaultGuard guard;
  int pair[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);

  fault::Config config;
  config.drop_write = 1.0;
  fault::configure(config);
  const std::uint64_t drops = fault::stats().write_drops;
  EXPECT_FALSE(net::write_line(pair[0], "{\"op\":\"stats\"}"));
  EXPECT_GT(fault::stats().write_drops, drops);
  ::close(pair[0]);
  ::close(pair[1]);

  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  config.drop_write = 0.0;
  config.torn_write = 1.0;
  fault::configure(config);
  const std::uint64_t tears = fault::stats().torn_writes;
  EXPECT_FALSE(net::write_line(pair[0], "{\"op\":\"stats\"}"));
  EXPECT_GT(fault::stats().torn_writes, tears);
  // The peer got a strict prefix: some bytes, never a full line.
  fault::reset();
  char received[64];
  const ssize_t n = ::recv(pair[1], received, sizeof received, MSG_DONTWAIT);
  EXPECT_GE(n, 0);
  EXPECT_LT(static_cast<std::size_t>(n),
            std::string("{\"op\":\"stats\"}\n").size());
  ::close(pair[0]);
  ::close(pair[1]);
}

TEST(FaultInjection, InjectedDelayActuallyStalls) {
  FaultGuard guard;
  fault::Config config;
  config.delay_p = 1.0;
  config.delay_ms = 20;
  fault::configure(config);
  const std::uint64_t before = fault::stats().delays;
  const auto start = std::chrono::steady_clock::now();
  fault::maybe_delay();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, 15ms);
  EXPECT_GT(fault::stats().delays, before);
}

// ---- replicated-state adoption --------------------------------------------

TEST(MembershipAdopt, RejectsStaleAcceptsNewerEpochWholesale) {
  cluster::Membership membership;
  membership.join("a:1");
  membership.join("b:1");
  const std::uint64_t epoch = membership.epoch();

  std::vector<cluster::Member> snapshot;
  cluster::Member member;
  member.endpoint = "c:1";
  snapshot.push_back(member);

  // Older epoch: refused outright.
  EXPECT_FALSE(membership.adopt(snapshot, epoch - 1));
  EXPECT_EQ(membership.size(), 2u);

  // Newer epoch: the table is replaced wholesale.
  EXPECT_TRUE(membership.adopt(snapshot, epoch + 3));
  EXPECT_EQ(membership.size(), 1u);
  EXPECT_EQ(membership.epoch(), epoch + 3);
  EXPECT_EQ(membership.members()[0].endpoint, "c:1");

  // Equal epoch: no change, liveness refresh only.
  EXPECT_FALSE(membership.adopt(snapshot, epoch + 3));
  EXPECT_EQ(membership.size(), 1u);
}

TEST(HotKeyAdopt, SeedsWarmKeysAtThresholdWithoutRepromotion) {
  cluster::HotKeyTracker::Options options;
  options.promote_threshold = 4;
  cluster::HotKeyTracker tracker(options);

  EXPECT_EQ(tracker.adopt_promoted({10, 11}), 2u);
  EXPECT_TRUE(tracker.is_promoted(10));
  EXPECT_TRUE(tracker.is_promoted(11));
  EXPECT_EQ(tracker.promoted_count(), 2u);
  // Idempotent: re-adopting the same snapshot promotes nothing new.
  EXPECT_EQ(tracker.adopt_promoted({10, 11}), 0u);

  // The adopted key is already warm: its next hit is NOT a fresh
  // promotion event (no re-promotion burst at takeover).
  const cluster::HotKeyUpdate update = tracker.record(10);
  EXPECT_TRUE(update.promoted);
  EXPECT_FALSE(update.promoted_now);
  EXPECT_GE(update.hits, options.promote_threshold);
}

// ---- redirect parsing -----------------------------------------------------

TEST(WireRedirect, RecognizesOnlyRedirectLines) {
  std::string endpoint;
  std::uint64_t epoch = 0;
  std::uint64_t term = 0;
  EXPECT_TRUE(io::parse_wire_redirect(
      R"({"id":7,"redirect":"10.0.0.2:7500","epoch":12,"term":3})",
      &endpoint, &epoch, &term));
  EXPECT_EQ(endpoint, "10.0.0.2:7500");
  EXPECT_EQ(epoch, 12u);
  EXPECT_EQ(term, 3u);
  // An epoch or term that is not an exact count reads as 0, never as a
  // cast of an out-of-range double.
  EXPECT_TRUE(io::parse_wire_redirect(
      R"({"redirect":"10.0.0.2:7500","epoch":1e300,"term":-5})", &endpoint,
      &epoch, &term));
  EXPECT_EQ(epoch, 0u);
  EXPECT_EQ(term, 0u);

  // Near-misses: a counter named "redirects", an error line, a report,
  // malformed JSON. None may parse as a redirect (and none may throw).
  EXPECT_FALSE(io::parse_wire_redirect(R"({"redirects":3})", &endpoint,
                                       &epoch, &term));
  EXPECT_FALSE(io::parse_wire_redirect(R"({"error":"no leaseholder"})",
                                       &endpoint, &epoch, &term));
  EXPECT_FALSE(io::parse_wire_redirect(R"({"redirect":17})", &endpoint,
                                       &epoch, &term));
  EXPECT_FALSE(io::parse_wire_redirect("{\"redirect\":\"x\"", &endpoint,
                                       &epoch, &term));
}

// ---- fleet end to end -----------------------------------------------------

service::ServerOptions backend_options() {
  service::ServerOptions options;
  options.port = 0;
  options.cache_mb = 8;
  options.budget_ceiling_seconds = 5.0;
  return options;
}

/// Reserve a loopback port by binding an ephemeral listener and closing
/// it. The tiny reuse race is acceptable in tests; routers need to know
/// each other's addresses before either has started.
std::uint16_t reserve_port() {
  net::TcpListener probe;
  probe.listen("127.0.0.1", 0);
  return probe.port();
}

router::RouterOptions fleet_router_options(std::uint16_t port,
                                           std::uint16_t peer_port) {
  router::RouterOptions options;
  options.port = port;
  options.dynamic = true;
  options.l1_mb = 0.0;
  options.backoff_base_ms = 5;
  options.backoff_max_ms = 50;
  options.health_interval_ms = 10;
  options.reply_timeout_seconds = 10.0;
  options.heartbeat_ms = 50.0;
  options.grace_ms = 60000.0;  // eviction effectively off
  options.promote_after = 0;
  options.peers = {"127.0.0.1:" + std::to_string(peer_port)};
  options.lease_ttl_ms = 250.0;
  options.sync_interval_ms = 50.0;
  return options;
}

/// Poll `predicate` at 10 ms until true or ~5 s elapse.
bool eventually(const std::function<bool()>& predicate) {
  for (int tries = 0; tries < 500; ++tries) {
    if (predicate()) return true;
    std::this_thread::sleep_for(10ms);
  }
  return false;
}

/// A two-router fleet over shared ephemeral ports.
struct RouterPair {
  explicit RouterPair(
      const std::function<void(router::RouterOptions&)>& tweak = {}) {
    const std::uint16_t port_a = reserve_port();
    const std::uint16_t port_b = reserve_port();
    router::RouterOptions options_a = fleet_router_options(port_a, port_b);
    router::RouterOptions options_b = fleet_router_options(port_b, port_a);
    if (tweak) {
      tweak(options_a);
      tweak(options_b);
    }
    a = std::make_unique<router::Router>(options_a);
    b = std::make_unique<router::Router>(options_b);
    a->start();
    b->start();
  }

  ~RouterPair() {
    if (a) a->stop();
    if (b) b->stop();
  }

  /// Wait for a *stable* election: exactly one holder, and both routers
  /// agree on who and which term. Requiring agreement matters — right
  /// after startup one router can transiently believe it leads before
  /// adopting the other's same-term claim, and a test that picks that
  /// router as "the leader" races the stand-down.
  router::Router* elect() {
    router::Router* leader = nullptr;
    if (!eventually([&]() {
          const router::RouterStats sa = a->stats();
          const router::RouterStats sb = b->stats();
          if (sa.leaseholder == sb.leaseholder) return false;
          if (sa.lease_holder != sb.lease_holder || sa.term != sb.term ||
              sa.lease_holder.empty())
            return false;  // the loser has not yet adopted the winner
          leader = sa.leaseholder ? a.get() : b.get();
          return true;
        }))
      return nullptr;
    return leader;
  }

  router::Router* follower_of(router::Router* leader) {
    return leader == a.get() ? b.get() : a.get();
  }

  std::unique_ptr<router::Router> a;
  std::unique_ptr<router::Router> b;
};

std::string router_address(const router::Router& router) {
  return "127.0.0.1:" + std::to_string(router.port());
}

TEST(Fleet, ExactlyOneRouterWinsTheLeaseAndSyncsState) {
  RouterPair fleet;
  router::Router* leader = fleet.elect();
  ASSERT_NE(leader, nullptr) << "no leaseholder elected";
  router::Router* follower = fleet.follower_of(leader);

  // Both agree on the holder's identity and term.
  ASSERT_TRUE(eventually([&]() {
    const router::RouterStats ls = leader->stats();
    const router::RouterStats fs = follower->stats();
    return ls.lease_holder == fs.lease_holder && ls.term == fs.term &&
           !ls.lease_holder.empty();
  }));

  // A join through the leaseholder replicates to the follower's view.
  service::Server backend(backend_options());
  backend.start();
  const std::string backend_endpoint =
      "127.0.0.1:" + std::to_string(backend.port());
  service::Client client("127.0.0.1", leader->port());
  const std::string reply = client.round_trip(
      "{\"op\":\"join\",\"endpoint\":\"" + backend_endpoint + "\"}");
  EXPECT_NE(reply.find("\"joined\":true"), std::string::npos) << reply;

  ASSERT_TRUE(eventually([&]() {
    const router::RouterStats fs = follower->stats();
    return fs.members == 1 && fs.syncs_applied > 0 &&
           fs.epoch == leader->stats().epoch;
  }));
  backend.stop();
}

TEST(Fleet, FollowerForwardsWritesToTheLeaseholder) {
  RouterPair fleet;
  router::Router* leader = fleet.elect();
  ASSERT_NE(leader, nullptr);
  router::Router* follower = fleet.follower_of(leader);

  service::Server backend(backend_options());
  backend.start();
  const std::string backend_endpoint =
      "127.0.0.1:" + std::to_string(backend.port());

  // The write lands on the follower but is answered by the leaseholder.
  service::Client client("127.0.0.1", follower->port());
  const std::string reply = client.round_trip(
      "{\"id\":3,\"op\":\"join\",\"endpoint\":\"" + backend_endpoint +
      "\"}");
  EXPECT_EQ(reply.rfind("{\"id\":3,", 0), 0u) << reply;
  EXPECT_NE(reply.find("\"joined\":true"), std::string::npos) << reply;
  EXPECT_GE(follower->stats().forwards, 1u);
  EXPECT_GE(leader->stats().joins, 1u);
  backend.stop();
}

TEST(Fleet, UnreachableLeaseholderYieldsEpochStampedRedirect) {
  // Long TTL: the dead leaseholder's lease stays valid for the whole
  // test, so the follower must answer with a redirect, not a takeover.
  RouterPair fleet([](router::RouterOptions& options) {
    options.lease_ttl_ms = 60000.0;
    options.sync_interval_ms = 50.0;
  });
  router::Router* leader = fleet.elect();
  ASSERT_NE(leader, nullptr);
  router::Router* follower = fleet.follower_of(leader);
  const std::string leader_address = router_address(*leader);
  leader->stop();

  // Raw wire exchange (service::Client would chase the redirect): the
  // follower names the leaseholder it still believes in, epoch-stamped.
  const int fd = net::tcp_connect("127.0.0.1", follower->port());
  ASSERT_TRUE(net::write_line(
      fd, "{\"id\":9,\"op\":\"join\",\"endpoint\":\"127.0.0.1:1\"}"));
  net::LineBuffer buffer;
  std::string reply;
  char chunk[4096];
  while (!buffer.pop(reply)) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    ASSERT_GT(n, 0);
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);

  std::string endpoint;
  std::uint64_t epoch = 0;
  std::uint64_t term = 0;
  ASSERT_TRUE(io::parse_wire_redirect(reply, &endpoint, &epoch, &term))
      << reply;
  EXPECT_EQ(endpoint, leader_address);
  EXPECT_EQ(epoch, follower->stats().epoch);
  EXPECT_GE(term, 1u);
  EXPECT_GE(follower->stats().redirects, 1u);
}

TEST(Fleet, StaleRedirectConvergesOnTheNewLeaseholder) {
  RouterPair fleet;
  router::Router* leader = fleet.elect();
  ASSERT_NE(leader, nullptr);
  router::Router* follower = fleet.follower_of(leader);
  const std::uint64_t old_term = leader->stats().term;

  service::Server backend(backend_options());
  backend.start();
  const std::string backend_endpoint =
      "127.0.0.1:" + std::to_string(backend.port());

  // Kill the leaseholder, then keep asking the follower to accept a
  // write. Early replies are stale redirects (pointing at the corpse) or
  // election errors; the client chases/retries until the follower wins
  // the next term and applies the write itself.
  leader->stop();
  service::Client client("127.0.0.1", follower->port());
  const std::string join_line =
      "{\"op\":\"join\",\"endpoint\":\"" + backend_endpoint + "\"}";
  ASSERT_TRUE(eventually([&]() {
    const std::string reply = client.round_trip(join_line);
    return reply.find("\"joined\":true") != std::string::npos;
  }));
  const router::RouterStats stats = follower->stats();
  EXPECT_TRUE(stats.leaseholder);
  EXPECT_GT(stats.term, old_term);
  EXPECT_EQ(stats.members, 1u);
  backend.stop();
}

TEST(Fleet, TakeoverKeepsViewAndHotKeysWarmWithoutRepromotion) {
  service::Server backend(backend_options());
  backend.start();
  const std::string backend_endpoint =
      "127.0.0.1:" + std::to_string(backend.port());
  RouterPair fleet([&](router::RouterOptions& options) {
    options.backends = {backend_endpoint};
    options.promote_after = 3;
    options.replicas = 2;
  });
  router::Router* leader = fleet.elect();
  ASSERT_NE(leader, nullptr);
  router::Router* follower = fleet.follower_of(leader);

  // Heat one key past the promotion threshold on the leaseholder.
  {
    service::Client client("127.0.0.1", leader->port());
    for (int i = 0; i < 4; ++i) {
      const std::string reply = client.round_trip(
          R"({"pattern":"110;011;111","label":"hot"})");
      ASSERT_EQ(reply.find("\"error\""), std::string::npos) << reply;
    }
  }
  ASSERT_EQ(leader->stats().promoted, 1u);
  // The promoted set replicates to the follower without a promotion
  // event there (adopted, not re-counted).
  ASSERT_TRUE(eventually([&]() { return follower->stats().promoted == 1; }));
  EXPECT_EQ(follower->stats().promotions, 0u);

  // Kill the leaseholder: the follower takes the next term with the
  // replicated view — same members, hot key still promoted, still no
  // local promotion event — and keeps serving solves.
  leader->stop();
  ASSERT_TRUE(eventually([&]() { return follower->stats().leaseholder; }));
  const router::RouterStats stats = follower->stats();
  EXPECT_EQ(stats.members, 1u);
  EXPECT_EQ(stats.promoted, 1u);
  EXPECT_EQ(stats.promotions, 0u);
  EXPECT_GE(stats.lease_acquires, 1u);

  service::Client client("127.0.0.1", follower->port());
  const std::string reply = client.round_trip(
      R"({"pattern":"110;011;111","label":"after-takeover"})");
  EXPECT_EQ(reply.find("\"error\""), std::string::npos) << reply;
  backend.stop();
}

// ---- client failover ------------------------------------------------------

TEST(ClientHA, ConnectsPastDeadAddressesInTheList) {
  service::Server server(backend_options());
  server.start();
  const std::uint16_t dead = reserve_port();
  service::Client client({"127.0.0.1:" + std::to_string(dead),
                          "127.0.0.1:" + std::to_string(server.port())});
  EXPECT_EQ(client.endpoint(),
            "127.0.0.1:" + std::to_string(server.port()));
  const std::string reply =
      client.round_trip(R"({"pattern":"10;01","label":"ha"})");
  EXPECT_EQ(reply.find("\"error\""), std::string::npos) << reply;
}

TEST(ClientHA, FailsOverToTheNextAddressWhenThePeerDies) {
  auto first = std::make_unique<service::Server>(backend_options());
  service::Server second(backend_options());
  first->start();
  second.start();
  const std::string first_address =
      "127.0.0.1:" + std::to_string(first->port());
  const std::string second_address =
      "127.0.0.1:" + std::to_string(second.port());

  service::Client client({first_address, second_address});
  ASSERT_EQ(client.endpoint(), first_address);
  ASSERT_EQ(client.round_trip(R"({"pattern":"10;01"})").find("\"error\""),
            std::string::npos);

  first->stop();
  first.reset();
  const std::string reply = client.round_trip(R"({"pattern":"10;01"})");
  EXPECT_EQ(reply.find("\"error\""), std::string::npos) << reply;
  EXPECT_EQ(client.endpoint(), second_address);
}

TEST(ClientHA, RetriedRequestIdIsAnsweredExactlyOnce) {
  service::Server server(backend_options());
  server.start();
  service::Client client("127.0.0.1", server.port());

  const std::string line = R"({"id":41,"pattern":"110;011;111"})";
  const std::string first = client.round_trip(line);
  ASSERT_EQ(first.rfind("{\"id\":41,", 0), 0u) << first;
  const std::uint64_t answered = server.stats().requests;

  // The retry is served from the client's answered-id cache: same reply,
  // and the server never sees the request again.
  const std::string second = client.round_trip(line);
  EXPECT_EQ(second, first);
  EXPECT_EQ(server.stats().requests, answered);

  // A different id is a different request and does reach the server.
  const std::string third =
      client.round_trip(R"({"id":42,"pattern":"110;011;111"})");
  EXPECT_EQ(third.rfind("{\"id\":42,", 0), 0u) << third;
  EXPECT_EQ(server.stats().requests, answered + 1);

  // So does a *reused* id on a different payload — not a retry, so the
  // cache must not answer it.
  const std::string reused =
      client.round_trip(R"({"id":41,"pattern":"10;01"})");
  EXPECT_NE(reused, first);
  EXPECT_EQ(server.stats().requests, answered + 2);
}

TEST(ClientHA, RequestIdRetriedAcrossRoutersIsAnsweredOnce) {
  // The drill scenario in miniature: a request answered via router A is
  // retried (same id) against a client whose list spans both routers
  // after A dies — the dedupe cache answers it without re-execution.
  service::Server backend(backend_options());
  backend.start();
  const std::string backend_endpoint =
      "127.0.0.1:" + std::to_string(backend.port());
  RouterPair fleet([&](router::RouterOptions& options) {
    options.backends = {backend_endpoint};
  });
  router::Router* leader = fleet.elect();
  ASSERT_NE(leader, nullptr);
  router::Router* follower = fleet.follower_of(leader);

  service::Client client(
      {router_address(*leader), router_address(*follower)});
  const std::string line = R"({"id":77,"pattern":"110;011;111"})";
  const std::string first = client.round_trip(line);
  ASSERT_EQ(first.rfind("{\"id\":77,", 0), 0u) << first;

  leader->stop();
  const std::string second = client.round_trip(line);
  EXPECT_EQ(second, first);
  // A fresh id after the failover still gets served (by whoever is left).
  const std::string fresh =
      client.round_trip(R"({"id":78,"pattern":"110;011;111"})");
  EXPECT_EQ(fresh.rfind("{\"id\":78,", 0), 0u) << fresh;
  EXPECT_EQ(fresh.find("\"error\""), std::string::npos) << fresh;
  backend.stop();
}

}  // namespace
}  // namespace ebmf
