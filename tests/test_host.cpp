// Tests for the tier host (net/host.h): each tier instance keeps its own
// counter store, so two servers (or a router next to its backends) in one
// process count apart, and every reading of a counter — the stats verb,
// stats(), the Prometheus exposition — agrees.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>

#include "io/json.h"
#include "net/client.h"
#include "router/router.h"
#include "service/service.h"

namespace ebmf {
namespace {

service::ServerOptions server_options() {
  service::ServerOptions options;
  options.port = 0;  // ephemeral
  options.cache_mb = 8;
  options.budget_ceiling_seconds = 5.0;
  return options;
}

/// The value of the unlabelled sample `name` in a `{"op":"metrics"}` reply
/// from `client`; -1 when the exposition has no such line.
long long scraped(net::Client& client, const std::string& name) {
  const io::json::Value reply =
      io::json::Value::parse(client.round_trip(R"({"op":"metrics"})"));
  const std::string body = reply.find("body")->as_string();
  const std::string needle = "\n" + name + " ";
  const std::size_t pos = ("\n" + body).find(needle);
  if (pos == std::string::npos) return -1;
  return std::strtoll(body.c_str() + pos + needle.size() - 1, nullptr, 10);
}

/// Send `count` solves and check each reply is an answer.
void solve(net::Client& client, int count) {
  for (int i = 0; i < count; ++i) {
    const io::json::Value reply = io::json::Value::parse(
        client.round_trip(R"({"pattern": "110;011;111"})"));
    ASSERT_EQ(reply.find("error"), nullptr);
  }
}

TEST(Host, TierCountersArePerInstance) {
  service::Server first(server_options());
  service::Server second(server_options());
  first.start();
  second.start();
  net::Client to_first("127.0.0.1", first.port());
  net::Client to_second("127.0.0.1", second.port());
  solve(to_first, 3);
  solve(to_second, 5);

  EXPECT_EQ(first.stats().requests, 3u);
  EXPECT_EQ(second.stats().requests, 5u);
  EXPECT_EQ(scraped(to_first, "ebmf_server_requests_total"),
            static_cast<long long>(first.stats().requests));
  EXPECT_EQ(scraped(to_second, "ebmf_server_requests_total"),
            static_cast<long long>(second.stats().requests));

  // A router over the first server: its exposition carries its own tier
  // series, equal to what its stats verb reports, and no server series.
  router::RouterOptions options;
  options.port = 0;
  options.l1_mb = 0;
  options.backends = {"127.0.0.1:" + std::to_string(first.port())};
  router::Router router(options);
  router.start();
  net::Client to_router("127.0.0.1", router.port());
  solve(to_router, 4);
  const io::json::Value stats =
      io::json::Value::parse(to_router.round_trip(R"({"op":"stats"})"));
  const double routed = stats.find("router")->find("requests")->as_number();
  EXPECT_EQ(routed, 4.0);
  EXPECT_EQ(scraped(to_router, "ebmf_router_requests_total"),
            static_cast<long long>(routed));
  EXPECT_EQ(scraped(to_router, "ebmf_server_requests_total"), -1);
  EXPECT_EQ(router.stats().requests, 4u);
  // The router's 4 solves reached the first server; the second saw none.
  EXPECT_EQ(first.stats().requests, 7u);
  EXPECT_EQ(second.stats().requests, 5u);

  router.stop();
  first.stop();
  second.stop();
}

}  // namespace
}  // namespace ebmf
