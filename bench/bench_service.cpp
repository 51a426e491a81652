// Service-path benchmark: cold vs warm (cache-hit) solve latency on
// repeated FTQC per-patch patterns — the workload the ebmf::service result
// cache exists for. Every repeat is a fresh row/column permutation of the
// family's base pattern, so a hit must go through canonicalization and the
// partition lift, exactly like a live server request (minus the TCP hop).
//
// With --connect=HOST:PORT the same workload is sent over the wire to a
// running `ebmf serve` or `ebmf route` instead of the in-process engine:
// per-request wall-clock is then the full round trip, so the cold/warm
// split measures what a client of the (routed) fleet actually sees —
// backend cache hits and router L1 hits both count as warm.
//
// With --json, each solved instance emits one line in the common bench
// format ({"family":...,"config":...,"report":<SolveReport>}), cache
// telemetry included, so BENCH_*.json trajectories capture the hit rate and
// the warm/cold split.

// With --connections=N the family sweep is replaced by the connection-scale
// suite: an N-connection mixed-protocol storm (half line, half binary
// frames) that pipelines requests per connection and verifies zero lost and
// zero reordered replies, plus — when run in-process — a router→backend
// JSON-vs-binary A/B on a repeat-heavy family, measuring the throughput the
// negotiated binary fast path buys over the legacy JSON line hop.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "benchgen/generators.h"
#include "common.h"
#include "engine/engine.h"
#include "ftqc/patterns.h"
#include "io/request_io.h"
#include "net/client.h"
#include "obs/metrics.h"
#include "router/router.h"
#include "service/cache.h"
#include "net/net.h"
#include "service/service.h"
#include "support/rng.h"
#include "support/stopwatch.h"

namespace {

using ebmf::BinaryMatrix;
using ebmf::Rng;

/// A fresh row/column permutation of `m` (the per-patch repeat shape:
/// same pattern, different patch position / orientation).
BinaryMatrix permuted_copy(const BinaryMatrix& m, Rng& rng) {
  const auto row_perm = rng.permutation(m.rows());
  const auto col_perm = rng.permutation(m.cols());
  BinaryMatrix out(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      if (m.test(row_perm[i], col_perm[j])) out.set(i, j);
  return out;
}

struct FamilyResult {
  std::string name;
  std::size_t instances = 0;
  std::size_t cold = 0;
  std::size_t warm = 0;
  double cold_seconds = 0.0;  // summed
  double warm_seconds = 0.0;  // summed
  /// Client-observed per-instance latency in micros (cold + warm mixed) —
  /// the quantile estimator the service tier itself uses, so the p50/p99
  /// printed here are comparable to the server's own exposition.
  std::shared_ptr<ebmf::obs::Histogram> latency =
      std::make_shared<ebmf::obs::Histogram>();
};

/// Solve one instance remotely (ebmf serve / ebmf route): wire round trip,
/// report parsed back, total_seconds overwritten with the client-observed
/// wall-clock — the number a fleet client actually experiences.
ebmf::engine::SolveReport wire_solve(ebmf::net::Client& client,
                                     const ebmf::engine::SolveRequest& request,
                                     double budget_seconds) {
  ebmf::io::WireRequest wire;
  wire.request = request;
  wire.budget_seconds = budget_seconds;
  ebmf::Stopwatch round_trip;
  const std::string reply =
      client.round_trip(ebmf::io::wire_request_json(wire));
  const double seconds = round_trip.seconds();
  auto report = ebmf::io::parse_wire_response(reply);  // throws on error
  report.total_seconds = seconds;
  // Who actually answered — under failover the serving endpoint changes
  // mid-run, and the --json lines are where a drill reads that from.
  report.add_telemetry("endpoint", client.endpoint());
  return report;
}

FamilyResult run_family(const ebmf::bench::Options& opt,
                        const ebmf::engine::Engine& engine,
                        ebmf::net::Client* client,
                        const std::string& name,
                        const std::vector<BinaryMatrix>& variants) {
  FamilyResult result;
  result.name = name;
  for (std::size_t k = 0; k < variants.size(); ++k) {
    auto request = ebmf::engine::SolveRequest::dense(variants[k], "auto");
    request.budget = opt.budget();
    request.trials = 40;
    request.label = name + "#" + std::to_string(k);
    const auto report =
        client != nullptr ? wire_solve(*client, request, opt.budget_seconds)
                          : engine.solve(request);
    const std::string* hit = report.find_telemetry("cache_hit");
    const std::string* l1 = report.find_telemetry("routed.l1");
    const bool warm = (hit != nullptr && *hit == "true") ||
                      (l1 != nullptr && *l1 == "hit");
    if (warm) {
      ++result.warm;
      result.warm_seconds += report.total_seconds;
    } else {
      ++result.cold;
      result.cold_seconds += report.total_seconds;
    }
    result.latency->record(
        static_cast<std::uint64_t>(report.total_seconds * 1e6));
    ++result.instances;
    ebmf::bench::emit_json(opt, "service_repeat", request.label, report);
  }
  return result;
}

void print_result(const FamilyResult& r) {
  const double cold_mean =
      r.cold == 0 ? 0.0 : r.cold_seconds / static_cast<double>(r.cold);
  const double warm_mean =
      r.warm == 0 ? 0.0 : r.warm_seconds / static_cast<double>(r.warm);
  const double speedup = warm_mean > 0 ? cold_mean / warm_mean : 0.0;
  std::printf("%-26s %5zu %6zu %7zu | %11.6f %11.6f | %8.1fx | %9.3f %9.3f\n",
              r.name.c_str(), r.instances, r.cold, r.warm, cold_mean * 1e3,
              warm_mean * 1e3, speedup,
              static_cast<double>(r.latency->quantile(0.5)) / 1e3,
              static_cast<double>(r.latency->quantile(0.99)) / 1e3);
}

// ---- the --connections suite -----------------------------------------------

struct StormTally {
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> received{0};
  std::atomic<std::uint64_t> reordered{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> failed_connections{0};
};

/// The id a normalized reply leads with ({"id":N,...), -1 when absent.
std::int64_t reply_id(const std::string& reply) {
  if (reply.rfind("{\"id\":", 0) != 0) return -1;
  return std::atoll(reply.c_str() + 6);
}

/// One storm connection: pipeline `per_conn` id-tagged requests, then read
/// every reply back and verify the ids arrive in send order. Odd-indexed
/// connections negotiate the binary frame protocol so the storm exercises
/// both wires (and the upgrade path) at once.
void storm_connection(const std::string& host, std::uint16_t port,
                      std::size_t index, std::size_t per_conn,
                      StormTally& tally) {
  try {
    std::unique_ptr<ebmf::net::Client> client;
    for (int attempt = 0;; ++attempt) {
      try {
        client = std::make_unique<ebmf::net::Client>(host, port);
        break;
      } catch (const std::exception&) {
        // A full accept backlog under the storm ramp is not a failure;
        // back off briefly and retry.
        if (attempt >= 20) throw;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    if (index % 2 == 1 && !client->upgrade()) return;
    for (std::size_t i = 0; i < per_conn; ++i) {
      const char* pattern = (i % 2 == 0) ? "110;011;111" : "10;01";
      client->send_request(ebmf::io::parse_wire_request(
          "{\"id\":" + std::to_string(i) + ",\"pattern\":\"" + pattern +
          "\",\"label\":\"storm\"}"));
      tally.sent.fetch_add(1, std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < per_conn; ++i) {
      const std::string reply = client->read_line();
      tally.received.fetch_add(1, std::memory_order_relaxed);
      if (reply_id(reply) != static_cast<std::int64_t>(i))
        tally.reordered.fetch_add(1, std::memory_order_relaxed);
      if (reply.find("\"error\"") != std::string::npos)
        tally.errors.fetch_add(1, std::memory_order_relaxed);
    }
  } catch (const std::exception&) {
    tally.failed_connections.fetch_add(1, std::memory_order_relaxed);
  }
}

/// Drive `lines` through one pipelined line-protocol connection (window of
/// 32 in flight) and return the wall-clock seconds for the whole run.
double drive_pipelined(ebmf::net::Client& client,
                       const std::vector<std::string>& lines,
                       std::uint64_t* errors) {
  const std::size_t window = 32;
  std::size_t next_send = 0;
  std::size_t next_read = 0;
  ebmf::Stopwatch clock;
  while (next_read < lines.size()) {
    while (next_send < lines.size() && next_send - next_read < window)
      client.send_line(lines[next_send++]);
    const std::string reply = client.read_line();
    ++next_read;
    if (reply.find("\"error\"") != std::string::npos) ++*errors;
  }
  return clock.seconds();
}

int run_connections_suite(const ebmf::bench::Options& opt,
                          const std::string& connect,
                          std::size_t connections, std::size_t per_conn,
                          std::size_t ab_requests) {
  // Resolve the storm target: an external tier (--connect) or an
  // in-process backend + router pair, storming the router so both tiers
  // run under the load.
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::unique_ptr<ebmf::service::Server> backend;
  std::unique_ptr<ebmf::router::Router> router;
  if (connect.empty()) {
    ebmf::service::ServerOptions so;
    so.port = 0;
    so.cache_mb = 64;
    so.budget_ceiling_seconds = 5.0;
    backend = std::make_unique<ebmf::service::Server>(so);
    backend->start();
    ebmf::router::RouterOptions ro;
    ro.port = 0;
    ro.l1_mb = 0;  // every request crosses the backend hop
    ro.max_inflight = connections * per_conn + 64;
    ro.reply_timeout_seconds = 30.0;
    ro.backends.push_back("127.0.0.1:" + std::to_string(backend->port()));
    router = std::make_unique<ebmf::router::Router>(ro);
    router->start();
    port = router->port();
  } else if (!ebmf::net::parse_endpoint(
                 connect.substr(0, connect.find(',')), host, port)) {
    std::fprintf(stderr, "bad --connect endpoint '%s'\n", connect.c_str());
    return 2;
  }

  std::printf("--- Connection-scale suite: %zu connections x %zu pipelined "
              "requests ---\n",
              connections, per_conn);
  std::printf("(half the connections upgrade to the binary frame protocol; "
              "target %s)\n\n",
              connect.empty() ? "in-process router+backend"
                              : connect.c_str());

  StormTally tally;
  ebmf::Stopwatch storm_clock;
  {
    std::vector<std::thread> threads;
    threads.reserve(connections);
    for (std::size_t c = 0; c < connections; ++c)
      threads.emplace_back(storm_connection, host, port, c, per_conn,
                           std::ref(tally));
    for (auto& t : threads) t.join();
  }
  const double storm_seconds = storm_clock.seconds();
  const std::uint64_t sent = tally.sent.load();
  const std::uint64_t received = tally.received.load();
  const std::uint64_t lost = sent - received;
  const double storm_rps =
      storm_seconds > 0 ? static_cast<double>(received) / storm_seconds : 0;
  std::printf("storm: %llu sent, %llu received, %llu lost, %llu reordered, "
              "%llu errors, %llu failed connections\n",
              static_cast<unsigned long long>(sent),
              static_cast<unsigned long long>(received),
              static_cast<unsigned long long>(lost),
              static_cast<unsigned long long>(tally.reordered.load()),
              static_cast<unsigned long long>(tally.errors.load()),
              static_cast<unsigned long long>(tally.failed_connections.load()));
  std::printf("storm: %.3fs wall, %.0f replies/s\n\n", storm_seconds,
              storm_rps);

  // The JSON-vs-binary A/B needs to flip the router's backend wire, so it
  // only runs against the in-process fleet.
  double json_rps = 0.0;
  double binary_rps = 0.0;
  std::uint64_t ab_errors = 0;
  if (connect.empty() && ab_requests > 0) {
    // A repeat-heavy family: every request is a fresh row/col permutation
    // of one base pattern, so after one cold solve the backend answers
    // from its cache and the hop cost — JSON render/parse + canonicalize
    // + lift versus the binary canonical-key fast path — dominates.
    Rng rng(opt.seed);
    const BinaryMatrix base =
        ebmf::ftqc::logical_pattern(40, 40, 0.06, rng);
    std::vector<std::string> lines;
    lines.reserve(ab_requests);
    for (std::size_t i = 0; i < ab_requests; ++i) {
      ebmf::io::WireRequest wire;
      wire.request = ebmf::engine::SolveRequest::dense(
          i == 0 ? base : permuted_copy(base, rng), "auto");
      wire.request.label = "ab#" + std::to_string(i);
      wire.id = static_cast<std::int64_t>(i);
      lines.push_back(ebmf::io::wire_request_json(wire));
    }
    const auto measure = [&](bool binary_backend) {
      ebmf::router::RouterOptions ro;
      ro.port = 0;
      ro.l1_mb = 0;
      ro.max_inflight = 4096;
      ro.reply_timeout_seconds = 30.0;
      ro.binary_backend = binary_backend;
      ro.backends.push_back("127.0.0.1:" +
                            std::to_string(backend->port()));
      ebmf::router::Router ab_router(ro);
      ab_router.start();
      ebmf::net::Client client("127.0.0.1", ab_router.port());
      // One untimed request pays the cold solve (and, on the binary
      // side, the pool's upgrade negotiation) outside the clock.
      (void)client.round_trip(lines[0]);
      const double seconds = drive_pipelined(client, lines, &ab_errors);
      ab_router.stop();
      return seconds > 0 ? static_cast<double>(lines.size()) / seconds : 0;
    };
    json_rps = measure(false);
    binary_rps = measure(true);
    const double speedup = json_rps > 0 ? binary_rps / json_rps : 0.0;
    std::printf("A/B over %zu permuted repeats of logical 40x40 occ=0.06 "
                "(router->backend hop):\n",
                ab_requests);
    std::printf("  JSON line backend wire:    %10.0f req/s\n", json_rps);
    std::printf("  binary frame backend wire: %10.0f req/s\n", binary_rps);
    std::printf("  binary speedup: %.2fx (%llu errors)\n", speedup,
                static_cast<unsigned long long>(ab_errors));
  } else if (!connect.empty()) {
    std::printf("(A/B skipped: --connect targets an external fleet whose "
                "backend wire is fixed)\n");
  }

  if (opt.json) {
    std::printf("{\"summary\":true,\"bench\":\"service_connections\","
                "\"connections\":%zu,\"per_conn\":%zu,\"sent\":%llu,"
                "\"received\":%llu,\"lost\":%llu,\"reordered\":%llu,"
                "\"errors\":%llu,\"failed_connections\":%llu,"
                "\"storm_seconds\":%.3f,\"storm_rps\":%.0f",
                connections, per_conn,
                static_cast<unsigned long long>(sent),
                static_cast<unsigned long long>(received),
                static_cast<unsigned long long>(lost),
                static_cast<unsigned long long>(tally.reordered.load()),
                static_cast<unsigned long long>(tally.errors.load()),
                static_cast<unsigned long long>(
                    tally.failed_connections.load()),
                storm_seconds, storm_rps);
    if (json_rps > 0 || binary_rps > 0)
      std::printf(",\"ab\":{\"requests\":%zu,\"json_rps\":%.0f,"
                  "\"binary_rps\":%.0f,\"binary_speedup\":%.3f,"
                  "\"errors\":%llu}",
                  ab_requests, json_rps, binary_rps,
                  json_rps > 0 ? binary_rps / json_rps : 0.0,
                  static_cast<unsigned long long>(ab_errors));
    std::printf("}\n");
  }

  if (router) router->stop();
  if (backend) backend->stop();
  // Lost or reordered replies are a hard failure regardless of gating.
  return (lost == 0 && tally.reordered.load() == 0 &&
          tally.failed_connections.load() == 0)
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // --connect=HOST:PORT, --hot=N, and the --connections suite flags are
  // bench_service-specific; strip them before the shared option parser
  // (which rejects unknown flags).
  std::string connect;
  std::size_t hot_repeats = 0;
  std::size_t connections = 0;
  std::size_t per_conn = 24;
  std::size_t ab_requests = 1500;
  std::vector<char*> filtered;
  filtered.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--connect=", 10) == 0)
      connect = argv[i] + 10;
    else if (std::strncmp(argv[i], "--hot=", 6) == 0)
      hot_repeats = static_cast<std::size_t>(std::atol(argv[i] + 6));
    else if (std::strncmp(argv[i], "--connections=", 14) == 0)
      connections = static_cast<std::size_t>(std::atol(argv[i] + 14));
    else if (std::strncmp(argv[i], "--per-conn=", 11) == 0)
      per_conn = static_cast<std::size_t>(std::atol(argv[i] + 11));
    else if (std::strncmp(argv[i], "--ab-requests=", 14) == 0)
      ab_requests = static_cast<std::size_t>(std::atol(argv[i] + 14));
    else
      filtered.push_back(argv[i]);
  }
  const auto opt = ebmf::bench::parse_options(
      static_cast<int>(filtered.size()), filtered.data());
  if (connections > 0)
    return run_connections_suite(opt, connect, connections, per_conn,
                                 ab_requests);
  Rng rng(opt.seed);

  ebmf::engine::Engine engine;
  engine.set_cache(ebmf::cache::ResultCache::with_capacity_mb(64));

  std::unique_ptr<ebmf::net::Client> client;
  if (!connect.empty()) {
    // --connect takes a comma-separated address list (routers and/or
    // backends); the Client fails over across it.
    std::vector<std::string> endpoints;
    std::string bad;
    if (!ebmf::net::parse_endpoint_list(connect, endpoints, &bad)) {
      std::fprintf(stderr,
                   "bad --connect endpoint '%s' (want host:port"
                   "[,host:port...])\n",
                   bad.c_str());
      return 2;
    }
    try {
      client = std::make_unique<ebmf::net::Client>(endpoints);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "connect failed: %s\n", e.what());
      return 1;
    }
  }

  std::printf(
      "--- Service result cache: cold vs warm latency on FTQC repeats ---\n");
  if (client != nullptr)
    std::printf("(driving %s over the wire; latencies are full round "
                "trips)\n", connect.c_str());
  std::printf("(every repeat is a fresh row/col permutation of the base "
              "pattern)\n\n");
  std::printf("%-26s %5s %6s %7s | %11s %11s | %9s | %9s %9s\n", "family",
              "insts", "cold", "warm", "cold ms", "warm ms", "speedup",
              "p50 ms", "p99 ms");
  std::printf("%s\n", std::string(110, '-').c_str());

  std::vector<FamilyResult> results;

  {
    // Surface-code boundary rows: all d offsets of a d x d patch are row
    // permutations of one pattern (one cold solve, d-1 hits).
    const std::size_t d = 13;
    std::vector<BinaryMatrix> variants;
    for (std::size_t repeat = 0; repeat < opt.count(4, 2); ++repeat)
      for (std::size_t row = 0; row < d; ++row)
        variants.push_back(ebmf::ftqc::boundary_row_patch(d, row));
    results.push_back(
        run_family(opt, engine, client.get(), "patch-boundary d=13", variants));
  }
  {
    // Checkerboard sublattice, both parities, repeated.
    std::vector<BinaryMatrix> variants;
    for (std::size_t repeat = 0; repeat < opt.count(20, 8); ++repeat) {
      variants.push_back(ebmf::ftqc::checkerboard_patch(12, repeat % 2));
    }
    results.push_back(
        run_family(opt, engine, client.get(), "patch-checker d=12", variants));
  }
  {
    // Logical-level sparse addressing pattern (shatters into components;
    // the exact sparse path makes the cold solve substantial).
    const BinaryMatrix base =
        ebmf::ftqc::logical_pattern(48, 48, 0.04, rng);
    std::vector<BinaryMatrix> variants{base};
    for (std::size_t repeat = 1; repeat < opt.count(24, 10); ++repeat)
      variants.push_back(permuted_copy(base, rng));
    results.push_back(
        run_family(opt, engine, client.get(), "logical 48x48 occ=0.04", variants));
  }
  {
    // qLDPC 1D memory blocks.
    const BinaryMatrix base =
        ebmf::ftqc::qldpc_block_pattern(12, 18, 0.3, rng);
    std::vector<BinaryMatrix> variants{base};
    for (std::size_t repeat = 1; repeat < opt.count(24, 10); ++repeat)
      variants.push_back(permuted_copy(base, rng));
    results.push_back(
        run_family(opt, engine, client.get(), "qldpc 12x18 occ=0.3", variants));
  }
  {
    // Two-level structure: logical pattern tensored with a physical patch.
    const BinaryMatrix base = BinaryMatrix::kron(
        ebmf::ftqc::logical_pattern(4, 4, 0.5, rng),
        ebmf::ftqc::checkerboard_patch(3, 0));
    std::vector<BinaryMatrix> variants{base};
    for (std::size_t repeat = 1; repeat < opt.count(16, 8); ++repeat)
      variants.push_back(permuted_copy(base, rng));
    results.push_back(
        run_family(opt, engine, client.get(), "kron(4x4, checker3)", variants));
  }
  {
    // A deliberately SMT-hard per-patch pattern (gap family, slack rank
    // bound): the cold solve pays real bound-search time — typically the
    // whole budget — and the warm hits replay its result for the cost of
    // canonicalization + lift.
    const auto gap = ebmf::benchgen::gap_matrix(20, 20, 6, rng);
    std::vector<BinaryMatrix> variants{gap.matrix};
    for (std::size_t repeat = 1; repeat < opt.count(12, 6); ++repeat)
      variants.push_back(permuted_copy(gap.matrix, rng));
    results.push_back(run_family(opt, engine, client.get(), "gap 20x20 k=6", variants));
  }
  if (hot_repeats > 0) {
    // --hot=N: the skewed repeat distribution of lattice-surgery traffic —
    // one pattern carries N permuted repeats. Against a dynamic router
    // (--connect) this is the workload that crosses --promote-after and
    // exercises hot-key replication (`cluster.promote` telemetry on the
    // promoting reply, `ebmf client --stats --json` for the counters).
    const BinaryMatrix base = ebmf::ftqc::logical_pattern(16, 16, 0.25, rng);
    std::vector<BinaryMatrix> variants{base};
    for (std::size_t repeat = 1; repeat < hot_repeats; ++repeat)
      variants.push_back(permuted_copy(base, rng));
    results.push_back(run_family(opt, engine, client.get(),
                                 "hot logical 16x16 (skewed)", variants));
  }

  double cold_mean_total = 0.0;
  double warm_mean_total = 0.0;
  std::size_t families_with_warm = 0;
  for (const auto& r : results) {
    print_result(r);
    if (r.warm > 0 && r.cold > 0) {
      cold_mean_total += r.cold_seconds / static_cast<double>(r.cold);
      warm_mean_total += r.warm_seconds / static_cast<double>(r.warm);
      ++families_with_warm;
    }
  }

  if (client == nullptr) {
    const auto stats = engine.cache()->stats();
    std::printf("\ncache: %llu hits, %llu misses, %llu evictions, %zu "
                "entries (%zu bytes)\n",
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses),
                static_cast<unsigned long long>(stats.evictions),
                stats.entries, stats.bytes);
  } else {
    std::printf("\n(remote run: cache counters live on the fleet — ask "
                "with `ebmf client --stats`)\n");
  }
  if (families_with_warm > 0 && warm_mean_total > 0)
    std::printf("aggregate warm speedup over cold (mean of family means): "
                "%.1fx\n",
                cold_mean_total / warm_mean_total);

  if (opt.json) {
    // The machine-readable summary line tools/bench_compare.py gates tail
    // latency on: client-observed p50/p99 micros per family, measured by
    // the same histogram estimator the service tier exposes.
    std::printf("{\"summary\":true,\"bench\":\"service\",\"families\":[");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const FamilyResult& r = results[i];
      std::printf("%s{\"name\":\"%s\",\"count\":%llu,\"p50_us\":%llu,"
                  "\"p90_us\":%llu,\"p99_us\":%llu,\"max_us\":%llu}",
                  i == 0 ? "" : ",", r.name.c_str(),
                  static_cast<unsigned long long>(r.latency->count()),
                  static_cast<unsigned long long>(r.latency->quantile(0.5)),
                  static_cast<unsigned long long>(r.latency->quantile(0.9)),
                  static_cast<unsigned long long>(r.latency->quantile(0.99)),
                  static_cast<unsigned long long>(r.latency->max()));
    }
    std::printf("]}\n");
  }
  return 0;
}
