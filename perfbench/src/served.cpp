// The served workload, warm-routed: in-process router::Router (binary
// backend wire, no L1) in front of one service::Server on loopback, driven
// closed loop through service::Client with the FTQC repeat traffic of
// bench_service's cache families: permuted and byte-identical repeats of
// per-patch patterns. Every class is solved in the warm-up, so requests
// ride the warm path.
//
// The traced run sends requests one at a time, times each round trip, and
// replays the request's inputs through the public functions of the layers
// the tiers call (parse, canonicalize, binary codec, cache lookup, lift,
// validate, render) under the round trip's span. What the replay does not
// account for is the unattributed time: sockets, reactor hand-offs and
// queueing.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "benchgen/generators.h"
#include "ftqc/patterns.h"
#include "harness.h"
#include "io/binary_io.h"
#include "io/request_io.h"
#include "router/router.h"
#include "service/cache.h"
#include "service/canon.h"
#include "service/service.h"
#include "support/rng.h"

namespace perfbench {

namespace {

using ebmf::engine::Engine;
using ebmf::engine::SolveReport;
using ebmf::engine::SolveRequest;

const char* const kStrategy = "heuristic";

// Pinned tier threads: one event loop and one worker per tier. The load is
// one client connection with one request in flight, so one of the five
// threads runs at a time and a latency is the request's own path, not
// queueing behind another request.
constexpr std::size_t kServerIoThreads = 1;
constexpr std::size_t kServerWorkers = 1;
constexpr std::size_t kRouterIoThreads = 1;
constexpr std::size_t kRouterWorkers = 1;

/// One request of the pool.
struct Item {
  std::string line;     ///< Wire request (partition included in the reply).
  BinaryMatrix matrix;  ///< The pattern as sent.
  std::size_t cls = 0;  ///< Index of its reference.
};

struct State {
  std::vector<Item> pool;
  std::vector<Reference> refs;
  /// The replay's own cache, holding what the server's cache holds.
  std::shared_ptr<ebmf::cache::ResultCache> replay_cache;
  std::unique_ptr<ebmf::service::Server> server;
  std::unique_ptr<ebmf::router::Router> router;  // declared last: stops first
};

SolveRequest request_for(BinaryMatrix m) {
  SolveRequest request = SolveRequest::dense(std::move(m), kStrategy);
  request.trials = 20;
  request.seed = 1;
  return request;
}

std::string line_for(const SolveRequest& request) {
  ebmf::io::WireRequest wire;
  wire.request = request;
  wire.include_partition = true;
  return ebmf::io::wire_request_json(wire);
}

/// The answer a cache-attached engine gives: the solve of the canonical
/// pattern, which every permuted repeat shares.
SolveReport canonical_solve(const Engine& engine,
                            const ebmf::canon::Canonical& canonical) {
  return engine.solve(request_for(canonical.pattern));
}

/// bench_service's cache families at its full counts, in its order: the
/// 13 boundary-row offsets of a d=13 patch 4 times, both d=12 checkerboard
/// parities 10 times each, and four patterns each sent once and then as
/// fresh row/column permutations (24, 24, 16 and 12 requests). The run
/// seed orients every generated pattern; repeats of a generated pattern
/// stay byte-identical, which makes 57 of the 148 requests exact repeats.
/// Tiny runs keep two requests per family.
///
/// Each pattern is then taken to the physical level of the paper's
/// two-level FTQC structure, kron(pattern, d=4 checkerboard patch), which
/// keeps every repeat's kind and class and scales the 12x12..48x48
/// patterns to 48x48..192x192, the largest factor that stays inside the
/// 200x200 warm hop the router's canonicalization cost was measured on.
std::vector<BinaryMatrix> family_patterns(const RunConfig& config,
                                          ebmf::Rng& rng) {
  const auto count = [&](std::size_t full) {
    return config.tiny ? std::size_t{2} : full;
  };
  const BinaryMatrix physical = ebmf::ftqc::checkerboard_patch(4, 0);
  const auto lifted = [&](const BinaryMatrix& logical) {
    return BinaryMatrix::kron(permuted(logical, rng), physical);
  };
  ebmf::Rng base_rng(kBaseSeed);
  std::vector<BinaryMatrix> out;
  std::vector<BinaryMatrix> rows;
  for (std::size_t row = 0; row < 13; ++row)
    rows.push_back(lifted(ebmf::ftqc::boundary_row_patch(13, row)));
  for (std::size_t repeat = 0; repeat < count(4); ++repeat)
    out.insert(out.end(), rows.begin(), rows.end());
  const BinaryMatrix checker[2] = {
      lifted(ebmf::ftqc::checkerboard_patch(12, 0)),
      lifted(ebmf::ftqc::checkerboard_patch(12, 1))};
  for (std::size_t repeat = 0; repeat < count(20); ++repeat)
    out.push_back(checker[repeat % 2]);
  const auto permuted_family = [&](const BinaryMatrix& base,
                                   std::size_t requests) {
    for (std::size_t repeat = 0; repeat < requests; ++repeat)
      out.push_back(lifted(base));
  };
  permuted_family(ebmf::ftqc::logical_pattern(48, 48, 0.04, base_rng),
                  count(24));
  permuted_family(ebmf::ftqc::qldpc_block_pattern(12, 18, 0.3, base_rng),
                  count(24));
  permuted_family(
      BinaryMatrix::kron(ebmf::ftqc::logical_pattern(4, 4, 0.5, base_rng),
                         ebmf::ftqc::checkerboard_patch(3, 0)),
      count(16));
  permuted_family(ebmf::benchgen::gap_matrix(20, 20, 6, base_rng).matrix,
                  count(12));
  return out;
}

std::unique_ptr<State> make_warm_routed(const RunConfig& config) {
  auto state = std::make_unique<State>();
  ebmf::Rng rng(config.seed * 64 + 17);
  const Engine engine;
  state->replay_cache = ebmf::cache::ResultCache::with_capacity_mb(64);

  // Each canonical class is solved once: its answer is the reference of
  // every request in the class, and what the tiers' caches will hold.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t> classes;
  for (BinaryMatrix& pattern : family_patterns(config, rng)) {
    const ebmf::canon::Canonical canonical =
        ebmf::canon::canonicalize(pattern);
    const auto [it, fresh] = classes.emplace(
        std::make_pair(canonical.key.hi, canonical.key.lo),
        state->refs.size());
    if (fresh) {
      const SolveReport report = canonical_solve(engine, canonical);
      state->refs.push_back(
          Reference{report.depth(), report.status, report.lower_bound});
      state->replay_cache->insert(canonical.key.mixed_with(kStrategy),
                                  kStrategy, canonical.pattern, report);
    }
    Item item;
    item.cls = it->second;
    item.line = line_for(request_for(pattern));
    item.matrix = std::move(pattern);
    state->pool.push_back(std::move(item));
  }

  ebmf::service::ServerOptions server_options;
  server_options.port = 0;
  server_options.threads = 1;
  server_options.cache_mb = 64.0;
  server_options.io_threads = kServerIoThreads;
  server_options.io_workers = kServerWorkers;
  server_options.budget_ceiling_seconds = 60.0;
  state->server = std::make_unique<ebmf::service::Server>(server_options);
  state->server->start();
  ebmf::router::RouterOptions options;
  options.port = 0;
  options.backends = {"127.0.0.1:" + std::to_string(state->server->port())};
  options.l1_mb = 0;
  options.binary_backend = true;
  options.io_threads = kRouterIoThreads;
  options.io_workers = kRouterWorkers;
  options.promote_after = 0;
  options.replicas = 1;
  state->router = std::make_unique<ebmf::router::Router>(options);
  state->router->start();

  // Warm-up: the pool sent once through the router, which solves every
  // class and leaves it in the server's cache.
  ebmf::service::Client client("127.0.0.1", state->router->port());
  for (const Item& item : state->pool) {
    client.send_line(item.line);
    (void)client.read_line();
  }
  return state;
}

/// Parse and check one reply, counting it when certified optimal.
void check_reply(const Item& item, const std::string& reply,
                 const Reference& ref, Checker& checker,
                 std::size_t* optimal) {
  try {
    const SolveReport report = ebmf::io::parse_wire_response(
        reply, item.matrix.rows(), item.matrix.cols());
    if (checker.check(item.matrix, report.partition, report.status,
                      report.lower_bound, ref) &&
        report.proven_optimal())
      ++*optimal;
  } catch (const std::exception& e) {
    checker.fail(std::string("bad reply: ") + e.what());
  }
}

/// One synchronous round trip; returns its seconds.
double round_trip(ebmf::service::Client& client, const std::string& line,
                  std::string* reply) {
  const auto start = std::chrono::steady_clock::now();
  client.send_line(line);
  *reply = client.read_line();
  return seconds_since(start);
}

/// The traced replay of one warm routed request: the router's parse,
/// canonicalize, binary hop codecs, the backend's cache lookup and
/// validation, then the router's lift, re-validation and reply render.
void replay_warm(const State& state, const Item& item, int root,
                 Ledger& ledger) {
  const ebmf::io::WireRequest wire = ledger.timed(
      "io.parse_request", root,
      [&] { return ebmf::io::parse_wire_request(item.line); });
  const ebmf::canon::Canonical canonical = ledger.timed(
      "canon.canonicalize", root,
      [&] { return ebmf::canon::canonicalize(wire.request.matrix); });
  const auto cached = ledger.timed("cache.lookup", root, [&] {
    return state.replay_cache->lookup(canonical.key.mixed_with(kStrategy),
                                      kStrategy, canonical.pattern);
  });
  if (!cached) return;  // the checker already counts a wrong served answer
  const SolveReport& stored = cached->report;
  ledger.timed("io.binary_codec", root, [&] {
    ebmf::io::WireRequest forward = wire;
    forward.request.matrix = canonical.pattern;
    forward.request.pre_canonical = true;
    forward.request.canon_hi = canonical.key.hi;
    forward.request.canon_lo = canonical.key.lo;
    const ebmf::io::WireRequest at_backend = ebmf::io::parse_binary_request(
        ebmf::io::binary_request_payload(forward));
    return ebmf::io::parse_binary_report(ebmf::io::binary_report_payload(
        stored, true, 1, at_backend.request.matrix.rows(),
        at_backend.request.matrix.cols()));
  });
  ledger.timed("engine.validate", root, [&] {
    return ebmf::validate_partition(canonical.pattern, stored.partition);
  });
  SolveReport lifted = stored;
  lifted.partition = ledger.timed("canon.lift", root, [&] {
    return ebmf::canon::lift(stored.partition, canonical);
  });
  ledger.timed("engine.validate", root, [&] {
    return ebmf::validate_partition(item.matrix, lifted.partition);
  });
  ledger.timed("io.render_reply", root, [&] {
    return ebmf::io::wire_response_json(lifted, true);
  });
}

std::string tiers_record() {
  return "{\"server\":{\"io_threads\":" + std::to_string(kServerIoThreads) +
         ",\"io_workers\":" + std::to_string(kServerWorkers) +
         ",\"solve_threads\":1},\"router\":{\"io_threads\":" +
         std::to_string(kRouterIoThreads) +
         ",\"io_workers\":" + std::to_string(kRouterWorkers) +
         ",\"pool_connections\":1,\"binary_backend\":true,\"l1_mb\":0}"
         ",\"client\":{\"connections\":1,\"window\":1}}";
}

}  // namespace

Result run_warm_routed(const RunConfig& config) {
  double setup_s = 0.0;
  const std::unique_ptr<State> state = setup_median(
      config.setup_reps(), &setup_s, [&] { return make_warm_routed(config); });
  Result result;
  result.record["tiers"] = tiers_record();
  result.record["pool"] = std::to_string(state->pool.size());
  result.record["classes"] = std::to_string(state->refs.size());
  const std::uint16_t port = state->router->port();
  const ebmf::cache::CacheStats before =
      state->server->engine().cache()->counters();

  if (!config.trace) {
    EndToEnd e2e;
    e2e.setup_s = setup_s;
      e2e.per_segment_latency = true;
    // Closed loop, walking the pool until the run length is reached.
    // Segments: each whole second of load, holding the replies it saw.
    e2e.segments.resize(
        static_cast<std::size_t>(std::max(1.0, std::floor(config.seconds))));
    Checker checker(config.corrupt);
    try {
      ebmf::service::Client client("127.0.0.1", port);
      std::string reply;
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t next = 0; seconds_since(start) < config.seconds;
           ++next) {
        const Item& item = state->pool[next % state->pool.size()];
        const double seconds = round_trip(client, item.line, &reply);
        const auto second = static_cast<std::size_t>(seconds_since(start));
        if (second < e2e.segments.size()) {  // not the last partial second
          e2e.segments[second].rps += 1.0;
          e2e.segments[second].latency_s.add(seconds);
        }
        ++e2e.completed;
        check_reply(item, reply, state->refs[item.cls], checker,
                    &e2e.optimal);
      }
    } catch (const std::exception& e) {
      checker.fail(std::string("transport: ") + e.what());
    }
    for (const Reference& ref : state->refs) {
      e2e.depth_sum += static_cast<double>(ref.depth);
      e2e.lower_bound_sum += static_cast<double>(ref.lower_bound);
    }
    result.attempted = checker.attempted();
    result.failed = checker.failed();
    result.first_error = checker.first_error();
    const ebmf::cache::CacheStats after =
        state->server->engine().cache()->counters();
    result.record["cache_hits"] = std::to_string(after.hits - before.hits);
    result.record["cache_misses"] =
        std::to_string(after.misses - before.misses);
    fill_end_to_end(e2e, result);
    return result;
  }

  // Traced: an untraced one-at-a-time baseline, then traced round trips
  // with the replay, each line also sent direct to the server to isolate
  // the router hop.
  Checker checker(config.corrupt);
  std::size_t optimal = 0;
  Ledger ledger;
  Samples baseline_s, traced_s, hop_us;
  ebmf::service::Client client("127.0.0.1", port);
  ebmf::service::Client direct("127.0.0.1", state->server->port());
  const auto start = std::chrono::steady_clock::now();
  std::size_t next = 0;
  std::string reply;
  while (seconds_since(start) < 0.25 * config.seconds) {
    const Item& item = state->pool[next++ % state->pool.size()];
    baseline_s.add(round_trip(client, item.line, &reply));
    check_reply(item, reply, state->refs[item.cls], checker, &optimal);
  }
  const ebmf::cache::CacheStats traced_before =
      state->server->engine().cache()->counters();
  do {
    const Item& item = state->pool[next++ % state->pool.size()];
    // A traced request is its round trip plus its replay and spans; the
    // direct trip that isolates the router hop is kept out of it.
    const auto traced_start = std::chrono::steady_clock::now();
    const double seconds = round_trip(client, item.line, &reply);
    check_reply(item, reply, state->refs[item.cls], checker, &optimal);
    const int root = ledger.record("net.round_trip", seconds, Ledger::kNoParent);
    replay_warm(*state, item, root, ledger);
    traced_s.add(seconds_since(traced_start));
    const double direct_s = round_trip(direct, item.line, &reply);
    check_reply(item, reply, state->refs[item.cls], checker, &optimal);
    hop_us.add((seconds - direct_s) * 1e6);
  } while (seconds_since(start) < config.seconds);
  const ebmf::cache::CacheStats after =
      state->server->engine().cache()->counters();

  std::map<std::string, Metric> counters;
  const double lookups = static_cast<double>(
      (after.hits - traced_before.hits) + (after.misses - traced_before.misses));
  counters["cache.lookups"] = {lookups, "count"};
  counters["cache.hit_ratio"] = {
      lookups > 0 ? static_cast<double>(after.hits - traced_before.hits) /
                        lookups
                  : 0.0,
      "ratio"};
  counters["router.hop_us"] = {hop_us.quantile(0.5), "us"};
  counters["router.hop_calls"] = {static_cast<double>(hop_us.size()), "count"};
  const double baseline_mean =
      baseline_s.size() == 0 ? 0.0
                             : baseline_s.sum() /
                                   static_cast<double>(baseline_s.size());
  const double traced_mean =
      traced_s.size() == 0
          ? 0.0
          : traced_s.sum() / static_cast<double>(traced_s.size());
  const double overhead_pct =
      baseline_mean > 0 ? 100.0 * (traced_mean - baseline_mean) / baseline_mean
                        : 0.0;
  result.attempted = checker.attempted();
  result.failed = checker.failed();
  result.first_error = checker.first_error();
  fill_per_layer(ledger, counters, overhead_pct, result);
  return result;
}

}  // namespace perfbench
