// Tests for ebmf::obs: histogram quantiles against a sorted reference,
// concurrent counter recording through the lock-striped registry, trace
// context wire round-trips (including legacy no-trace requests), span-tree
// assembly across a real serve+route pair, and trace-store ring eviction.

#include "obs/events.h"
#include "obs/federate.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "support/logrotate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "io/json.h"
#include "io/request_io.h"
#include "net/client.h"
#include "router/router.h"
#include "service/service.h"

namespace ebmf::obs {
namespace {

// ---- histogram -------------------------------------------------------------

TEST(Histogram, SmallValuesAreExact) {
  Histogram h;
  for (std::uint64_t v = 0; v < Histogram::kSubCount; ++v) h.record(v);
  // Values below kSubCount each get their own bucket: quantiles are exact.
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.quantile(1.0), Histogram::kSubCount - 1);
  EXPECT_EQ(h.count(), Histogram::kSubCount);
  EXPECT_EQ(h.max(), Histogram::kSubCount - 1);
}

TEST(Histogram, BucketIndexIsMonotoneAndBoundsContain) {
  std::size_t prev = 0;
  for (std::uint64_t v = 0; v < 1u << 14; ++v) {
    const std::size_t index = Histogram::bucket_index(v);
    ASSERT_GE(index, prev) << "bucket index not monotone at " << v;
    ASSERT_GE(Histogram::bucket_upper(index), v)
        << "upper bound below the value at " << v;
    prev = index;
  }
}

TEST(Histogram, QuantilesMatchSortedReferenceWithinBucketError) {
  std::mt19937_64 rng(2024);
  // Mixed magnitudes: the log-linear grid must hold its relative error
  // across octaves, not just in one range.
  std::vector<std::uint64_t> samples;
  Histogram h;
  for (int i = 0; i < 20000; ++i) {
    const int octave = static_cast<int>(rng() % 20);
    const std::uint64_t value = rng() % (1ull << octave);
    samples.push_back(value);
    h.record(value);
  }
  std::vector<std::uint64_t> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  for (const double q : {0.10, 0.50, 0.90, 0.99, 0.999}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    const std::uint64_t reference = sorted[rank == 0 ? 0 : rank - 1];
    const std::uint64_t estimate = h.quantile(q);
    // The estimate is the inclusive upper bound of the reference's bucket:
    // never below the true quantile, and above it by at most one sub-bucket
    // width (relative error <= 2^-kSubBits).
    EXPECT_GE(estimate, reference) << "q=" << q;
    const double ceiling =
        static_cast<double>(reference) *
            (1.0 + 1.0 / static_cast<double>(Histogram::kSubCount)) +
        1.0;
    EXPECT_LE(static_cast<double>(estimate), ceiling) << "q=" << q;
  }
  EXPECT_EQ(h.quantile(1.0), sorted.back());
  EXPECT_EQ(h.count(), samples.size());
}

TEST(Histogram, ConcurrentRecordLosesNothing) {
  Histogram h;
  constexpr int kThreads = 16;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i)
        h.record(static_cast<std::uint64_t>(t * kPerThread + i));
    });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(h.max(), static_cast<std::uint64_t>(kThreads * kPerThread - 1));
}

// ---- registry --------------------------------------------------------------

TEST(Registry, SixteenThreadsOneCounter) {
  Registry registry;
  constexpr int kThreads = 16;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&registry] {
      // Resolve inside the thread: the test covers concurrent resolve of
      // one name as well as concurrent recording.
      Counter* counter = registry.counter("test.concurrent.hits");
      for (int i = 0; i < kPerThread; ++i) counter->add(1);
    });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(registry.counter("test.concurrent.hits")->value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Registry, StablePointersAndKindMismatch) {
  Registry registry;
  Counter* counter = registry.counter("test.series");
  EXPECT_EQ(registry.counter("test.series"), counter);
  // A name resolves to exactly one kind; asking for another returns null.
  EXPECT_EQ(registry.histogram("test.series"), nullptr);
  EXPECT_EQ(registry.gauge("test.series"), nullptr);
}

TEST(Registry, PrometheusExpositionShape) {
  Registry registry;
  registry.counter("tier.component.hits")->add(3);
  registry.histogram("tier.request.micros")->record(100);
  registry.histogram("tier.request.micros")->record(5000);
  const std::string text = prometheus_text(registry);
  EXPECT_NE(text.find("# TYPE ebmf_tier_component_hits_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("ebmf_tier_component_hits_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ebmf_tier_request_micros histogram"),
            std::string::npos);
  EXPECT_NE(text.find("ebmf_tier_request_micros_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("ebmf_tier_request_micros_count 2"),
            std::string::npos);
  // Every line is either a comment or name{...} value — parsable as the
  // text exposition format.
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    if (!line.empty() && line[0] != '#') {
      const std::size_t space = line.rfind(' ');
      ASSERT_NE(space, std::string::npos) << line;
      ASSERT_EQ(line.rfind("ebmf_", 0), 0u) << line;
      char* parse_end = nullptr;
      std::strtod(line.c_str() + space + 1, &parse_end);
      ASSERT_EQ(*parse_end, '\0') << line;
    }
    start = end + 1;
  }
}

// ---- trace ids and wire round-trips ----------------------------------------

TEST(Trace, IdHexRoundTrips) {
  const TraceContext ctx = make_trace_context();
  EXPECT_TRUE(ctx.valid());
  const std::string hex = trace_id_hex(ctx.hi, ctx.lo);
  EXPECT_EQ(hex.size(), 32u);
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  EXPECT_TRUE(parse_trace_id(hex, &hi, &lo));
  EXPECT_EQ(hi, ctx.hi);
  EXPECT_EQ(lo, ctx.lo);
  EXPECT_FALSE(parse_trace_id("zz", &hi, &lo));

  const std::uint64_t span = new_span_id();
  std::uint64_t parsed = 0;
  EXPECT_TRUE(parse_span_id(span_id_hex(span), &parsed));
  EXPECT_EQ(parsed, span);
}

TEST(Trace, WireRequestRoundTripsContext) {
  io::WireRequest wire;
  wire.request =
      engine::SolveRequest::dense(BinaryMatrix::parse("10;01"), "auto");
  wire.has_trace = true;
  wire.trace = make_trace_context();
  wire.trace.parent_span = new_span_id();
  const std::string line = io::wire_request_json(wire);
  const io::WireRequest parsed = io::parse_wire_request(line);
  ASSERT_TRUE(parsed.has_trace);
  EXPECT_EQ(parsed.trace.hi, wire.trace.hi);
  EXPECT_EQ(parsed.trace.lo, wire.trace.lo);
  EXPECT_EQ(parsed.trace.parent_span, wire.trace.parent_span);
}

TEST(Trace, LegacyRequestsParseWithoutTrace) {
  const io::WireRequest parsed =
      io::parse_wire_request(R"({"pattern":"10;01"})");
  EXPECT_FALSE(parsed.has_trace);
  // And a malformed trace member is a protocol error, not a silent drop.
  EXPECT_THROW(io::parse_wire_request(
                   R"({"pattern":"10;01","trace":{"id":"nope"}})"),
               std::runtime_error);
}

// ---- trace store -----------------------------------------------------------

TEST(Trace, SpansFromJsonReadOnlyExactCountTimes) {
  // Span times from a peer are untrusted: a negative, huge or fractional
  // time reads as 0 instead of being cast to an integer.
  const auto spans = obs::spans_from_json(io::json::Value::parse(
      R"([{"name":"a","span":"1f","start_us":1e300,"dur_us":-1},)"
      R"({"name":"b","span":"2e","start_us":5,"dur_us":2.5},)"
      R"({"name":"c","span":"3d","start_us":7,"dur_us":3}])"));
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].start_us, 0u);
  EXPECT_EQ(spans[0].dur_us, 0u);
  EXPECT_EQ(spans[1].start_us, 5u);
  EXPECT_EQ(spans[1].dur_us, 0u);
  EXPECT_EQ(spans[2].start_us, 7u);
  EXPECT_EQ(spans[2].dur_us, 3u);
}

TEST(TraceStore, RingEvictsOldestAndBoundsSize) {
  TraceStore store(4);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    Span span;
    span.name = "root";
    span.span_id = i;
    span.start_us = i;
    span.dur_us = 5;
    store.add(0, i, {span});
  }
  EXPECT_EQ(store.size(), 4u);
  EXPECT_TRUE(store.find(0, 1).empty());   // evicted
  EXPECT_TRUE(store.find(0, 6).empty());   // evicted
  EXPECT_EQ(store.find(0, 7).size(), 1u);  // retained
  EXPECT_EQ(store.find(0, 10).size(), 1u);
  // Merging into a live trace does not grow the ring.
  Span extra;
  extra.name = "child";
  extra.span_id = 99;
  store.add(0, 10, {extra});
  EXPECT_EQ(store.size(), 4u);
  EXPECT_EQ(store.find(0, 10).size(), 2u);
  EXPECT_EQ(store.recent(2).size(), 2u);
  EXPECT_EQ(store.recent(2).front().spans, 2u);
}

// ---- cross-process span tree over a real serve + route pair ----------------

std::map<std::string, Span> spans_by_name(const io::json::Value& trace) {
  const io::json::Value* array = trace.find("spans");
  std::map<std::string, Span> out;
  if (array == nullptr || !array->is_array()) return out;
  for (std::size_t i = 0; i < array->size(); ++i) {
    const io::json::Value& item = array->at(i);
    Span span;
    span.name = item.find("name")->as_string();
    if (const io::json::Value* id = item.find("span");
        id != nullptr && id->is_string())
      parse_span_id(id->as_string(), &span.span_id);
    if (const io::json::Value* parent = item.find("parent");
        parent != nullptr && parent->is_string())
      parse_span_id(parent->as_string(), &span.parent_id);
    span.dur_us =
        static_cast<std::uint64_t>(item.find("dur_us")->as_number());
    out[span.name] = span;
  }
  return out;
}

TEST(Trace, SpanTreeAcrossServeAndRoute) {
  service::ServerOptions backend_options;
  backend_options.port = 0;
  backend_options.cache_mb = 8;
  service::Server backend(backend_options);
  backend.start();

  router::RouterOptions router_options;
  router_options.port = 0;
  router_options.l1_mb = 8;
  router_options.backends.push_back("127.0.0.1:" +
                                    std::to_string(backend.port()));
  router::Router router(router_options);
  router.start();

  net::Client client("127.0.0.1", router.port());
  const TraceContext ctx = make_trace_context();
  io::WireRequest wire;
  wire.request =
      engine::SolveRequest::dense(BinaryMatrix::parse("110;011;111"), "auto");
  wire.has_trace = true;
  wire.trace = ctx;
  const std::string reply =
      client.round_trip(io::wire_request_json(wire));
  const io::json::Value document = io::json::Value::parse(reply);
  ASSERT_EQ(document.find("error"), nullptr) << reply;

  const io::json::Value* trace = document.find("trace");
  ASSERT_NE(trace, nullptr) << reply;
  EXPECT_EQ(trace->find("id")->as_string(), trace_id_hex(ctx.hi, ctx.lo));
  const std::map<std::string, Span> spans = spans_by_name(*trace);

  // The acceptance bar: a traced router->backend request explains itself
  // with at least five named spans across both processes. The pool
  // negotiated the binary wire, so the forward carried the canonical form
  // and key: the backend's own canon and lift passes vanish from the tree
  // (that is the fast path working, witnessed below), and the engine's
  // cache lookup shows up in their place.
  ASSERT_GE(spans.size(), 5u);
  for (const char* name :
       {"router.request", "router.canon", "router.dispatch", "server.request",
        "server.queue", "engine.cache_lookup", "engine.solve"})
    EXPECT_TRUE(spans.count(name) != 0) << "missing span " << name;
  EXPECT_EQ(spans.count("engine.canon"), 0u)
      << "binary fast path must skip the backend canon pass";
  EXPECT_EQ(spans.count("engine.lift"), 0u)
      << "binary fast path must skip the backend lift pass";

  // Parent links: the root has no parent; every other span's parent is in
  // the set (the tree is connected across the process boundary).
  const Span& root = spans.at("router.request");
  EXPECT_EQ(root.parent_id, 0u);
  std::map<std::uint64_t, const Span*> by_id;
  for (const auto& [name, span] : spans) by_id[span.span_id] = &span;
  for (const auto& [name, span] : spans) {
    if (span.span_id == root.span_id) continue;
    EXPECT_TRUE(by_id.count(span.parent_id) != 0)
        << name << " parents to an unknown span";
  }
  EXPECT_EQ(spans.at("server.request").parent_id,
            spans.at("router.dispatch").span_id);
  EXPECT_EQ(spans.at("engine.solve").parent_id,
            spans.at("server.request").span_id);

  // Durations nest: the root covers the dispatch, the dispatch covers the
  // backend's own request span (clock bases differ per process; durations
  // are the comparable quantity).
  EXPECT_GE(root.dur_us, spans.at("router.dispatch").dur_us);
  EXPECT_GE(spans.at("router.dispatch").dur_us,
            spans.at("server.request").dur_us);
  EXPECT_GE(spans.at("server.request").dur_us,
            spans.at("engine.solve").dur_us);

  // The completed trace is queryable from the router ring, and the reply's
  // assembled tree nests the backend spans under the dispatch span.
  const std::string tree_reply = client.round_trip(
      "{\"op\":\"trace\",\"id\":\"" + trace_id_hex(ctx.hi, ctx.lo) + "\"}");
  const io::json::Value tree_doc = io::json::Value::parse(tree_reply);
  ASSERT_EQ(tree_doc.find("error"), nullptr) << tree_reply;
  const io::json::Value* tree = tree_doc.find("tree");
  ASSERT_NE(tree, nullptr);
  ASSERT_TRUE(tree->is_array());
  ASSERT_GE(tree->size(), 1u);

  // {"op":"traces"} lists it.
  const std::string list_reply = client.round_trip(R"({"op":"traces"})");
  const io::json::Value list_doc = io::json::Value::parse(list_reply);
  const io::json::Value* traces = list_doc.find("traces");
  ASSERT_NE(traces, nullptr);
  ASSERT_TRUE(traces->is_array());
  bool found = false;
  for (std::size_t i = 0; i < traces->size(); ++i)
    if (traces->at(i).find("id")->as_string() == trace_id_hex(ctx.hi, ctx.lo))
      found = true;
  EXPECT_TRUE(found);

  // A legacy request on the same fleet stays trace-free.
  const std::string legacy =
      client.round_trip(R"({"pattern":"110;011;111"})");
  EXPECT_EQ(io::json::Value::parse(legacy).find("trace"), nullptr);

  // The metrics verb answers with a Prometheus body that saw the request.
  const std::string metrics_reply =
      client.round_trip(R"({"op":"metrics"})");
  const io::json::Value metrics_doc = io::json::Value::parse(metrics_reply);
  const io::json::Value* body = metrics_doc.find("body");
  ASSERT_NE(body, nullptr);
  EXPECT_NE(body->as_string().find("ebmf_router_requests"),
            std::string::npos);

  router.stop();
  backend.stop();
}

// The same fleet with --no-binary: the forward travels as a JSON line and
// the backend runs its full pipeline, so the legacy span tree (canon and
// lift included) still assembles across the processes.
TEST(Trace, SpanTreeLegacyJsonBackendWire) {
  service::ServerOptions backend_options;
  backend_options.port = 0;
  backend_options.cache_mb = 8;
  service::Server backend(backend_options);
  backend.start();

  router::RouterOptions router_options;
  router_options.port = 0;
  router_options.l1_mb = 8;
  router_options.binary_backend = false;
  router_options.backends.push_back("127.0.0.1:" +
                                    std::to_string(backend.port()));
  router::Router router(router_options);
  router.start();

  net::Client client("127.0.0.1", router.port());
  const TraceContext ctx = make_trace_context();
  io::WireRequest wire;
  wire.request =
      engine::SolveRequest::dense(BinaryMatrix::parse("110;011;111"), "auto");
  wire.has_trace = true;
  wire.trace = ctx;
  const std::string reply = client.round_trip(io::wire_request_json(wire));
  const io::json::Value document = io::json::Value::parse(reply);
  ASSERT_EQ(document.find("error"), nullptr) << reply;

  const io::json::Value* trace = document.find("trace");
  ASSERT_NE(trace, nullptr) << reply;
  const std::map<std::string, Span> spans = spans_by_name(*trace);
  for (const char* name :
       {"router.request", "router.canon", "router.dispatch", "server.request",
        "server.queue", "engine.canon", "engine.solve", "engine.lift"})
    EXPECT_TRUE(spans.count(name) != 0) << "missing span " << name;
  EXPECT_EQ(spans.at("server.request").parent_id,
            spans.at("router.dispatch").span_id);
  EXPECT_EQ(spans.at("engine.solve").parent_id,
            spans.at("server.request").span_id);

  router.stop();
  backend.stop();
}

// ---- flight recorder -------------------------------------------------------

TEST(Events, RingWraparoundKeepsNewest) {
  auto ring = std::make_unique<EventRing>();
  const std::uint64_t total = 2 * EventRing::kRingCapacity;
  for (std::uint64_t i = 0; i < total; ++i)
    ring->emit(EventCode::SatRestart, /*a=*/i, /*b=*/i * 2);
  EXPECT_EQ(ring->written(), total);
  std::vector<EventRecord> records;
  ring->snapshot(&records);
  ASSERT_EQ(records.size(), EventRing::kRingCapacity);
  // The survivors are exactly the newest kRingCapacity emissions, oldest
  // first — wrap evicts from the front, never the back.
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].a, EventRing::kRingCapacity + i);
    EXPECT_EQ(records[i].b, 2 * (EventRing::kRingCapacity + i));
    EXPECT_EQ(records[i].code,
              static_cast<std::uint32_t>(EventCode::SatRestart));
  }
}

TEST(Events, SnapshotMergesThreadRingsAndRendersJson) {
  emit_event(EventCode::SatReduceDb, 7, 1);
  emit_event(EventCode::CacheEvict, 4096, 12);
  const std::vector<EventRecord> records = snapshot_events(256);
  ASSERT_GE(records.size(), 2u);
  // Tick-ordered oldest first.
  for (std::size_t i = 1; i < records.size(); ++i)
    EXPECT_GE(records[i].tick, records[i - 1].tick);
  const std::string json = events_json(records);
  EXPECT_NE(json.find("\"event\":\"sat.reduce_db\""), std::string::npos);
  EXPECT_NE(json.find("\"event\":\"cache.evict\""), std::string::npos);
  // The cap keeps the newest records: the single survivor is at least as
  // new as everything in the full snapshot.
  const std::vector<EventRecord> capped = snapshot_events(1);
  ASSERT_EQ(capped.size(), 1u);
  EXPECT_GE(capped[0].tick, records.back().tick);
}

// ---- progress sink ---------------------------------------------------------

TEST(Progress, PublishStampsSeqRetainsAndWakesWaiters) {
  ProgressSink sink;
  for (int i = 0; i < 5; ++i) {
    ProgressFrame frame;
    frame.incumbent_depth = static_cast<std::uint64_t>(10 - i);
    frame.lower_bound = 5;
    frame.gap = frame.incumbent_depth - frame.lower_bound;
    frame.phase = "search";
    sink.publish(frame);
  }
  EXPECT_EQ(sink.published(), 5u);
  const std::vector<ProgressFrame> frames = sink.frames();
  ASSERT_EQ(frames.size(), 5u);
  for (std::size_t i = 1; i < frames.size(); ++i)
    EXPECT_GT(frames[i].seq, frames[i - 1].seq);
  EXPECT_EQ(sink.last().incumbent_depth, 6u);

  // A waiter that has seen every frame sleeps until the next publish; one
  // that has not returns at once. Neither reports a finished solve.
  std::thread publisher([&sink] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    sink.publish(ProgressFrame{});
  });
  EXPECT_FALSE(sink.wait_published(5, 10.0));
  publisher.join();
  EXPECT_EQ(sink.published(), 6u);
  EXPECT_FALSE(sink.wait_published(0, 10.0));
  EXPECT_FALSE(sink.wait_published(6, 0.0));

  EXPECT_FALSE(sink.finished());
  sink.finish();
  EXPECT_TRUE(sink.finished());
  EXPECT_TRUE(sink.wait_published(6, 10.0));

  // The frame JSON carries every field the watch stream promises.
  ProgressFrame frame;
  frame.seq = 3;
  frame.seconds = 1.25;
  frame.incumbent_depth = 9;
  frame.lower_bound = 7;
  frame.gap = 2;
  frame.conflicts = 41;
  frame.phase = "search";
  const std::string json = progress_frame_json(frame);
  for (const char* piece :
       {"\"progress\":true", "\"seq\":3", "\"incumbent_depth\":9",
        "\"lower_bound\":7", "\"gap\":2", "\"conflicts\":41",
        "\"phase\":\"search\""})
    EXPECT_NE(json.find(piece), std::string::npos) << json;
  EXPECT_EQ(json.find("\"wave\""), std::string::npos) << json;
}

TEST(Progress, RetainsOnlyNewestFramesForLateSubscribers) {
  ProgressSink sink;
  const std::uint64_t total = ProgressSink::kKeep + 40;
  for (std::uint64_t i = 0; i < total; ++i) sink.publish(ProgressFrame{});
  EXPECT_EQ(sink.published(), total);
  const std::vector<ProgressFrame> frames = sink.frames();
  ASSERT_EQ(frames.size(), ProgressSink::kKeep);
  // Seq is stamped 0..total-1; the retained window is the newest kKeep.
  EXPECT_EQ(frames.front().seq, total - ProgressSink::kKeep);
  EXPECT_EQ(frames.back().seq, total - 1);
}

// ---- histogram federation --------------------------------------------------

TEST(Histogram, MergeFromMatchesSortedReferenceAcrossOctaves) {
  // The two sides populate disjoint octave ranges — the merged quantiles
  // must hold the single-instance error bound anyway.
  std::mt19937_64 rng(777);
  Histogram low;
  Histogram high;
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 8000; ++i) {
    const std::uint64_t v = rng() % (1ull << 8);
    low.record(v);
    samples.push_back(v);
  }
  for (int i = 0; i < 8000; ++i) {
    const std::uint64_t v = (1ull << 16) + rng() % (1ull << 20);
    high.record(v);
    samples.push_back(v);
  }
  low.merge_from(high);
  EXPECT_EQ(low.count(), samples.size());
  std::vector<std::uint64_t> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(low.max(), sorted.back());
  for (const double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.99}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    const std::uint64_t reference = sorted[rank == 0 ? 0 : rank - 1];
    const std::uint64_t estimate = low.quantile(q);
    EXPECT_GE(estimate, reference) << "q=" << q;
    const double ceiling =
        static_cast<double>(reference) *
            (1.0 + 1.0 / static_cast<double>(Histogram::kSubCount)) +
        1.0;
    EXPECT_LE(static_cast<double>(estimate), ceiling) << "q=" << q;
  }
}

// Extract `name{instance="inst",...} value` from a federated exposition.
long long federated_value(const std::string& text, const std::string& name,
                          const std::string& instance) {
  const std::string needle = name + "{instance=\"" + instance + "\"} ";
  const std::size_t pos = text.find(needle);
  if (pos == std::string::npos) return -1;
  return std::strtoll(text.c_str() + pos + needle.size(), nullptr, 10);
}

TEST(Federate, CountersSumAndGaugesFollowTheirConvention) {
  Registry a;
  Registry b;
  a.counter("fleet.requests")->add(3);
  b.counter("fleet.requests")->add(5);
  a.gauge("fleet.inflight")->set(2);
  b.gauge("fleet.inflight")->set(4);
  a.gauge("fleet.queue.max")->set(7);
  b.gauge("fleet.queue.max")->set(11);
  const std::string text = federate_prometheus(
      {{"h1:9000", prometheus_text(a)}, {"h2:9000", prometheus_text(b)}});

  EXPECT_EQ(federated_value(text, "ebmf_fleet_requests_total", "fleet"), 8);
  EXPECT_EQ(federated_value(text, "ebmf_fleet_requests_total", "h1:9000"), 3);
  EXPECT_EQ(federated_value(text, "ebmf_fleet_requests_total", "h2:9000"), 5);
  // Plain gauges sum; gauges named *max* take the fleet max.
  EXPECT_EQ(federated_value(text, "ebmf_fleet_inflight", "fleet"), 6);
  EXPECT_EQ(federated_value(text, "ebmf_fleet_queue_max", "fleet"), 11);
  // One # TYPE line per series, with the fleet line first after it.
  EXPECT_NE(text.find("# TYPE ebmf_fleet_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ebmf_fleet_inflight gauge"), std::string::npos);
}

TEST(Federate, HistogramBucketsStayMonotoneAcrossOctaveRanges) {
  // Instance 1 records small values, instance 2 large — their native
  // exposition buckets interleave, and the merged cumulative sequence must
  // still be monotone in le order.
  Registry a;
  Registry b;
  std::mt19937_64 rng(99);
  std::uint64_t total = 0;
  for (int i = 0; i < 500; ++i, ++total)
    a.histogram("fleet.lat.micros")->record(rng() % 64);
  for (int i = 0; i < 700; ++i, ++total)
    b.histogram("fleet.lat.micros")->record((1u << 12) + rng() % (1u << 14));
  const std::string text = federate_prometheus(
      {{"h1:9000", prometheus_text(a)}, {"h2:9000", prometheus_text(b)}});

  // Walk the fleet bucket lines in emission order.
  const std::string prefix = "ebmf_fleet_lat_micros_bucket{instance=\"fleet\"";
  std::uint64_t prev_le = 0;
  std::uint64_t prev_cum = 0;
  std::size_t fleet_buckets = 0;
  std::size_t pos = 0;
  bool saw_inf = false;
  while ((pos = text.find(prefix, pos)) != std::string::npos) {
    const std::size_t le_pos = text.find("le=\"", pos) + 4;
    const std::size_t close = text.find('}', le_pos);
    const std::string le = text.substr(le_pos, text.find('"', le_pos) - le_pos);
    const std::uint64_t cum =
        std::strtoull(text.c_str() + close + 1, nullptr, 10);
    if (le == "+Inf") {
      EXPECT_EQ(cum, total);
      EXPECT_GE(cum, prev_cum);
      saw_inf = true;
    } else {
      const std::uint64_t upper = std::strtoull(le.c_str(), nullptr, 10);
      if (fleet_buckets != 0) {
        EXPECT_GT(upper, prev_le) << "le bounds out of order";
        EXPECT_GE(cum, prev_cum) << "cumulative count decreased";
      }
      prev_le = upper;
      prev_cum = cum;
      ++fleet_buckets;
    }
    pos = close;
  }
  EXPECT_GE(fleet_buckets, 2u);
  EXPECT_TRUE(saw_inf);
  // The fleet count line agrees with the +Inf bucket.
  EXPECT_EQ(federated_value(text, "ebmf_fleet_lat_micros_count", "fleet"),
            static_cast<long long>(total));
  // Empty input merges to an empty exposition.
  EXPECT_TRUE(federate_prometheus({}).empty());
}

TEST(Rotate, RotatesWholeLinesOnceThresholdIsReached) {
  const std::string path = "/tmp/ebmf_rotate_test.log";
  const std::string shadow = path + ".1";
  std::remove(path.c_str());
  std::remove(shadow.c_str());

  RotatingFile sink;
  std::string error;
  // 32-byte threshold: every 40-byte line fills a generation, so each
  // subsequent append rotates first.
  ASSERT_TRUE(sink.open(path, &error, 32)) << error;
  EXPECT_TRUE(sink.is_open());
  const std::string line_a(39, 'a');
  const std::string line_b(39, 'b');
  sink.write_line(line_a);
  sink.write_line(line_b);  // current generation is at 40 >= 32 -> rotate
  sink.flush();

  const auto slurp = [](const std::string& p) {
    std::string out;
    if (FILE* f = std::fopen(p.c_str(), "rb")) {
      char buf[256];
      std::size_t n = 0;
      while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
      std::fclose(f);
    }
    return out;
  };
  EXPECT_EQ(slurp(shadow), line_a + "\n");
  EXPECT_EQ(slurp(path), line_b + "\n");

  // A second rotation replaces the previous shadow generation.
  const std::string line_c(39, 'c');
  sink.write_line(line_c);
  sink.flush();
  EXPECT_EQ(slurp(shadow), line_b + "\n");
  EXPECT_EQ(slurp(path), line_c + "\n");
  sink.close();
  EXPECT_FALSE(sink.is_open());
  std::remove(path.c_str());
  std::remove(shadow.c_str());
}

}  // namespace
}  // namespace ebmf::obs
