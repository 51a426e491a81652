// Tests for ebmf::cache and the engine's cache hook: hits on permuted
// duplicates, soundness guards, LRU eviction under a tiny budget, and
// concurrent hammering through the batch pool.

#include "service/cache.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "benchgen/generators.h"
#include "engine/thread_pool.h"
#include "ftqc/patterns.h"
#include "support/rng.h"

namespace ebmf::cache {
namespace {

engine::SolveReport toy_report(const BinaryMatrix& pattern) {
  // One rectangle per nonzero row: always a valid canonical-space answer.
  engine::SolveReport report;
  for (std::size_t i = 0; i < pattern.rows(); ++i) {
    if (pattern.row(i).none()) continue;
    BitVec rows(pattern.rows());
    rows.set(i);
    report.partition.push_back(Rectangle{rows, pattern.row(i)});
  }
  report.upper_bound = report.partition.size();
  report.status = engine::Status::Heuristic;
  return report;
}

TEST(Cache, InsertThenLookupHits) {
  ResultCache cache(ResultCache::Options{});
  const auto c = canon::canonicalize(BinaryMatrix::parse("110;011;111"));
  EXPECT_FALSE(cache.lookup(c.key, "auto", c.pattern).has_value());
  cache.insert(c.key, "auto", c.pattern, toy_report(c.pattern));
  const auto hit = cache.lookup(c.key, "auto", c.pattern);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->report.depth(), 3u);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(Cache, StrategyAndPatternGuardAgainstFalseHits) {
  ResultCache cache(ResultCache::Options{});
  const auto c = canon::canonicalize(BinaryMatrix::parse("110;011;111"));
  cache.insert(c.key, "auto", c.pattern, toy_report(c.pattern));
  // Same key, different strategy string: must miss (collision guard).
  EXPECT_FALSE(cache.lookup(c.key, "sap", c.pattern).has_value());
  // Same key, different pattern: must miss.
  const auto other = canon::canonicalize(BinaryMatrix::parse("10;01"));
  EXPECT_FALSE(cache.lookup(c.key, "auto", other.pattern).has_value());
}

TEST(Cache, UpgradeOnlyReplacement) {
  ResultCache cache(ResultCache::Options{});
  const auto c = canon::canonicalize(BinaryMatrix::parse("110;011;111"));
  engine::SolveReport weak = toy_report(c.pattern);
  cache.insert(c.key, "auto", c.pattern, weak);
  engine::SolveReport strong = weak;
  strong.status = engine::Status::Optimal;
  strong.lower_bound = strong.depth();
  cache.insert(c.key, "auto", c.pattern, strong);
  auto hit = cache.lookup(c.key, "auto", c.pattern);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->report.status, engine::Status::Optimal);
  // Re-inserting the weak report must not downgrade the stored optimum.
  cache.insert(c.key, "auto", c.pattern, weak);
  hit = cache.lookup(c.key, "auto", c.pattern);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->report.status, engine::Status::Optimal);
}

TEST(Cache, EvictionUnderTinyBudget) {
  ResultCache::Options options;
  options.capacity_bytes = 4096;  // a couple of entries at most
  options.shards = 1;
  ResultCache cache(options);
  Rng rng(3);
  for (int i = 0; i < 32; ++i) {
    const auto c =
        canon::canonicalize(benchgen::random_matrix(8, 8, 0.4, rng));
    cache.insert(c.key, "auto", c.pattern, toy_report(c.pattern));
  }
  const auto stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LT(stats.entries, 32u);
  EXPECT_LE(stats.bytes, 2 * options.capacity_bytes);
}

TEST(EngineCache, PermutedDuplicateIsAnsweredFromCache) {
  // The acceptance scenario: a row/col-permuted repeat of a solved pattern
  // comes back with cache_hit=true and an identically-valid partition.
  engine::Engine engine;
  engine.set_cache(ResultCache::with_capacity_mb(8));
  const BinaryMatrix first = ftqc::boundary_row_patch(9, 1);
  const BinaryMatrix second = ftqc::boundary_row_patch(9, 6);

  const auto cold = engine.solve(engine::SolveRequest::dense(first, "auto"));
  ASSERT_NE(cold.find_telemetry("cache_hit"), nullptr);
  EXPECT_EQ(*cold.find_telemetry("cache_hit"), "false");
  EXPECT_TRUE(validate_partition(first, cold.partition).ok);

  const auto warm = engine.solve(engine::SolveRequest::dense(second, "auto"));
  ASSERT_NE(warm.find_telemetry("cache_hit"), nullptr);
  EXPECT_EQ(*warm.find_telemetry("cache_hit"), "true");
  EXPECT_TRUE(validate_partition(second, warm.partition).ok);
  EXPECT_EQ(warm.depth(), cold.depth());
  EXPECT_EQ(warm.status, cold.status);
  EXPECT_EQ(warm.lower_bound, cold.lower_bound);
  EXPECT_GE(engine.cache()->stats().hits, 1u);
}

TEST(EngineCache, CachedCertificateStaysOptimal) {
  engine::Engine engine;
  engine.set_cache(ResultCache::with_capacity_mb(8));
  const BinaryMatrix eq2 = BinaryMatrix::parse("110;011;111");
  const auto cold = engine.solve(engine::SolveRequest::dense(eq2, "sap"));
  EXPECT_TRUE(cold.proven_optimal());
  const auto warm = engine.solve(engine::SolveRequest::dense(eq2, "sap"));
  EXPECT_TRUE(warm.proven_optimal());
  EXPECT_EQ(*warm.find_telemetry("cache_hit"), "true");
  EXPECT_EQ(warm.depth(), 3u);
}

TEST(EngineCache, DifferentStrategiesDoNotShareEntries) {
  engine::Engine engine;
  engine.set_cache(ResultCache::with_capacity_mb(8));
  const BinaryMatrix eq2 = BinaryMatrix::parse("110;011;111");
  (void)engine.solve(engine::SolveRequest::dense(eq2, "heuristic"));
  const auto sap = engine.solve(engine::SolveRequest::dense(eq2, "sap"));
  EXPECT_EQ(*sap.find_telemetry("cache_hit"), "false");
  EXPECT_EQ(sap.strategy, "sap");
}

TEST(EngineCache, MaskedRequestsBypassTheCache) {
  engine::Engine engine;
  engine.set_cache(ResultCache::with_capacity_mb(8));
  const auto masked = completion::MaskedMatrix::parse("1*;*1");
  const auto report =
      engine.solve(engine::SolveRequest::with_mask(masked, "completion"));
  EXPECT_EQ(report.find_telemetry("cache_hit"), nullptr);
  EXPECT_EQ(engine.cache()->stats().misses, 0u);
}

TEST(EngineCache, SolveBatchSharesTheCacheAcrossWorkers) {
  engine::Engine engine;
  engine.set_cache(ResultCache::with_capacity_mb(8));
  // 24 requests over only 3 distinct canonical patterns.
  std::vector<engine::SolveRequest> requests;
  for (int i = 0; i < 24; ++i) {
    auto request = engine::SolveRequest::dense(
        ftqc::boundary_row_patch(11, static_cast<std::size_t>(i) % 11),
        "auto");
    request.label = "req-" + std::to_string(i);
    requests.push_back(std::move(request));
  }
  requests.push_back(
      engine::SolveRequest::dense(ftqc::checkerboard_patch(8, 0), "auto"));
  requests.push_back(
      engine::SolveRequest::dense(ftqc::checkerboard_patch(8, 1), "auto"));
  const auto reports = engine.solve_batch(requests, 8);
  ASSERT_EQ(reports.size(), requests.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].find_telemetry("error"), nullptr) << i;
    EXPECT_FALSE(reports[i].partition.empty()) << i;
  }
  const auto stats = engine.cache()->stats();
  // Racing workers may both miss the same fresh key, but far fewer than
  // one miss per request must remain once the cache warms.
  EXPECT_GE(stats.hits + stats.misses, requests.size());
  EXPECT_GE(stats.hits, requests.size() / 2);
}

TEST(EngineCache, BoundedEntryUpgradesUnderABiggerBudget) {
  // A Bounded entry is a budget-cut search; a request that can afford
  // meaningfully more time than the stored attempt spent must re-solve
  // (and upgrade the entry) instead of being shadowed by the stale bound.
  engine::SolverRegistry registry = engine::SolverRegistry::with_builtins();
  registry.add("probe", "bounded when rushed, optimal with time",
               [](const engine::SolveRequest& request) {
                 std::this_thread::sleep_for(std::chrono::milliseconds(30));
                 engine::SolveReport report = [&] {
                   engine::SolveReport r;
                   const BinaryMatrix& m = request.pattern();
                   for (std::size_t i = 0; i < m.rows(); ++i) {
                     if (m.row(i).none()) continue;
                     BitVec rows(m.rows());
                     rows.set(i);
                     r.partition.push_back(Rectangle{rows, m.row(i)});
                   }
                   return r;
                 }();
                 const bool generous =
                     request.budget.deadline.remaining_seconds() > 5.0;
                 report.status = generous ? engine::Status::Optimal
                                          : engine::Status::Bounded;
                 report.lower_bound = generous ? report.partition.size() : 1;
                 return report;
               });
  engine::Engine engine(std::move(registry));
  engine.set_cache(ResultCache::with_capacity_mb(4));
  const BinaryMatrix eq2 = BinaryMatrix::parse("110;011;111");
  const auto tight_request = [&]() {
    auto request = engine::SolveRequest::dense(eq2, "probe");
    request.budget = Budget::after(0.05);
    return request;
  };

  const auto first = engine.solve(tight_request());
  EXPECT_EQ(first.status, engine::Status::Bounded);
  EXPECT_EQ(*first.find_telemetry("cache_hit"), "false");

  // Same tight budget: cannot afford a longer attempt, serves the hit.
  const auto hit = engine.solve(tight_request());
  EXPECT_EQ(*hit.find_telemetry("cache_hit"), "true");
  EXPECT_EQ(hit.status, engine::Status::Bounded);

  // A generous budget re-solves and upgrades the entry.
  auto generous = engine::SolveRequest::dense(eq2, "probe");
  generous.budget = Budget::after(30.0);
  const auto upgraded = engine.solve(generous);
  EXPECT_EQ(*upgraded.find_telemetry("cache_hit"), "false");
  ASSERT_NE(upgraded.find_telemetry("cache.upgrade"), nullptr);
  EXPECT_EQ(upgraded.status, engine::Status::Optimal);

  // The optimal certificate is final: even rushed requests now hit it.
  const auto final_hit = engine.solve(tight_request());
  EXPECT_EQ(*final_hit.find_telemetry("cache_hit"), "true");
  EXPECT_EQ(final_hit.status, engine::Status::Optimal);
}

TEST(EngineCache, DeadlineCutAutoAnswerIsReSolvedUnderABiggerBudget) {
  // At 0.3 s the packing spends the deadline, which then refuses the
  // fooling search on the 1000² component, and auto answers the rank
  // bracket [75, 119] as Bounded.
  // A 10 s request must re-solve rather than serve it: the fooling set
  // then certifies 100.
  Rng rng(1);
  const BinaryMatrix m = benchgen::qldpc_block_matrix(1000, 1000, 0.5, rng);
  engine::Engine engine;
  engine.set_cache(ResultCache::with_capacity_mb(4));
  const auto request = [&](double seconds) {
    auto r = engine::SolveRequest::dense(m, "auto");
    r.budget = Budget::after(seconds);
    return r;
  };

  const auto rushed = engine.solve(request(0.3));
  EXPECT_EQ(rushed.status, engine::Status::Bounded);
  EXPECT_EQ(rushed.lower_bound, 75u);

  const auto generous = engine.solve(request(10.0));
  EXPECT_EQ(*generous.find_telemetry("cache_hit"), "false");
  ASSERT_NE(generous.find_telemetry("cache.upgrade"), nullptr);
  EXPECT_GT(generous.lower_bound, 75u);

  // The tighter bracket replaced the stored one.
  const auto hit = engine.solve(request(0.3));
  EXPECT_EQ(*hit.find_telemetry("cache_hit"), "true");
  EXPECT_EQ(hit.lower_bound, generous.lower_bound);
}

TEST(EngineCache, ConcurrentHammeringStaysConsistent) {
  engine::Engine engine;
  engine.set_cache(ResultCache::with_capacity_mb(1));
  Rng rng(17);
  std::vector<BinaryMatrix> patterns;
  for (int i = 0; i < 6; ++i)
    patterns.push_back(benchgen::random_matrix(7, 7, 0.35, rng));
  std::atomic<int> failures{0};
  engine::parallel_for(64, 8, [&](std::size_t i) {
    const BinaryMatrix& m = patterns[i % patterns.size()];
    auto request = engine::SolveRequest::dense(m, "auto");
    request.trials = 8;
    const auto report = engine.solve(request);
    if (!validate_partition(m, report.partition).ok) failures.fetch_add(1);
    if (report.find_telemetry("cache_hit") == nullptr) failures.fetch_add(1);
  });
  EXPECT_EQ(failures.load(), 0);
  const auto stats = engine.cache()->stats();
  EXPECT_GE(stats.hits, 1u);
  EXPECT_EQ(stats.hits + stats.misses, 64u);
}

// ---- persistence ----------------------------------------------------------

namespace {

/// A scratch snapshot path unique to this test process.
std::string snapshot_path(const char* name) {
  return ::testing::TempDir() + "ebmf_cache_" + name + "_" +
         std::to_string(::getpid()) + ".jsonl";
}

}  // namespace

TEST(CachePersistence, SaveThenLoadRoundTripsEntries) {
  const std::string path = snapshot_path("roundtrip");
  const auto a = canon::canonicalize(BinaryMatrix::parse("110;011;111"));
  const auto b = canon::canonicalize(BinaryMatrix::parse("1010;0101"));
  {
    ResultCache cache(ResultCache::Options{});
    auto optimal = toy_report(a.pattern);
    optimal.status = engine::Status::Optimal;
    optimal.lower_bound = optimal.upper_bound;
    optimal.add_telemetry("sat.conflicts", "12");
    cache.insert(a.key.mixed_with("auto"), "auto", a.pattern, optimal);
    cache.insert(b.key.mixed_with("sap"), "sap", b.pattern,
                 toy_report(b.pattern));
    std::string error;
    ASSERT_TRUE(cache.save_file(path, &error)) << error;
  }
  ResultCache reloaded(ResultCache::Options{});
  std::string warning;
  EXPECT_EQ(reloaded.load_file(path, &warning), 2u);
  EXPECT_TRUE(warning.empty()) << warning;

  const auto hit = reloaded.lookup(a.key.mixed_with("auto"), "auto",
                                   a.pattern);
  ASSERT_TRUE(hit.has_value());
  // The certificate survived the round trip intact.
  EXPECT_EQ(hit->report.status, engine::Status::Optimal);
  EXPECT_EQ(hit->report.depth(), 3u);
  EXPECT_TRUE(validate_partition(a.pattern, hit->report.partition).ok);
  ASSERT_NE(hit->report.find_telemetry("sat.conflicts"), nullptr);
  EXPECT_TRUE(reloaded
                  .lookup(b.key.mixed_with("sap"), "sap", b.pattern)
                  .has_value());
  std::remove(path.c_str());
}

TEST(CachePersistence, ReloadedEntriesServeTheEngineWithCertificates) {
  const std::string path = snapshot_path("engine");
  const BinaryMatrix pattern = BinaryMatrix::parse("1110;0111;1111");
  {
    engine::Engine engine;
    engine.set_cache(ResultCache::with_capacity_mb(8));
    const auto cold =
        engine.solve(engine::SolveRequest::dense(pattern, "auto"));
    EXPECT_EQ(cold.status, engine::Status::Optimal);
    std::string error;
    ASSERT_TRUE(engine.cache()->save_file(path, &error)) << error;
  }
  engine::Engine restarted;
  restarted.set_cache(ResultCache::with_capacity_mb(8));
  std::string warning;
  ASSERT_GE(restarted.cache()->load_file(path, &warning), 1u);
  // A *column-permuted* duplicate after the "restart" is a warm hit with
  // the optimality certificate intact.
  const auto warm = restarted.solve(
      engine::SolveRequest::dense(BinaryMatrix::parse("1101;1011;1111"),
                                  "auto"));
  const std::string* hit = warm.find_telemetry("cache_hit");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "true");
  EXPECT_EQ(warm.status, engine::Status::Optimal);
  std::remove(path.c_str());
}

TEST(CachePersistence, MissingCorruptAndMismatchedFilesAreIgnored) {
  ResultCache cache(ResultCache::Options{});
  std::string warning;
  // Missing file: cold start with a warning, no throw.
  EXPECT_EQ(cache.load_file(snapshot_path("missing"), &warning), 0u);
  EXPECT_FALSE(warning.empty());

  // Not an ebmf snapshot at all.
  const std::string garbage = snapshot_path("garbage");
  {
    std::ofstream out(garbage);
    out << "definitely not json\n";
  }
  warning.clear();
  EXPECT_EQ(cache.load_file(garbage, &warning), 0u);
  EXPECT_NE(warning.find("ignored"), std::string::npos);
  std::remove(garbage.c_str());

  // Future version: whole file ignored.
  const std::string future = snapshot_path("future");
  {
    std::ofstream out(future);
    out << "{\"ebmf_cache\":999}\n";
  }
  warning.clear();
  EXPECT_EQ(cache.load_file(future, &warning), 0u);
  EXPECT_NE(warning.find("version"), std::string::npos);
  // A version no int can hold is refused the same way, not cast.
  {
    std::ofstream out(future);
    out << "{\"ebmf_cache\":1e300}\n";
  }
  warning.clear();
  EXPECT_EQ(cache.load_file(future, &warning), 0u);
  EXPECT_NE(warning.find("version"), std::string::npos);
  std::remove(future.c_str());
}

TEST(CachePersistence, CorruptEntriesAreSkippedNotServed) {
  const std::string path = snapshot_path("tampered");
  const auto c = canon::canonicalize(BinaryMatrix::parse("110;011;111"));
  {
    ResultCache cache(ResultCache::Options{});
    cache.insert(c.key.mixed_with("auto"), "auto", c.pattern,
                 toy_report(c.pattern));
    std::string error;
    ASSERT_TRUE(cache.save_file(path, &error)) << error;
  }
  // Append one truncated line and one entry whose partition does not
  // cover the pattern (an invalid certificate).
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"cache_key\":\"zz\"\n";
    out << "{\"cache_key\":\"00000000000000000000000000000001\","
           "\"strategy\":\"auto\",\"pattern\":\"11;11\","
           "\"report\":{\"status\":\"optimal\",\"lower_bound\":1,"
           "\"upper_bound\":1,\"partition\":[{\"rows\":[0],\"cols\":[0]}]}}"
        << "\n";
  }
  ResultCache reloaded(ResultCache::Options{});
  std::string warning;
  EXPECT_EQ(reloaded.load_file(path, &warning), 1u);  // only the good one
  EXPECT_NE(warning.find("skipped 2"), std::string::npos);
  EXPECT_TRUE(reloaded
                  .lookup(c.key.mixed_with("auto"), "auto", c.pattern)
                  .has_value());
  std::remove(path.c_str());
}

TEST(CachePersistence, EntriesWithNonCountBoundsAreSkipped) {
  // A snapshot is untrusted: bounds that are negative, huge or fractional
  // reject their entry instead of being cast to size_t. The last line is
  // the same entry with exact bounds, and loads.
  const std::string path = snapshot_path("bounds");
  {
    std::ofstream out(path);
    out << "{\"ebmf_cache\":1}\n";
    for (const char* bounds :
         {"\"lower_bound\":-1,\"upper_bound\":1e300",
          "\"lower_bound\":0.5,\"upper_bound\":1",
          "\"lower_bound\":1,\"upper_bound\":1,\"gap\":-3",
          "\"lower_bound\":1,\"upper_bound\":1"})
      out << "{\"cache_key\":\"00000000000000000000000000000001\","
             "\"strategy\":\"auto\",\"pattern\":\"1\","
             "\"report\":{\"status\":\"optimal\","
          << bounds << ",\"partition\":[{\"rows\":[0],\"cols\":[0]}]}}\n";
  }
  ResultCache cache(ResultCache::Options{});
  std::string warning;
  EXPECT_EQ(cache.load_file(path, &warning), 1u);  // only the exact one
  EXPECT_NE(warning.find("skipped 3"), std::string::npos) << warning;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ebmf::cache
