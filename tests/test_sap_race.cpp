// Tests for the parallel SMT bound race: identical answers (depth, status,
// certificate bounds) for sap.probes=1 vs sap.probes=4 across the benchgen
// suites, race telemetry when the race engages, caller-cancellation
// chaining through the secondary budget flag, and the wire-schema "probes"
// field round trip.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "benchgen/suites.h"
#include "engine/engine.h"
#include "io/request_io.h"
#include "smt/sap.h"
#include "support/rng.h"
#include "support/stopwatch.h"

namespace ebmf {
namespace {

engine::SolveReport solve_with_probes(const engine::Engine& eng,
                                      const BinaryMatrix& m,
                                      std::size_t probes,
                                      std::size_t trials) {
  auto request = engine::SolveRequest::dense(m, "sap");
  request.probes = probes;
  request.trials = trials;
  request.seed = 7;
  return eng.solve(request);
}

void expect_identical_reports(const std::vector<benchgen::Instance>& suite,
                              std::size_t trials) {
  const engine::Engine eng;
  for (const auto& inst : suite) {
    const auto sequential = solve_with_probes(eng, inst.matrix, 1, trials);
    const auto raced = solve_with_probes(eng, inst.matrix, 4, trials);
    EXPECT_EQ(sequential.depth(), raced.depth())
        << inst.family << " " << inst.config;
    EXPECT_EQ(sequential.status, raced.status)
        << inst.family << " " << inst.config;
    EXPECT_EQ(sequential.lower_bound, raced.lower_bound)
        << inst.family << " " << inst.config;
    EXPECT_EQ(sequential.upper_bound, raced.upper_bound)
        << inst.family << " " << inst.config;
    if (inst.known_optimal != 0) {
      EXPECT_EQ(raced.depth(), inst.known_optimal);
      EXPECT_TRUE(raced.proven_optimal());
    }
  }
}

TEST(SapRace, RandomSuiteMatchesSequential) {
  expect_identical_reports(
      benchgen::random_suite(8, 8, {0.3, 0.5, 0.7}, 2, 11), 20);
}

TEST(SapRace, KnownOptimalSuiteMatchesSequential) {
  expect_identical_reports(benchgen::known_optimal_suite(9, 9, 5, 2, 12), 20);
}

TEST(SapRace, GapSuiteMatchesSequential) {
  expect_identical_reports(benchgen::gap_suite(9, 9, {2, 3}, 3, 13), 20);
}

TEST(SapRace, Table1SmallSuitesMatchSequential) {
  // Table 1's 10×10 suites at one instance per configuration. The
  // fooling-set certificate is settled before the race forks, so it and
  // the bracket it leaves are the same at either width.
  std::vector<benchgen::Instance> suite =
      benchgen::random_suite(10, 10, benchgen::paper_occupancies_small(), 1,
                             21);
  for (auto& inst : benchgen::known_optimal_suite(10, 10, 10, 1, 22))
    suite.push_back(std::move(inst));
  for (auto& inst : benchgen::gap_suite(10, 10, {3, 4, 5}, 2, 23))
    suite.push_back(std::move(inst));
  const engine::Engine eng;
  for (const auto& inst : suite) {
    const auto sequential = solve_with_probes(eng, inst.matrix, 1, 20);
    const auto raced = solve_with_probes(eng, inst.matrix, 4, 20);
    const std::string label = inst.family + " " + inst.config;
    EXPECT_EQ(sequential.depth(), raced.depth()) << label;
    EXPECT_EQ(sequential.status, raced.status) << label;
    EXPECT_EQ(sequential.lower_bound, raced.lower_bound) << label;
    EXPECT_EQ(sequential.telemetry_count("bound.fooling"),
              raced.telemetry_count("bound.fooling"))
        << label;
    if (inst.known_optimal != 0) {
      EXPECT_EQ(raced.depth(), inst.known_optimal) << label;
    }
  }
}

TEST(SapRace, WeakHeuristicGapInstancesMatchSequentialAndEngageRace) {
  // With a single packing trial the heuristic overshoots by two or more on
  // these instances, leaving several unresolved bounds — the configuration
  // where the race actually engages (verified: both race with waves >= 1).
  const struct {
    std::size_t n, k;
    std::uint64_t seed;
  } kCases[] = {{10, 3, 3}, {12, 4, 1}};
  const engine::Engine eng;
  bool engaged = false;
  for (const auto& c : kCases) {
    Rng gen(c.seed);
    const BinaryMatrix m = benchgen::gap_matrix(c.n, c.n, c.k, gen).matrix;
    const auto sequential = solve_with_probes(eng, m, 1, 1);
    const auto raced = solve_with_probes(eng, m, 4, 1);
    EXPECT_EQ(sequential.depth(), raced.depth()) << "seed " << c.seed;
    EXPECT_EQ(sequential.status, raced.status) << "seed " << c.seed;
    EXPECT_EQ(sequential.lower_bound, raced.lower_bound) << "seed " << c.seed;
    if (raced.telemetry_count("sap.probe.waves") > 0) {
      engaged = true;
      EXPECT_GE(raced.telemetry_count("sap.probe.calls"),
                raced.telemetry_count("sap.probe.waves"));
      EXPECT_EQ(raced.telemetry_count("sap.probes"), 4u);
    }
  }
  EXPECT_TRUE(engaged) << "no instance engaged the race; suite too easy";
}

TEST(SapRace, SequentialPathReportsNoProbeTelemetry) {
  Rng rng(3);
  const BinaryMatrix m = benchgen::gap_matrix(10, 10, 3, rng).matrix;
  const engine::Engine eng;
  const auto report = solve_with_probes(eng, m, 1, 20);
  EXPECT_EQ(report.find_telemetry("sap.probes"), nullptr);
}

TEST(SapRace, CallerCancellationStopsTheRacePromptly) {
  // The race rewires per-probe cancel flags; the caller's own flag must
  // still stop every probe (chained through Budget::also_cancel).
  Rng rng(1);
  const BinaryMatrix m = benchgen::gap_matrix(14, 14, 5, rng).matrix;
  SapOptions options;
  options.packing.trials = 1;
  options.probes = 4;
  options.budget.cancellable();
  Budget caller = options.budget;
  std::thread canceller([&caller]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    caller.request_cancel();
  });
  Stopwatch sw;
  const SapResult result = sap_solve(m, options);
  const double seconds = sw.seconds();
  canceller.join();
  // Anytime contract: a valid partition regardless of the cancellation.
  EXPECT_TRUE(static_cast<bool>(validate_partition(m, result.partition)));
  EXPECT_LT(seconds, 3.0);  // full solve runs tens of seconds
}

TEST(SapRace, ProbesFieldRoundTripsThroughWireSchema) {
  const auto wire =
      io::parse_wire_request("{\"pattern\":\"110;011\",\"probes\":4}");
  EXPECT_EQ(wire.request.probes, 4u);
  const std::string rendered = io::wire_request_json(wire);
  EXPECT_NE(rendered.find("\"probes\":4"), std::string::npos);

  const auto defaulted = io::parse_wire_request("{\"pattern\":\"110;011\"}");
  EXPECT_EQ(defaulted.request.probes, 1u);
  EXPECT_EQ(io::wire_request_json(defaulted).find("\"probes\""),
            std::string::npos);
}

}  // namespace
}  // namespace ebmf
