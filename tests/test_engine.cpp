// Tests for the ebmf::engine facade: registry resolution, the unified
// report contract, the "auto" portfolio, budget/anytime behaviour, and
// batch/component-parallel execution.

#include "engine/engine.h"

#include <gtest/gtest.h>

#include "benchgen/generators.h"
#include "benchgen/suites.h"
#include "core/bounds.h"
#include "support/rng.h"
#include "support/stopwatch.h"

namespace ebmf::engine {
namespace {

BinaryMatrix eq2() { return BinaryMatrix::parse("110;011;111"); }

BinaryMatrix fig1b() {
  return BinaryMatrix::parse(
      "101100;010011;101010;010101;111000;000111");
}

TEST(Registry, BuiltinsArePresent) {
  const auto registry = SolverRegistry::with_builtins();
  const auto names = registry.names();
  EXPECT_EQ(names, (std::vector<std::string>{"auto", "completion", "heuristic",
                                             "sap", "trivial"}));
  EXPECT_EQ(names.size(), registry.size());
  for (const auto& name : names) {
    EXPECT_TRUE(registry.contains(name)) << name;
    ASSERT_NE(registry.find(name), nullptr);
    EXPECT_FALSE(registry.find(name)->description.empty()) << name;
  }
}

TEST(Registry, UnknownNameThrowsListingAlternatives) {
  const Engine engine;
  auto request = SolveRequest::dense(eq2(), "frobnicate");
  try {
    (void)engine.solve(request);
    FAIL() << "expected UnknownStrategyError";
  } catch (const UnknownStrategyError& e) {
    EXPECT_EQ(e.name(), "frobnicate");
    EXPECT_NE(std::string(e.what()).find("sap"), std::string::npos);
  }
}

TEST(Registry, CustomStrategyPlugsIn) {
  SolverRegistry registry = SolverRegistry::with_builtins();
  registry.add("rowwise", "one rectangle per nonzero row",
               [](const SolveRequest& request) {
                 SolveReport report;
                 const BinaryMatrix& m = request.pattern();
                 for (std::size_t i = 0; i < m.rows(); ++i) {
                   if (m.row(i).none()) continue;
                   BitVec rows(m.rows());
                   rows.set(i);
                   report.partition.push_back(Rectangle{rows, m.row(i)});
                 }
                 report.status = Status::Heuristic;
                 return report;
               });
  const Engine engine(std::move(registry));
  const auto report = engine.solve(SolveRequest::dense(eq2(), "rowwise"));
  EXPECT_EQ(report.depth(), 3u);
  EXPECT_EQ(report.strategy, "rowwise");
  EXPECT_EQ(report.upper_bound, 3u);
}

TEST(Engine, EveryBuiltinStrategyYieldsValidOptimalOnEq2) {
  // r_B = 3 for the Eq. 2 matrix and every backend can reach it; the engine
  // validates each partition internally (run_checked postcondition).
  const Engine engine;
  for (const auto& name : SolverRegistry::with_builtins().names()) {
    const auto report = engine.solve(SolveRequest::dense(eq2(), name));
    EXPECT_EQ(report.depth(), 3u) << name;
    EXPECT_TRUE(validate_partition(eq2(), report.partition).ok) << name;
    EXPECT_GT(report.total_seconds, 0.0) << name;
  }
}

TEST(Engine, ReportCarriesTimingsAndTelemetry) {
  const Engine engine;
  const auto report = engine.solve(SolveRequest::dense(fig1b(), "sap"));
  EXPECT_TRUE(report.proven_optimal());
  EXPECT_EQ(report.depth(), 5u);  // the paper's Fig. 1b optimum
  EXPECT_GE(report.timing("heuristic"), 0.0);
  EXPECT_NE(report.find_telemetry("heuristic.size"), nullptr);
  // Timings merge by phase name.
  SolveReport scratch;
  scratch.add_timing("x", 1.0);
  scratch.add_timing("x", 2.0);
  EXPECT_DOUBLE_EQ(scratch.timing("x"), 3.0);
  EXPECT_DOUBLE_EQ(scratch.timing("absent"), 0.0);
}

TEST(Engine, ZeroMatrixIsOptimalEverywhere) {
  const Engine engine;
  for (const auto& name : SolverRegistry::with_builtins().names()) {
    const auto report =
        engine.solve(SolveRequest::dense(BinaryMatrix(4, 4), name));
    EXPECT_TRUE(report.proven_optimal()) << name;
    EXPECT_EQ(report.depth(), 0u) << name;
  }
}

TEST(Auto, MidSizeInstanceSelectsSap) {
  Rng rng(21);
  const auto m = BinaryMatrix::random(10, 10, 0.5, rng);  // ~50 ones
  const Engine engine;
  const auto report = engine.solve(SolveRequest::dense(m, "auto"));
  ASSERT_NE(report.find_telemetry("auto.selected"), nullptr);
  EXPECT_EQ(*report.find_telemetry("auto.selected"), "sap");
}

TEST(Auto, LargeInstanceRunsSapAndStaysValid) {
  Rng rng(22);
  const auto m = BinaryMatrix::random(40, 40, 0.5, rng);  // ~800 ones
  const Engine engine;
  auto request = SolveRequest::dense(m, "auto");
  request.trials = 10;
  const auto report = engine.solve(request);
  // ~800 dense 1-cells: the portfolio hands it to SAP with SMT kept under
  // the cell guard, which still returns a valid partition with a certified
  // gap bound.
  ASSERT_NE(report.find_telemetry("auto.selected"), nullptr);
  EXPECT_EQ(*report.find_telemetry("auto.selected"), "sap");
  EXPECT_TRUE(validate_partition(m, report.partition).ok);
  EXPECT_EQ(report.gap, report.upper_bound - report.lower_bound);
}

TEST(Auto, CertifiesQldpcBlockOptimum) {
  // qldpc 200² at occupancy 0.5 (seed 1): SAP's fooling search certifies
  // the packing's 24 with no SAT call.
  Rng rng(1);
  const auto m = benchgen::qldpc_block_matrix(200, 200, 0.5, rng);
  const Engine engine;
  auto request = SolveRequest::dense(m, "auto");
  request.budget = Budget::after(2.0);
  const auto report = engine.solve(request);
  EXPECT_TRUE(report.proven_optimal());
  EXPECT_EQ(report.depth(), 24u);
  EXPECT_EQ(report.lower_bound, 24u);
}

TEST(Auto, DeadlineCutBracketReportsBounded) {
  // The 1000² component has 37,390 cells, far past the cell guard. At
  // 0.3 s the packing spends the deadline and the deadline then refuses
  // the fooling search, so the bracket depends on the budget: Bounded,
  // not Heuristic.
  Rng rng(1);
  const BinaryMatrix m = benchgen::qldpc_block_matrix(1000, 1000, 0.5, rng);
  const Engine engine;
  auto request = SolveRequest::dense(m, "auto");
  request.budget = Budget::after(0.3);
  const auto report = engine.solve(request);
  EXPECT_EQ(report.status, Status::Bounded);
  EXPECT_EQ(report.lower_bound, 75u);
  EXPECT_TRUE(validate_partition(m, report.partition).ok);
}

TEST(Auto, DontCaresSelectCompletion) {
  const auto masked = completion::MaskedMatrix::parse("1*;*1");
  const Engine engine;
  const auto report = engine.solve(SolveRequest::with_mask(masked, "auto"));
  ASSERT_NE(report.find_telemetry("auto.selected"), nullptr);
  EXPECT_EQ(*report.find_telemetry("auto.selected"), "completion");
  EXPECT_EQ(report.depth(), 1u);  // the vacancy bridge fuses the diagonal
}

TEST(Budget, ExpiredDeadlineStillYieldsValidAnytimePartition) {
  Rng rng(23);
  const auto inst = benchgen::gap_matrix(10, 10, 4, rng);
  const Engine engine;
  for (const auto& name : SolverRegistry::with_builtins().names()) {
    auto request = SolveRequest::dense(inst.matrix, name);
    request.budget = Budget::after(0.0);
    request.trials = 3;
    const auto report = engine.solve(request);
    EXPECT_TRUE(validate_partition(inst.matrix, report.partition).ok) << name;
    EXPECT_GE(report.depth(), report.lower_bound) << name;
    EXPECT_FALSE(report.partition.empty()) << name;
  }
}

// The budget contract on a 1000² qLDPC pattern (277,908 ones): every
// strategy returns within its deadline + 10% + 50 ms. The lower bound is
// the Eq. 3 rank (75), except for `completion`, whose don't-care-safe
// fooling bound reads 77 here, and `sap` and `auto`, whose fooling search
// certifies about 100.
TEST(Budget, LargePatternReturnsWithinDeadline) {
  Rng rng(1);
  const BinaryMatrix m = benchgen::qldpc_block_matrix(1000, 1000, 0.5, rng);
  ASSERT_EQ(m.ones_count(), 277908u);
  constexpr double kBudget = 3.0;
  const Engine engine;
  for (const auto& name : SolverRegistry::with_builtins().names()) {
    auto request = SolveRequest::dense(m, name);
    const Stopwatch clock;
    request.budget = Budget::after(kBudget);
    const auto report = engine.solve(request);
    EXPECT_LE(clock.seconds(), kBudget * 1.1 + 0.05) << name;
    if (name == "completion")
      EXPECT_GE(report.lower_bound, 75u) << name;
    else if (name == "sap" || name == "auto")
      EXPECT_GT(report.lower_bound, 75u) << name;
    else
      EXPECT_EQ(report.lower_bound, 75u) << name;
    EXPECT_FALSE(report.partition.empty()) << name;
  }
}

// CI's smoke instance (qldpc 200², occupancy 0.3, seed 11) reduces to one
// 27×92 component with 760 ones, whose SMT formula takes seconds to build:
// a 0.5 s budget must refuse it rather than build it.
TEST(Budget, SapKeepsToShortDeadlineOnDenseComponent) {
  Rng rng(11);
  const BinaryMatrix m = benchgen::qldpc_block_matrix(200, 200, 0.3, rng);
  constexpr double kBudget = 0.5;
  const Engine engine;
  auto request = SolveRequest::dense(m, "sap");
  const Stopwatch clock;
  request.budget = Budget::after(kBudget);
  const auto report = engine.solve(request);
  EXPECT_LE(clock.seconds(), kBudget * 1.1 + 0.05);
  EXPECT_TRUE(validate_partition(m, report.partition).ok);
  EXPECT_GE(report.depth(), report.lower_bound);
}

TEST(EngineGap, GapZeroIffProvedOptimal) {
  const Engine engine;
  // Optimal case: small instance, exact tier closes the bracket.
  {
    const auto report =
        engine.solve(SolveRequest::dense(BinaryMatrix::parse("110;011;111"),
                                         "sap"));
    EXPECT_TRUE(report.proven_optimal());
    EXPECT_EQ(report.gap, 0u);
    EXPECT_EQ(report.lower_bound, report.upper_bound);
  }
  // Bounded case: gap 20² k=6 (seed 2) stays open past a short budget
  // here — SAP returns an incumbent with an open, correctly-sized gap.
  {
    Rng rng(2);
    const auto inst = benchgen::gap_matrix(20, 20, 6, rng);
    auto request = SolveRequest::dense(inst.matrix, "sap");
    request.budget = Budget::after(1.0);
    const auto report = engine.solve(request);
    EXPECT_FALSE(report.partition.empty());
    EXPECT_EQ(report.upper_bound, report.partition.size());
    EXPECT_EQ(report.gap, report.upper_bound - report.lower_bound);
    EXPECT_EQ(report.gap == 0, report.proven_optimal());
  }
}

TEST(Budget, CancellationFlagIsSharedAcrossCopies) {
  Budget budget;
  budget.cancellable();
  const Budget copy = budget;
  EXPECT_FALSE(copy.exhausted());
  budget.request_cancel();
  EXPECT_TRUE(copy.cancelled());
  EXPECT_TRUE(copy.exhausted());
}

TEST(Batch, DeterministicOrderAndDepthsAcrossRuns) {
  Rng rng(24);
  std::vector<SolveRequest> requests;
  for (int i = 0; i < 6; ++i) {
    auto request = SolveRequest::dense(
        BinaryMatrix::random(8, 8, 0.4, rng), "auto");
    request.label = "instance-" + std::to_string(i);
    request.trials = 20;
    request.seed = 7;
    requests.push_back(std::move(request));
  }
  const Engine engine;
  const auto first = engine.solve_batch(requests, 4);
  const auto second = engine.solve_batch(requests, 2);
  ASSERT_EQ(first.size(), requests.size());
  ASSERT_EQ(second.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(first[i].label, requests[i].label);
    EXPECT_EQ(second[i].label, requests[i].label);
    EXPECT_EQ(first[i].depth(), second[i].depth()) << i;
    EXPECT_EQ(first[i].status, second[i].status) << i;
    EXPECT_EQ(first[i].strategy, second[i].strategy) << i;
  }
}

TEST(Batch, UnknownStrategyYieldsErrorTelemetryNotThrow) {
  std::vector<SolveRequest> requests;
  requests.push_back(SolveRequest::dense(eq2(), "auto"));
  requests.push_back(SolveRequest::dense(eq2(), "nope"));
  const Engine engine;
  const auto reports = engine.solve_batch(requests, 2);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].depth(), 3u);
  ASSERT_NE(reports[1].find_telemetry("error"), nullptr);
  EXPECT_NE(reports[1].find_telemetry("error")->find("nope"),
            std::string::npos);
}

TEST(Split, ComponentParallelMatchesMonolithicDepth) {
  // Block-diagonal gap instances: components are solved independently and
  // the merged result matches a plain preprocessed SAP solve.
  Rng rng(25);
  BinaryMatrix big(20, 20);
  for (std::size_t b = 0; b < 2; ++b) {
    const auto gap = benchgen::gap_matrix(10, 10, 3, rng);
    for (const auto& [i, j] : gap.matrix.ones())
      big.set(b * 10 + i, b * 10 + j);
  }
  const Engine engine;
  auto request = SolveRequest::dense(big, "sap");
  request.trials = 40;
  const auto split = engine.solve_split(request, 4);
  const auto plain = engine.solve(request);
  EXPECT_TRUE(validate_partition(big, split.partition).ok);
  EXPECT_EQ(split.depth(), plain.depth());
  EXPECT_EQ(split.status, plain.status);
  EXPECT_EQ(split.lower_bound, plain.lower_bound);
  EXPECT_EQ(split.telemetry_count("split.components"), 2u);
}

TEST(Split, UnknownStrategyThrows) {
  const Engine engine;
  EXPECT_THROW((void)engine.solve_split(SolveRequest::dense(eq2(), "nope")),
               UnknownStrategyError);
}

TEST(Report, JsonIsOneLineWithStableFields) {
  const Engine engine;
  auto request = SolveRequest::dense(eq2(), "sap");
  request.label = "eq2 \"quoted\"";
  const auto report = engine.solve(request);
  const auto json = to_json(report);
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_NE(json.find("\"strategy\":\"sap\""), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"optimal\""), std::string::npos);
  EXPECT_NE(json.find("\"depth\":3"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
}

/// A hand-built report touching every field to_json renders: escapes in
/// strings, %.6g numbers, several timings and telemetry entries.
SolveReport pinned_report() {
  SolveReport report;
  report.label = "pin \"q\"\n\x01";
  report.strategy = "sap";
  report.status = Status::Bounded;
  report.lower_bound = 2;
  report.upper_bound = 3;
  report.gap = 1;
  report.total_seconds = 0.000125;
  report.add_timing("rank", 1.5e-05);
  report.add_timing("smt", 0.25);
  report.add_telemetry("heuristic.size", "3");
  report.add_telemetry("k\"ey", "v\\al");
  for (const auto& [rows, cols] :
       {std::pair{"110", "0011"}, {"001", "1100"}, {"001", "0001"}})
    report.partition.push_back(
        Rectangle{BitVec::from_string(rows), BitVec::from_string(cols)});
  return report;
}

TEST(Report, JsonBytesArePinned) {
  // The bytes are a wire contract: replies and cache snapshots carry them.
  EXPECT_EQ(to_json(pinned_report()),
            R"({"label":"pin \"q\"\u000a\u0001","strategy":"sap",)"
            R"("status":"bounded","depth":3,"lower_bound":2,"upper_bound":3,)"
            R"("incumbent_depth":3,"gap":1,"total_seconds":0.000125,)"
            R"("timings":{"rank":1.5e-05,"smt":0.25},)"
            R"("telemetry":{"heuristic.size":"3","k\"ey":"v\\al"}})");
  EXPECT_EQ(to_json(SolveReport{}),
            R"({"label":"","strategy":"","status":"heuristic","depth":0,)"
            R"("lower_bound":0,"upper_bound":0,"incumbent_depth":0,"gap":0,)"
            R"("total_seconds":0,"timings":{},"telemetry":{}})");
}

TEST(Report, StatusNames) {
  EXPECT_STREQ(to_string(Status::Optimal), "optimal");
  EXPECT_STREQ(to_string(Status::Bounded), "bounded");
  EXPECT_STREQ(to_string(Status::Heuristic), "heuristic");
}

}  // namespace
}  // namespace ebmf::engine
