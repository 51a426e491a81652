// Tests for SAP (Algorithm 1): optimality against brute force, certificate
// statuses (rank, fooling set, UNSAT), anytime behaviour, and the paper's
// benchmark families.

#include "smt/sap.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "benchgen/generators.h"
#include "benchgen/suites.h"
#include "core/fooling.h"
#include "engine/engine.h"
#include "oracle_ebmf.h"
#include "support/rng.h"
#include "support/stopwatch.h"

namespace ebmf {
namespace {

TEST(Sap, ZeroMatrix) {
  const BinaryMatrix z(5, 5);
  const auto r = sap_solve(z);
  EXPECT_TRUE(r.partition.empty());
  EXPECT_EQ(r.status, SapStatus::Optimal);
  EXPECT_EQ(r.rank_lower, 0u);
}

TEST(Sap, FullRectangle) {
  const auto m = BinaryMatrix::parse("111;111;111");
  const auto r = sap_solve(m);
  EXPECT_EQ(r.depth(), 1u);
  EXPECT_TRUE(r.proven_optimal());
  // rank == 1 == |P|: no SMT call should have been needed.
  EXPECT_TRUE(r.smt_calls.empty());
}

TEST(Sap, SingleCell) {
  const auto m = BinaryMatrix::parse("000;010;000");
  const auto r = sap_solve(m);
  EXPECT_EQ(r.depth(), 1u);
  EXPECT_TRUE(r.proven_optimal());
}

TEST(Sap, PaperFig1bOptimalFive) {
  const auto m = BinaryMatrix::parse(
      "101100;010011;101010;010101;111000;000111");
  const auto r = sap_solve(m);
  EXPECT_EQ(r.depth(), 5u);
  EXPECT_TRUE(r.proven_optimal());
  EXPECT_TRUE(validate_partition(m, r.partition).ok);
}

TEST(Sap, Eq2MatrixOptimalThree) {
  const auto m = BinaryMatrix::parse("110;011;111");
  const auto r = sap_solve(m);
  EXPECT_EQ(r.depth(), 3u);
  EXPECT_TRUE(r.proven_optimal());
}

class SapBrute : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SapBrute, MatchesBruteForceOnTinyMatrices) {
  Rng rng(GetParam());
  for (int t = 0; t < 10; ++t) {
    const auto m = BinaryMatrix::random(4, 5, 0.3 + 0.05 * t, rng);
    if (m.is_zero()) continue;
    const auto brute = brute_force_ebmf(m);
    ASSERT_TRUE(brute.has_value());
    SapOptions opt;
    opt.packing.trials = 5;  // force the SMT phase to do real work
    const auto r = sap_solve(m, opt);
    EXPECT_TRUE(r.proven_optimal()) << m.to_string();
    EXPECT_EQ(r.depth(), brute->binary_rank) << m.to_string();
    EXPECT_TRUE(validate_partition(m, r.partition).ok);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SapBrute,
                         ::testing::Values(21, 42, 63, 84, 105, 126));

TEST(Sap, KnownOptimalFamilyShortCircuits) {
  // Family 2 matrices have rank == r_B: packing + rank certificate suffice.
  Rng rng(1999);
  for (std::size_t k = 1; k <= 8; ++k) {
    const auto inst = benchgen::known_optimal_matrix(10, 10, k, rng);
    const auto r = sap_solve(inst.matrix);
    EXPECT_TRUE(r.proven_optimal());
    EXPECT_EQ(r.depth(), inst.optimal);
    EXPECT_TRUE(r.smt_calls.empty());  // rank match, no SMT needed
  }
}

TEST(Sap, GapFamilyNeedsUnsatCertificate) {
  // Family 3 is built so r_B > rank: SAP must certify past the rank, with
  // a fooling set as large as the partition or, where the maximum fooling
  // set falls short, an UNSAT answer (or a walk down to the optimum). Both
  // certificates occur in this stream (the UNSAT one at t = 38).
  Rng rng(3003);
  bool saw_fooling_certificate = false;
  bool saw_unsat_certificate = false;
  for (int t = 0; t < 40; ++t) {
    const auto inst = benchgen::gap_matrix(8, 8, 3, rng);
    const auto r = sap_solve(inst.matrix);
    EXPECT_TRUE(r.proven_optimal());
    EXPECT_TRUE(validate_partition(inst.matrix, r.partition).ok);
    EXPECT_GE(r.depth(), r.rank_lower);
    EXPECT_EQ(r.certified_lower, r.depth());
    if (r.depth() > r.rank_lower && r.smt_calls.empty()) {
      EXPECT_EQ(r.fooling_size, r.depth());
      saw_fooling_certificate = true;
    }
    if (!r.smt_calls.empty() &&
        r.smt_calls.back().result == sat::SolveResult::Unsat)
      saw_unsat_certificate = true;
  }
  EXPECT_TRUE(saw_fooling_certificate);
  EXPECT_TRUE(saw_unsat_certificate);
}

TEST(Sap, FoolingSetAsLargeAsPackingSkipsSmt) {
  // I + cyclic shift: real rank 3 (the alternating vector is in the
  // kernel), but the diagonal is a fooling set of 4 = the packing's size.
  const auto m = BinaryMatrix::parse("1100;0110;0011;1001");
  const auto r = sap_solve(m);
  EXPECT_EQ(r.rank_lower, 3u);
  ASSERT_TRUE(r.proven_optimal());
  EXPECT_EQ(r.depth(), 4u);
  EXPECT_TRUE(r.smt_calls.empty());
  EXPECT_EQ(r.fooling_size, 4u);
  EXPECT_EQ(r.certified_lower, 4u);

  // The engine reports the certificate: bound, timing and telemetry.
  const engine::Engine eng;
  const auto report = eng.solve(engine::SolveRequest::dense(m, "sap"));
  EXPECT_TRUE(report.proven_optimal());
  EXPECT_EQ(report.lower_bound, 4u);
  EXPECT_EQ(report.telemetry_count("smt.calls"), 0u);
  EXPECT_EQ(report.telemetry_count("bound.fooling"), 4u);
  EXPECT_GE(report.timing("fooling"), 0.0);
}

TEST(Sap, FoolingSetRaisesTheFloorOfTheSmtPhase) {
  // gap 8×8 k=4, t = 14 of this stream: rank 5, φ = 6, r_B = 7. The SAT
  // phase starts from the fooling bound and needs one UNSAT answer (at
  // b = 6), where the rank floor alone would leave b = 5 to refute too.
  Rng rng(3003);
  benchgen::GapInstance inst;
  for (int t = 0; t <= 14; ++t) inst = benchgen::gap_matrix(8, 8, 4, rng);
  const auto r = sap_solve(inst.matrix);
  EXPECT_EQ(r.rank_lower, 5u);
  EXPECT_EQ(r.fooling_size, 6u);
  ASSERT_TRUE(r.proven_optimal());
  EXPECT_EQ(r.depth(), 7u);
  for (const auto& call : r.smt_calls) EXPECT_GE(call.bound, 6u);
}

TEST(Sap, CallerCancellationStopsTheSatPhasePromptly) {
  // gap 14×14 k=5 (seed 3): one packing trial leaves the bracket [11, 12]
  // after the fooling search, and the UNSAT answer at b = 11 takes well
  // over a second. The caller's flag must stop that decision call. (Seed
  // 1's fooling set closes its bracket with no SAT call at all.)
  Rng rng(3);
  const BinaryMatrix m = benchgen::gap_matrix(14, 14, 5, rng).matrix;
  SapOptions options;
  options.packing.trials = 1;
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
  EXPECT_FALSE(result.smt_calls.empty());
  EXPECT_EQ(result.status, SapStatus::BoundedOnly);
  EXPECT_LT(seconds, 3.0);
}

TEST(Sap, LowerBoundNeverExceedsBruteForceOnSmallBenchgen) {
  // Every benchgen instance with at most 16 ones: the reported lower bound
  // (rank, fooling set or UNSAT) stays at or below the exhaustive r_B, and
  // an Optimal claim is exactly r_B.
  using namespace benchgen;
  std::vector<Instance> all;
  const auto add = [&](std::vector<Instance> part) {
    for (auto& inst : part) all.push_back(std::move(inst));
  };
  const auto occ = paper_occupancies_small();
  add(random_suite(3, 4, occ, 5, 1501));
  add(random_suite(4, 4, occ, 5, 1502));
  add(random_suite(4, 6, occ, 5, 1503));
  add(random_suite(5, 5, occ, 5, 1504));
  add(random_suite(6, 6, occ, 5, 1505));
  add(known_optimal_suite(5, 5, 5, 2, 1506));
  add(gap_suite(6, 6, {2, 3}, 4, 1507));
  add(neutral_atom_suite(4, 5, {0.4, 0.7}, 2, 1508));
  add(qldpc_suite(2, 4, {0.3, 0.5}, 2, 1509));
  const engine::Engine eng;
  std::size_t checked = 0;
  for (const auto& inst : all) {
    const BinaryMatrix& m = inst.matrix;
    if (m.is_zero() || m.ones_count() > 16) continue;
    const auto brute = brute_force_ebmf(m);
    ASSERT_TRUE(brute.has_value());
    const auto report = eng.solve(engine::SolveRequest::dense(m, "sap"));
    EXPECT_LE(report.lower_bound, brute->binary_rank)
        << inst.family << " " << inst.config << "\n" << m.to_string();
    EXPECT_LE(report.telemetry_count("bound.fooling"), brute->binary_rank);
    if (report.proven_optimal()) {
      EXPECT_EQ(report.depth(), brute->binary_rank) << m.to_string();
    }
    ++checked;
  }
  EXPECT_GE(checked, 150u);
}

TEST(Sap, HeuristicOnlyModeSkipsSmt) {
  Rng rng(11);
  const auto m = BinaryMatrix::random(8, 8, 0.5, rng);
  SapOptions opt;
  opt.use_smt = false;
  const auto r = sap_solve(m, opt);
  EXPECT_TRUE(r.smt_calls.empty());
  EXPECT_TRUE(validate_partition(m, r.partition).ok);
  EXPECT_TRUE(r.status == SapStatus::HeuristicOnly ||
              r.status == SapStatus::Optimal);
}

TEST(Sap, CellLimitGuardsSmt) {
  Rng rng(12);
  const auto m = BinaryMatrix::random(10, 10, 0.5, rng);
  SapOptions opt;
  opt.smt_cell_limit = 5;  // way below the ~50 ones
  const auto r = sap_solve(m, opt);
  EXPECT_TRUE(r.smt_calls.empty());
}

TEST(Sap, AnytimeUnderTightDeadline) {
  // With an already-expired deadline the result is still a valid partition.
  Rng rng(13);
  const auto m = BinaryMatrix::random(10, 10, 0.5, rng);
  SapOptions opt;
  opt.budget.deadline = Deadline::after(0.0);
  const auto r = sap_solve(m, opt);
  EXPECT_TRUE(validate_partition(m, r.partition).ok);
  EXPECT_GE(r.depth(), r.rank_lower);
}

TEST(Sap, ConflictBudgetKeepsBestSoFar) {
  Rng rng(14);
  const auto inst = benchgen::gap_matrix(10, 10, 4, rng);
  SapOptions opt;
  opt.budget.max_conflicts = 1;
  const auto r = sap_solve(inst.matrix, opt);
  EXPECT_TRUE(validate_partition(inst.matrix, r.partition).ok);
  // Status may be BoundedOnly (budget) or Optimal (lucky small calls), but
  // the partition is never invalid and never better than the lower bound.
  EXPECT_GE(r.depth(), r.rank_lower);
}

TEST(Sap, BothEncodingsReachTheSameOptimum) {
  Rng rng(15);
  for (int t = 0; t < 6; ++t) {
    const auto inst = benchgen::gap_matrix(8, 8, 2, rng);
    SapOptions onehot;
    onehot.encoder.encoding = smt::LabelEncoding::OneHot;
    SapOptions binary;
    binary.encoder.encoding = smt::LabelEncoding::Binary;
    const auto a = sap_solve(inst.matrix, onehot);
    const auto b = sap_solve(inst.matrix, binary);
    ASSERT_TRUE(a.proven_optimal());
    ASSERT_TRUE(b.proven_optimal());
    EXPECT_EQ(a.depth(), b.depth());
  }
}

TEST(Sap, StatsAreCoherent) {
  Rng rng(16);
  const auto inst = benchgen::gap_matrix(8, 8, 3, rng);
  const auto r = sap_solve(inst.matrix);
  EXPECT_GE(r.heuristic_size, r.depth());
  EXPECT_GE(r.total_seconds, 0.0);
  double sum = 0;
  for (const auto& call : r.smt_calls) {
    EXPECT_GE(call.seconds, 0.0);
    sum += call.seconds;
  }
  EXPECT_NEAR(r.smt_seconds, sum, 1e-9);
  // Bounds must be decreasing across calls.
  for (std::size_t i = 1; i < r.smt_calls.size(); ++i)
    EXPECT_LT(r.smt_calls[i].bound, r.smt_calls[i - 1].bound);
}

TEST(Sap, ConcurrentFoolingSearchesAllCertify) {
  // Seven no-deadline brackets of the qldpc 1000² pattern (one component
  // of 37,390 cells) at once. Each fooling search reads its own clash
  // tables of about 5 MB, so none depends on what else is running, and
  // every one certifies the same 100.
  Rng rng(1);
  const BinaryMatrix m = benchgen::qldpc_block_matrix(1000, 1000, 0.5, rng);
  SapOptions options;
  options.smt_cell_limit = 200;  // the bracket only: no formula is built
  std::vector<std::size_t> lower(7);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < lower.size(); ++t)
    threads.emplace_back(
        [&, t] { lower[t] = sap_solve(m, options).certified_lower; });
  for (auto& thread : threads) thread.join();
  for (const std::size_t bound : lower) EXPECT_EQ(bound, 100u);
}

TEST(Sap, WideRandomMatricesUsuallyRankCertified) {
  // Paper Observation 1: wide random matrices are full rank, so SAP
  // certifies via the rank match without SMT most of the time.
  Rng rng(17);
  int no_smt = 0;
  for (int t = 0; t < 10; ++t) {
    const auto m = BinaryMatrix::random(6, 18, 0.5, rng);
    const auto r = sap_solve(m);
    EXPECT_TRUE(validate_partition(m, r.partition).ok);
    if (r.smt_calls.empty() && r.proven_optimal()) ++no_smt;
  }
  EXPECT_GE(no_smt, 8);
}

}  // namespace
}  // namespace ebmf
