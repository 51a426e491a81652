// Reproduces Table I of the paper: "percentage of cases finding an optimal
// solution" for the trivial heuristic and row packing at 1/10/100/1000
// trials, plus the 'rank' column (% of cases where real rank == binary
// rank), across all three benchmark families.
//
// Default counts are reduced for a quick run; pass --full for the paper's
// populations (10 instances per random config, 10 per known-optimal rank,
// 100 per gap parameter).
//
// Reference optima: SMT-proven via SAP for the small sets; for 100x100 the
// formula is out of reach (as in the paper), so optimality is certified by
// the rank lower bound when a heuristic attains it.

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "benchgen/suites.h"
#include "common.h"
#include "core/bounds.h"
#include "core/trivial.h"
#include "engine/engine.h"
#include "support/stopwatch.h"

namespace {

using ebmf::benchgen::Instance;
using ebmf::engine::SolveRequest;

struct RowResult {
  std::string label;
  std::size_t cases = 0;
  std::size_t proven = 0;      // cases with a certified optimum
  std::size_t rank_match = 0;  // optimum == real rank
  std::size_t trivial_hits = 0;
  std::size_t packing_hits[4] = {0, 0, 0, 0};  // 1, 10, 100, 1000 trials
  double seconds = 0.0;        // wall-clock of the whole suite row
};

constexpr std::size_t kTrialCounts[4] = {1, 10, 100, 1000};

/// Certified optimum of an instance, or 0 when the budget ran out. Exact
/// instances run the engine's "sap" backend; the ones too large for SMT use
/// "heuristic" and count only when the rank certificate closes the bracket.
std::size_t certified_optimum(const ebmf::engine::Engine& engine,
                              const Instance& inst, bool smt_feasible,
                              const ebmf::bench::Options& opt) {
  if (inst.known_optimal != 0) return inst.known_optimal;
  auto request = SolveRequest::dense(inst.matrix, "sap");
  // "Too large for SMT" (the paper's 100x100 set): keep SAP's preprocessing
  // and rank certificate but guard out the formula entirely.
  if (!smt_feasible) request.smt_cell_limit = 1;
  request.trials = 200;
  request.seed = 1;
  request.budget = opt.budget();
  request.label = inst.family + "/" + inst.config;
  const auto report = engine.solve(request);
  ebmf::bench::emit_json(opt, inst.family, inst.config, report);
  return report.proven_optimal() ? report.depth() : 0;
}

RowResult evaluate(const std::string& label,
                   const std::vector<Instance>& instances, bool smt_feasible,
                   const ebmf::bench::Options& opt) {
  const ebmf::engine::Engine engine;
  ebmf::Stopwatch suite_clock;
  RowResult row;
  row.label = label;
  std::uint64_t seed = opt.seed;
  for (const auto& inst : instances) {
    ++row.cases;
    const std::size_t optimum =
        certified_optimum(engine, inst, smt_feasible, opt);
    if (optimum == 0) continue;  // unproven: excluded from hit counting
    ++row.proven;
    const auto rank = ebmf::real_rank(inst.matrix);
    if (rank == optimum) ++row.rank_match;
    if (ebmf::trivial_ebmf(inst.matrix).size() == optimum)
      ++row.trivial_hits;
    for (int t = 0; t < 4; ++t) {
      auto request = SolveRequest::dense(inst.matrix, "heuristic");
      request.trials = kTrialCounts[t];
      request.seed = ++seed;
      request.stop_at = optimum;  // saturation: stop once optimal is found
      const auto result = engine.solve(request);
      if (result.depth() == optimum) ++row.packing_hits[t];
    }
  }
  row.seconds = suite_clock.seconds();
  return row;
}

/// One anytime suite row: the `auto` portfolio (`sap` under its cell guard)
/// on the large qldpc / neutral-atom instances, reported as gap/incumbent
/// metrics (every partition the engine returns is validated, so `valid`
/// counts them all).
struct AnytimeRow {
  std::string label;
  std::size_t cases = 0;
  std::size_t valid = 0;    // validated incumbents returned (should = cases)
  std::size_t optimal = 0;  // incumbents with gap == 0 (certified)
  std::size_t max_gap = 0;
  double mean_gap = 0.0;
  double seconds = 0.0;
};

AnytimeRow evaluate_anytime(const std::string& label,
                            const std::vector<Instance>& instances,
                            const ebmf::bench::Options& opt) {
  const ebmf::engine::Engine engine;
  ebmf::Stopwatch suite_clock;
  AnytimeRow row;
  row.label = label;
  // These suites demonstrate bounded-time answers; cap each solve at 2 s
  // even when the harness budget is larger.
  const double budget_seconds = std::min(opt.budget_seconds, 2.0);
  double gap_sum = 0.0;
  for (const auto& inst : instances) {
    ++row.cases;
    auto request = SolveRequest::dense(inst.matrix, "auto");
    request.trials = 4;
    request.seed = opt.seed;
    request.budget = ebmf::Budget::after(budget_seconds);
    request.label = inst.family + "/" + inst.config;
    const auto report = engine.solve(request);
    ebmf::bench::emit_json(opt, inst.family, inst.config, report);
    if (!report.partition.empty()) ++row.valid;
    if (report.proven_optimal()) ++row.optimal;
    gap_sum += static_cast<double>(report.gap);
    row.max_gap = std::max(row.max_gap, report.gap);
  }
  row.mean_gap = row.cases == 0
                     ? 0.0
                     : gap_sum / static_cast<double>(row.cases);
  row.seconds = suite_clock.seconds();
  return row;
}

void print_row(const RowResult& r) {
  const auto pct = [&](std::size_t hits) {
    return r.proven == 0 ? 0.0 : 100.0 * static_cast<double>(hits) /
                                      static_cast<double>(r.proven);
  };
  std::printf("%-18s %5zu %5zu | %5.0f%% %7.0f%% ", r.label.c_str(), r.cases,
              r.proven, pct(r.rank_match), pct(r.trivial_hits));
  for (int t = 0; t < 4; ++t) std::printf(" %5.0f%%", pct(r.packing_hits[t]));
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = ebmf::bench::parse_options(argc, argv);
  using namespace ebmf::benchgen;

  std::printf("=== Table I: percentage of cases finding an optimal solution "
              "===\n");
  std::printf("(seed=%llu, %s run; 'proven' = cases with certified optimum; "
              "percentages over proven cases)\n\n",
              static_cast<unsigned long long>(opt.seed),
              opt.full ? "paper-scale" : "reduced");
  std::printf("%-18s %5s %5s | %5s %8s  %s\n", "benchmark", "cases", "prov",
              "rank", "trivial", "packing x1   x10  x100 x1000");
  std::printf("%s\n", std::string(86, '-').c_str());

  std::vector<RowResult> rows;

  // Random family, small sizes (SMT-provable).
  const auto small_occ = paper_occupancies_small();
  rows.push_back(evaluate(
      "10x10, rand",
      random_suite(10, 10, small_occ, opt.count(10, 4), opt.seed), true,
      opt));
  rows.push_back(evaluate(
      "10x20, rand",
      random_suite(10, 20, small_occ, opt.count(10, 3), opt.seed + 1), true,
      opt));
  rows.push_back(evaluate(
      "10x30, rand",
      random_suite(10, 30, small_occ, opt.count(10, 3), opt.seed + 2), true,
      opt));

  // Random family, 100x100 (heuristics + rank certificate only).
  rows.push_back(evaluate(
      "100x100, rand",
      random_suite(100, 100, paper_occupancies_large(), opt.count(10, 2),
                   opt.seed + 3),
      false, opt));

  // Known-optimal family.
  rows.push_back(evaluate(
      "10x10, opt",
      known_optimal_suite(10, 10, 10, opt.count(10, 3), opt.seed + 4), true,
      opt));

  // Gap family.
  for (std::size_t k : {2u, 3u, 4u, 5u}) {
    rows.push_back(evaluate(
        "10x10, gap, " + std::to_string(k),
        gap_suite(10, 10, {k}, opt.count(100, 10), opt.seed + 5 + k), true,
        opt));
  }

  for (const auto& r : rows) print_row(r);

  // Anytime tier: the large qldpc-block / neutral-atom regime.
  std::vector<AnytimeRow> anytime;
  anytime.push_back(evaluate_anytime(
      "200x200, qldpc",
      qldpc_suite(200, 200, {0.3}, opt.count(6, 2), opt.seed + 20), opt));
  anytime.push_back(evaluate_anytime(
      "1000x1000, qldpc",
      qldpc_suite(1000, 1000, {0.3}, opt.count(2, 1), opt.seed + 21), opt));
  anytime.push_back(evaluate_anytime(
      "300x300, atom",
      neutral_atom_suite(300, 300, {0.05}, opt.count(6, 2), opt.seed + 22),
      opt));
  anytime.push_back(evaluate_anytime(
      "1000x1000, atom",
      neutral_atom_suite(1000, 1000, {0.02}, opt.count(2, 1), opt.seed + 23),
      opt));

  std::printf("\n=== Anytime tier (auto, gap metrics; lower gap is "
              "better) ===\n");
  std::printf("%-18s %5s %5s %7s %9s %8s %9s\n", "benchmark", "cases",
              "valid", "optimal", "mean_gap", "max_gap", "seconds");
  for (const auto& a : anytime)
    std::printf("%-18s %5zu %5zu %7zu %9.2f %8zu %8.2fs\n", a.label.c_str(),
                a.cases, a.valid, a.optimal, a.mean_gap, a.max_gap,
                a.seconds);

  if (opt.json) {
    // One machine-readable summary line (suite wall-clocks, anytime gaps)
    // for the BENCH_sap.json trajectory; tools/bench_compare.py diffs it.
    double total = 0.0;
    for (const auto& r : rows) total += r.seconds;
    std::printf("{\"bench\":\"table1\",\"summary\":true,"
                "\"hardware_threads\":%u,\"total_seconds\":%.3f,\"suites\":[",
                std::thread::hardware_concurrency(), total);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (i != 0) std::printf(",");
      std::printf("{\"label\":\"%s\",\"cases\":%zu,\"proven\":%zu,"
                  "\"seconds\":%.3f}",
                  rows[i].label.c_str(), rows[i].cases, rows[i].proven,
                  rows[i].seconds);
    }
    std::printf("],\"anytime\":[");
    for (std::size_t i = 0; i < anytime.size(); ++i) {
      if (i != 0) std::printf(",");
      std::printf("{\"label\":\"%s\",\"cases\":%zu,\"valid\":%zu,"
                  "\"optimal\":%zu,\"mean_gap\":%.3f,\"max_gap\":%zu,"
                  "\"seconds\":%.3f}",
                  anytime[i].label.c_str(), anytime[i].cases,
                  anytime[i].valid, anytime[i].optimal, anytime[i].mean_gap,
                  anytime[i].max_gap, anytime[i].seconds);
    }
    std::printf("]}\n");
  }

  std::printf("\nPaper's shape to verify: rank column high for random "
              "(~98-100%%), 100%% for opt;\n"
              "trivial lags badly on gap (16-84%%); row packing improves "
              "monotonically with trials\nand saturates near 100%% by 100 "
              "trials; opt family is 100%% everywhere.\n");
  return 0;
}
