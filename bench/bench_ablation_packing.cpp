// Ablation A1 (DESIGN.md): the row-packing design choices the paper
// discusses in §III-B and §VI, quantified.
//
//  * shuffle vs ascending-popcount row order (the paper's rejected
//    "compromise"),
//  * basis update (lines 9-16 of Alg. 2) on vs off (the other rejected
//    compromise),
//  * trials: how quickly more shuffles close on the certified optimum.
//
// Reported per variant: % of cases matching the certified optimum, and
// total heuristic time.

#include <cstdio>
#include <vector>

#include "benchgen/suites.h"
#include "common.h"
#include "core/trivial.h"
#include "engine/engine.h"
#include "support/stopwatch.h"

namespace {

using ebmf::benchgen::Instance;
using ebmf::engine::SolveRequest;

struct Variant {
  std::string name;
  ebmf::RowOrder order = ebmf::RowOrder::Shuffle;
  bool basis_update = true;
  std::size_t trials = 1;
};

struct Tally {
  std::size_t hits = 0;
  double seconds = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const auto opt = ebmf::bench::parse_options(argc, argv);
  using namespace ebmf::benchgen;

  // Instance pool: the families where heuristic quality actually varies.
  std::vector<Instance> pool;
  for (std::size_t k : {2u, 3u, 4u, 5u})
    for (auto& inst : gap_suite(10, 10, {k}, opt.count(40, 8), opt.seed + k))
      pool.push_back(std::move(inst));
  for (auto& inst : random_suite(10, 10, {0.3, 0.5, 0.7}, opt.count(10, 5),
                                 opt.seed + 50))
    pool.push_back(std::move(inst));

  // Certified optima (engine "sap" backend).
  const ebmf::engine::Engine engine;
  std::vector<std::size_t> optimum(pool.size(), 0);
  std::size_t proven = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    auto request = SolveRequest::dense(pool[i].matrix, "sap");
    request.trials = 200;
    request.budget = opt.budget();
    const auto r = engine.solve(request);
    ebmf::bench::emit_json(opt, pool[i].family, pool[i].config, r);
    if (r.proven_optimal()) {
      optimum[i] = r.depth();
      ++proven;
    }
  }

  const std::vector<Variant> variants = {
      {"shuffle+update      x1", ebmf::RowOrder::Shuffle, true, 1},
      {"shuffle+update     x10", ebmf::RowOrder::Shuffle, true, 10},
      {"shuffle+update    x100", ebmf::RowOrder::Shuffle, true, 100},
      {"sorted+update       x1", ebmf::RowOrder::SortedByOnes, true, 1},
      {"shuffle, no update  x1", ebmf::RowOrder::Shuffle, false, 1},
      {"shuffle, no update x10", ebmf::RowOrder::Shuffle, false, 10},
      {"shuffle, no upd   x100", ebmf::RowOrder::Shuffle, false, 100},
  };

  std::printf("=== Ablation: row packing variants (paper §III-B, §VI) ===\n");
  std::printf("(%zu instances, %zu with certified optimum)\n\n", pool.size(),
              proven);
  std::printf("%-24s %10s %12s\n", "variant", "optimal", "time[ms]");
  std::printf("%s\n", std::string(48, '-').c_str());

  // Baseline: the trivial heuristic.
  {
    Tally tally;
    ebmf::Stopwatch watch;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (optimum[i] == 0) continue;
      if (ebmf::trivial_ebmf(pool[i].matrix).size() == optimum[i])
        ++tally.hits;
    }
    std::printf("%-24s %9.0f%% %12.3f\n", "trivial",
                100.0 * static_cast<double>(tally.hits) /
                    static_cast<double>(proven),
                watch.seconds() * 1e3);
  }

  for (const auto& variant : variants) {
    Tally tally;
    ebmf::Stopwatch watch;
    std::uint64_t seed = opt.seed;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (optimum[i] == 0) continue;
      auto request = SolveRequest::dense(pool[i].matrix, "heuristic");
      request.order = variant.order;
      request.basis_update = variant.basis_update;
      request.trials = variant.trials;
      request.seed = ++seed;
      request.stop_at = optimum[i];
      if (engine.solve(request).depth() == optimum[i]) ++tally.hits;
    }
    tally.seconds = watch.seconds();
    std::printf("%-24s %9.0f%% %12.3f\n", variant.name.c_str(),
                100.0 * static_cast<double>(tally.hits) /
                    static_cast<double>(proven),
                tally.seconds * 1e3);
  }

  std::printf("\nShape check: sorted and no-update variants should lose "
              "quality vs the default\n(the paper rejected both).\n");
  return 0;
}
