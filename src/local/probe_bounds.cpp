#include "local/probe_bounds.h"

#include <algorithm>

#include "core/bounds.h"
#include "core/fooling.h"
#include "support/stopwatch.h"

namespace ebmf::local {

namespace {

/// 1-count ceiling for the greedy fooling-set probe (pairwise checks).
constexpr std::size_t kFoolingOnesLimit = 1500;

/// r_B ≥ ⌈log2(D+1)⌉ when M has D distinct nonzero rows: each row's
/// rectangle membership is a distinct nonempty subset of the r rectangles.
std::size_t counting_bound(std::size_t distinct) {
  std::size_t r = 0;
  // Smallest r with 2^r − 1 ≥ distinct.
  while (((std::size_t{1} << r) - 1) < distinct) ++r;
  return r;
}

void adopt(BoundProbes& probes, std::size_t value, const char* source) {
  if (value > probes.best) {
    probes.best = value;
    probes.source = source;
  }
}

}  // namespace

BoundProbes probe_lower_bounds(const BinaryMatrix& m, const Budget& budget,
                               std::uint64_t seed) {
  Stopwatch clock;
  BoundProbes probes;
  if (m.is_zero()) {
    probes.source = "zero";
    probes.seconds = clock.seconds();
    return probes;
  }

  // The Eq. 3 rank ladder: the always-on probe.
  probes.rank = real_rank(m);
  adopt(probes, probes.rank, "rank");

  // Counting bound on rows and columns: near-free.
  if (!budget.exhausted()) {
    probes.counting =
        std::max(counting_bound(distinct_nonzero_rows(m)),
                 counting_bound(distinct_nonzero_rows(m.transposed())));
    adopt(probes, probes.counting, "counting");
  }

  // Greedy fooling set on small instances.
  if (!budget.exhausted() && m.ones_count() <= kFoolingOnesLimit) {
    probes.fooling = greedy_fooling_set(m, 4, seed).size();
    adopt(probes, probes.fooling, "fooling");
  }

  probes.seconds = clock.seconds();
  return probes;
}

}  // namespace ebmf::local
