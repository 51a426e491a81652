#pragma once
/// \file probe_bounds.h
/// \brief Cheap certified lower bounds on the binary rank for the anytime
/// tier's gap reporting.
///
/// The local search cannot prove optimality on its own, so the `local`
/// strategy brackets its incumbent with the best of several fast probes.
/// All probes are *valid* lower bounds on r_B(M):
///
///  * rank: the shared Eq. 3 ladder (`real_rank`, linalg/rank.h) — GF(2)
///    word-parallel elimination, then mod 2^31 − 1 unless GF(2) is already
///    full rank. A field rank never exceeds rank_ℚ(M) ≤ r_B(M). At 1000×1000
///    it takes milliseconds when GF(2) is full rank and well under a second
///    otherwise.
///  * counting: D distinct nonzero rows map to distinct *nonempty* subsets
///    of the r rectangles, so 2^r − 1 ≥ D, i.e. r_B ≥ ⌈log2(D + 1)⌉ (dually
///    on columns).
///  * fooling set: no rectangle holds two fooling cells, so |S| ≤ r_B
///    (paper §II); probed greedily on small instances only.

#include <cstdint>
#include <string>

#include "core/matrix.h"
#include "support/budget.h"

namespace ebmf::local {

/// The individual probe results plus the best combined bound.
struct BoundProbes {
  std::size_t best = 0;      ///< max over all probes that ran — certified.
  std::string source;        ///< Name of the winning probe ("rank", …).
  std::size_t rank = 0;      ///< The Eq. 3 rank ladder; always probed.
  std::size_t counting = 0;  ///< ⌈log2(D+1)⌉ over distinct rows and columns.
  std::size_t fooling = 0;   ///< Greedy fooling-set size; 0 = skipped.
  double seconds = 0.0;      ///< Total probe wall-clock.
};

/// Run the probe ladder on `m`, checking `budget` between probes (an
/// exhausted budget returns whatever bounds completed so far — each is
/// individually certified, so a partial ladder is still sound).
BoundProbes probe_lower_bounds(const BinaryMatrix& m, const Budget& budget,
                               std::uint64_t seed = 1);

}  // namespace ebmf::local
