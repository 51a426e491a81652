#pragma once
/// \file generators.h
/// \brief The paper's three benchmark families (§IV-A).
///
///  1. Random matrices with a chosen occupancy of 1s.
///  2. Known-optimal matrices: M = Σ_{i<k} c_i·r_iᵀ with pairwise-disjoint
///     rows r_i and ℝ-linearly-independent columns c_i, so
///     rank_ℝ(M) = r_B(M) = k and the k-rectangle partition is certified
///     optimal by Eq. 3.
///  3. Gap matrices: a random row r is split k ways into disjoint pairs
///     r = r'_p + r''_p; the 2k pair-rows have real rank k+1 (any single
///     pair reconstructs r; further pairs each add one direction) but
///     recombining other pairs' halves needs negative coefficients, which
///     EBMF forbids — so r_B exceeds the real rank and the rank lower bound
///     goes slack. Remaining rows are filled at 50% occupancy.
///
/// All generators take an explicit Rng and are deterministic given the seed.

#include <cstdint>
#include <optional>

#include "core/matrix.h"
#include "support/rng.h"

namespace ebmf::benchgen {

/// Family-1 instance: m×n Bernoulli(occupancy) matrix.
BinaryMatrix random_matrix(std::size_t m, std::size_t n, double occupancy,
                           Rng& rng);

/// Family-2 instance together with its certificate.
struct KnownOptimal {
  BinaryMatrix matrix;
  std::size_t optimal = 0;  ///< r_B(M) = rank_ℝ(M) = k by construction.
};

/// Generate a family-2 instance of size m×n with binary rank exactly `k`.
/// Preconditions: 1 ≤ k ≤ min(m, n). May resample internally until the
/// column set is independent (a handful of tries at these sizes).
KnownOptimal known_optimal_matrix(std::size_t m, std::size_t n, std::size_t k,
                                  Rng& rng);

/// Family-3 instance with its construction data.
struct GapInstance {
  BinaryMatrix matrix;
  std::size_t pairs = 0;       ///< k, the number of row pairs.
  std::size_t pair_rank = 0;   ///< Real rank of the 2k pair rows (= k+1).
};

/// Generate a family-3 instance: 2k split-pair rows + (m−2k) random rows.
/// Preconditions: 2 ≤ 2k ≤ m, n ≥ k+1 (enough columns to split).
GapInstance gap_matrix(std::size_t m, std::size_t n, std::size_t k, Rng& rng);

/// qLDPC 1D-memory instance (paper §V, Fig. 5b): `blocks` memory blocks in
/// a row, `width` qubit columns per block. Blocks share a limited library
/// of offset-dependent gate patterns (each block row is one library
/// entry), and half the library consists of split pairs — one base pattern
/// addressed across two pulses — which drives rank_ℝ below r_B exactly as
/// in the family-3 gap construction, but at 10^2–10^3 rows. This is the
/// anytime regime: the rank certificate goes slack and the components are
/// far past the SMT cell guard, so only the fooling set can tighten it.
BinaryMatrix qldpc_block_matrix(std::size_t blocks, std::size_t width,
                                double occupancy, Rng& rng);

/// Neutral-atom array instance: an m×n trap grid where row loading is
/// uneven — each row draws its own occupancy uniformly from
/// [0.5·occupancy, 1.5·occupancy] (clamped to 1) before Bernoulli filling,
/// modeling AOD rows that address sparse and dense atom rows alike.
BinaryMatrix neutral_atom_matrix(std::size_t m, std::size_t n,
                                 double occupancy, Rng& rng);

}  // namespace ebmf::benchgen
