#pragma once
/// \file rank.h
/// \brief The rank ladder behind Eq. 3 of the paper, for 0/1 matrices given
/// as bit-vector rows.
///
/// Eq. 3 — rank_ℝ(M) ≤ r_B(M) — is the lower bound that lets Algorithm 1
/// (SAP) stop and certify optimality. For an integer matrix the rank over
/// any prime field is at most the rank over ℚ (= over ℝ): a minor that
/// vanishes over ℚ vanishes mod p. So every rung below is a *sound* lower
/// bound on r_B, and so is `real_rank`, their maximum.
///
/// `real_rank` is also *exact* whenever rank_ℚ(M) ≤ 22. A nonzero r×r minor
/// of a 0/1 matrix is bounded by Hadamard's (r+1)^((r+1)/2) / 2^r, which at
/// r = 22 is 1.09e9 < 2^31 − 1; so it stays nonzero mod p and the mod-p rung
/// reaches it. Above 22 the ladder can only undercount when p divides every
/// maximal nonzero minor, and it never reports less than min(rank_ℚ, 22).
/// There is no exact-ℚ fallback.

#include <cstddef>
#include <vector>

#include "support/bitvec.h"

namespace ebmf {

/// Rank over GF(2): word-parallel row echelon on one flat word buffer.
/// Rows are BitVecs of equal length `cols`.
///
/// Note: GF(2) rank is *neither* the paper's rank_ℝ *nor* the binary rank
/// r_B. It is a sound lower bound on both, and it can fall below rank_ℝ
/// (e.g. the parity matrix 011;101;110 has GF(2) rank 2, rank_ℝ 3).
std::size_t rank_gf2(const std::vector<BitVec>& rows, std::size_t cols);

/// Rank over GF(2^31 − 1): row echelon on one flat uint32 buffer with
/// Mersenne shift-add reduction, eliminating below the pivot only.
/// Always ≤ rank over ℚ, and equal to it when that rank is ≤ 22.
std::size_t rank_mod_p(const std::vector<BitVec>& rows, std::size_t cols);

/// The Eq. 3 lower bound: GF(2) first, returned when it already reaches
/// min(m, n); otherwise max(GF(2) rank, mod-p rank). Always ≤ rank_ℚ(M)
/// (hence ≤ r_B), exact when rank_ℚ(M) ≤ 22.
std::size_t real_rank(const std::vector<BitVec>& rows, std::size_t cols);

}  // namespace ebmf
