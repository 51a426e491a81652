#pragma once
/// \file bounds.h
/// \brief Upper and lower bounds on the binary rank r_B(M) that bracket the
/// SAP search (Algorithm 1).
///
///   rank_ℝ(M)  ≤  r_B(M)  ≤  min(#distinct nonzero rows, #distinct cols)
///
/// The left inequality is Eq. 3 of the paper (binary factorization is a real
/// factorization with extra constraints); the right is the trivial
/// single-row/column partition with duplicates consolidated. The rank is
/// computed by the field-rank ladder of linalg/rank.h, which never exceeds
/// rank_ℝ(M), so the bound is always sound.

#include <cstddef>

#include "core/matrix.h"

namespace ebmf {

/// Eq. 3's lower bound on r_B: the GF(2) / mod 2^31 − 1 rank ladder
/// (linalg/rank.h). Never above rank_ℝ(M); equal to it whenever
/// rank_ℝ(M) ≤ 22. There is no exact-ℚ fallback.
std::size_t real_rank(const BinaryMatrix& m);

/// Number of distinct nonzero rows of M.
std::size_t distinct_nonzero_rows(const BinaryMatrix& m);

/// The trivial upper bound: min(#distinct nonzero rows, #distinct nonzero
/// columns) — the size of the trivial heuristic's partition.
std::size_t trivial_upper_bound(const BinaryMatrix& m);

}  // namespace ebmf
