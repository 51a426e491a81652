#pragma once
/// \file oracle_ebmf.h
/// \brief Test oracle: exhaustive exact binary rank for tiny matrices.
///
/// Ground truth for the test suite (independent of both the SMT encoder and
/// the SAT solver, so agreement is meaningful) and for the paper's worked
/// examples (Fig. 1b needs 5 rectangles; the Eq. 2 matrix
/// needs 3 while its largest fooling set has size 2).
///
/// The search assigns rectangle labels to the 1-cells in row-major order
/// with first-occurrence canonical numbering (cell may open label k only if
/// labels 0..k-1 are in use), prunes label choices that violate the
/// rectangle closure condition (Eq. 1), and finally checks that every label
/// class is exactly a full rectangle. Exponential — intended for matrices
/// with ≲ 20 ones.

#include <optional>

#include "core/partition.h"

namespace ebmf {

/// Result of the exhaustive search.
struct BruteForceResult {
  std::size_t binary_rank = 0;  ///< Minimum number of rectangles.
  Partition partition;          ///< One optimal partition (witness).
};

/// Compute r_B(M) exactly by exhaustive search.
/// `max_rank` caps the search (0 = use the trivial upper bound). Returns
/// nullopt if max_rank was set below the true rank.
std::optional<BruteForceResult> brute_force_ebmf(const BinaryMatrix& m,
                                                 std::size_t max_rank = 0);

}  // namespace ebmf
