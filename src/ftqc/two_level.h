#pragma once
/// \file two_level.h
/// \brief Two-level (logical ⊗ physical) solving and the §V bounds.

#include "core/fooling.h"
#include "engine/engine.h"
#include "ftqc/tensor.h"

namespace ebmf::ftqc {

/// Result of solving a two-level addressing problem.
struct TwoLevelResult {
  engine::SolveReport logical;   ///< Facade solve of M̂.
  engine::SolveReport physical;  ///< Facade solve of M.
  Partition product_partition;   ///< Tensor of the two partitions.
  std::size_t upper_bound = 0;  ///< |logical|·|physical| ≥ r_B(M̂⊗M).
  std::size_t lower_bound = 0;  ///< Watson's Eq. 5 fooling-set bound.
  std::size_t phi_logical = 0;  ///< φ(M̂) used in the bound.
  std::size_t phi_physical = 0; ///< φ(M) used in the bound.

  /// True when Eq. 5 already certifies the product partition optimal for
  /// the tensor problem (lower == upper).
  [[nodiscard]] bool certified_optimal() const noexcept {
    return lower_bound == upper_bound;
  }
};

/// Solve M̂ and M independently through the engine facade and combine
/// (paper §V). `base` supplies the strategy, budget, and knobs used for
/// both factors, and the budget of both φ searches (its matrix/mask fields
/// are ignored); the default request runs the "auto" portfolio. The
/// product partition is a valid EBMF of kron(logical, physical); the
/// result carries the Eq. 5 bracket around the true tensor binary rank.
TwoLevelResult solve_two_level(const BinaryMatrix& logical,
                               const BinaryMatrix& physical,
                               const engine::SolveRequest& base = {});

/// Watson's lower bound (Eq. 5) given per-factor solutions.
std::size_t watson_lower_bound(std::size_t rb_logical, std::size_t phi_logical,
                               std::size_t rb_physical,
                               std::size_t phi_physical);

}  // namespace ebmf::ftqc
