#pragma once
/// \file oracle_sat.h
/// \brief Test oracle: a tiny reference SAT procedure (DPLL without
/// learning) that cross-checks the CDCL solver on small random formulas.
///
/// Deliberately independent of the Solver class: different data structures,
/// different search order, no shared code — so agreement between the two is
/// meaningful evidence of correctness.

#include <optional>
#include <vector>

#include "sat/dimacs.h"
#include "sat/types.h"

namespace ebmf::sat {

/// Decide satisfiability of `cnf` by plain DPLL with unit propagation.
/// Returns a model (one bool per variable) when satisfiable, std::nullopt
/// when not. Exponential; intended for #vars ≲ 30.
std::optional<std::vector<bool>> brute_force_sat(const Cnf& cnf);

/// Check a model against a CNF (every clause has a true literal).
bool model_satisfies(const Cnf& cnf, const std::vector<bool>& model);

}  // namespace ebmf::sat
