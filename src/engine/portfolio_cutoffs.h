#pragma once
// Generated by tools/fit_portfolio.py — do not edit by hand.
//
// Fitted size/density thresholds for the "auto" portfolio, derived from a
// `bench_table1 --json` trajectory: every instance the exact tier (sap)
// certified within budget is a win at its 1-count, every open bracket a
// loss, and the cutoffs sit on the win/loss boundary per density class.
// Regenerate after a solver or hardware change:
//
//   ./build/bench_table1 --json > fit.jsonl
//   python3 tools/fit_portfolio.py fit.jsonl -o src/engine/portfolio_cutoffs.h
//
// Fit provenance: dense: 127 wins / 5 losses -> exact 300, sparse: 14 wins / 0 losses -> exact 30000

#include <cstddef>

namespace ebmf::engine {

/// Density (ones/(m·n)) at or below which preprocessing reliably shatters
/// the pattern into SMT-feasible components.
inline constexpr double kFitSparseDensity = 0.08;

/// Dense exact tier: sequential SAP up to this many 1-cells; past it
/// SAP with an auto-width bound race.
inline constexpr std::size_t kFitExactDenseOnes = 300;

/// Sparse exact tier: sequential SAP up to this many 1-cells; past it
/// SAP with an auto-width bound race.
inline constexpr std::size_t kFitExactSparseOnes = 30000;

}  // namespace ebmf::engine
