#pragma once
/// \file fooling.h
/// \brief Fooling sets: combinatorial lower bounds on the binary rank.
///
/// A fooling set S is a set of 1-cells such that for any two distinct
/// (i,j), (i',j') ∈ S, at least one of the crossing cells (i,j'), (i',j) is
/// a 0. No rectangle can contain two fooling cells, so |S| ≤ r_B(M)
/// (paper §II; the filled markers of Fig. 1b certify that partition's
/// optimality). The bound is not always tight — the Eq. 2 matrix has
/// r_B = 3 but maximum fooling set 2 — and the maximum fooling set problem
/// is itself hard, so we provide a greedy heuristic plus an exact
/// branch-and-bound search. SAP runs the exact one before its SAT phase:
/// a set as large as the packing proves it optimal with no formula built.
/// Fooling sets also feed Watson's tensor lower bound (Eq. 5).

#include <cstdint>
#include <utility>
#include <vector>

#include "core/matrix.h"
#include "support/budget.h"

namespace ebmf {

/// A set of 1-cells, each (row, col).
using CellSet = std::vector<std::pair<std::size_t, std::size_t>>;

/// True when `cells` is a fooling set of `m`: all cells are 1s and every
/// distinct pair has a 0 crossing cell.
bool is_fooling_set(const BinaryMatrix& m, const CellSet& cells);

/// Greedy maximal fooling set: scan 1-cells (in a seed-shuffled order) and
/// keep each cell compatible with all kept so far. Runs `trials` shuffles
/// and returns the largest set found. Result size ≤ φ(M) ≤ r_B(M).
CellSet greedy_fooling_set(const BinaryMatrix& m, std::size_t trials = 16,
                           std::uint64_t seed = 1);

/// Exact maximum fooling set φ(M), found as a maximum clique of the
/// fooling-compatibility graph by word-parallel branch and bound. The graph
/// is never stored: a cell's clash set is the AND of one row of each of two
/// tables, (rows + cols)·⌈cells/64⌉ words in all, built from the row and
/// column supports. Only sets larger than `floor` are sought, and the
/// search stops once it holds `target` cells (0 = run to the maximum); a
/// completed search returning at most `floor` cells proves φ ≤ floor.
/// `budget` bounds the work (deadline and cancel polled as the search
/// works, `max_nodes`); on exhaustion the best set so far is returned —
/// maximal, and always a valid fooling set.
CellSet max_fooling_set(const BinaryMatrix& m, const Budget& budget = {},
                        std::size_t floor = 0, std::size_t target = 0);

}  // namespace ebmf
