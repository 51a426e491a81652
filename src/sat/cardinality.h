#pragma once
/// \file cardinality.h
/// \brief CNF encodings of cardinality constraints over literal sets.
///
/// Used by the one-hot SMT encoding (exactly-one label per matrix cell) and
/// by the don't-care completion solver. Two at-most-one encodings are
/// provided because the best choice depends on set size.

#include <vector>

#include "sat/solver.h"
#include "sat/types.h"

namespace ebmf::sat {

/// How pairwise-exclusion constraints are encoded.
enum class AmoEncoding {
  Pairwise,   ///< O(n²) binary clauses, no auxiliary variables.
  Commander,  ///< Recursive commander-variable encoding, O(n) clauses/aux.
};

/// Add clauses enforcing "at most one of `lits` is true".
/// `Pairwise` is best below ~8 literals; `Commander` beyond.
void add_at_most_one(Solver& s, const std::vector<Lit>& lits,
                     AmoEncoding enc = AmoEncoding::Pairwise);

/// Add clauses enforcing "exactly one of `lits` is true".
/// Precondition: lits is non-empty.
void add_exactly_one(Solver& s, const std::vector<Lit>& lits,
                     AmoEncoding enc = AmoEncoding::Pairwise);

}  // namespace ebmf::sat
