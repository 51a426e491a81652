#include "sat/cardinality.h"

#include <algorithm>

namespace ebmf::sat {

namespace {

void amo_pairwise(Solver& s, const std::vector<Lit>& lits) {
  for (std::size_t i = 0; i < lits.size(); ++i)
    for (std::size_t j = i + 1; j < lits.size(); ++j)
      s.add_clause(lits[i].neg(), lits[j].neg());
}

/// Commander encoding: split into groups of 3, pairwise within a group,
/// commander variable per group implied by members, then recurse on
/// commanders. Linear clauses and auxiliaries.
void amo_commander(Solver& s, const std::vector<Lit>& lits) {
  if (lits.size() <= 6) {
    amo_pairwise(s, lits);
    return;
  }
  constexpr std::size_t kGroup = 3;
  std::vector<Lit> commanders;
  commanders.reserve((lits.size() + kGroup - 1) / kGroup);
  for (std::size_t g = 0; g < lits.size(); g += kGroup) {
    const std::size_t end = std::min(g + kGroup, lits.size());
    std::vector<Lit> group(lits.begin() + static_cast<std::ptrdiff_t>(g),
                           lits.begin() + static_cast<std::ptrdiff_t>(end));
    amo_pairwise(s, group);
    const Lit cmd = pos(s.new_var());
    for (Lit l : group) s.add_clause(l.neg(), cmd);  // member -> commander
    commanders.push_back(cmd);
  }
  amo_commander(s, commanders);
}

}  // namespace

void add_at_most_one(Solver& s, const std::vector<Lit>& lits,
                     AmoEncoding enc) {
  if (lits.size() <= 1) return;
  switch (enc) {
    case AmoEncoding::Pairwise:
      amo_pairwise(s, lits);
      break;
    case AmoEncoding::Commander:
      amo_commander(s, lits);
      break;
  }
}

void add_exactly_one(Solver& s, const std::vector<Lit>& lits,
                     AmoEncoding enc) {
  EBMF_EXPECTS(!lits.empty());
  s.add_clause(lits);  // at least one
  add_at_most_one(s, lits, enc);
}

}  // namespace ebmf::sat
