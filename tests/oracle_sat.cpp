#include "oracle_sat.h"

#include <algorithm>

namespace ebmf::sat {

namespace {

/// Assignment state: -1 unassigned, 0 false, 1 true.
using Assign = std::vector<signed char>;

bool dpll(const std::vector<Clause>& clauses, Assign& a) {
  // Unit propagation to fixpoint.
  std::vector<std::pair<Var, signed char>> trail;  // for undo
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& c : clauses) {
      int unassigned = 0;
      Lit unit;
      bool satisfied = false;
      for (Lit l : c) {
        const signed char v = a[static_cast<std::size_t>(l.var())];
        if (v < 0) {
          ++unassigned;
          unit = l;
        } else if ((v == 1) != l.sign()) {
          satisfied = true;
          break;
        }
      }
      if (satisfied) continue;
      if (unassigned == 0) {  // conflict
        for (auto& [var, old] : trail) a[static_cast<std::size_t>(var)] = old;
        return false;
      }
      if (unassigned == 1) {
        trail.emplace_back(unit.var(), a[static_cast<std::size_t>(unit.var())]);
        a[static_cast<std::size_t>(unit.var())] = unit.sign() ? 0 : 1;
        changed = true;
      }
    }
  }
  // Pick an unassigned variable.
  Var branch = kNoVar;
  for (std::size_t v = 0; v < a.size(); ++v)
    if (a[v] < 0) {
      branch = static_cast<Var>(v);
      break;
    }
  if (branch == kNoVar) return true;  // all assigned, no conflict
  for (signed char val : {1, 0}) {
    a[static_cast<std::size_t>(branch)] = val;
    if (dpll(clauses, a)) return true;
  }
  a[static_cast<std::size_t>(branch)] = -1;
  for (auto& [var, old] : trail) a[static_cast<std::size_t>(var)] = old;
  return false;
}

}  // namespace

std::optional<std::vector<bool>> brute_force_sat(const Cnf& cnf) {
  Assign a(cnf.num_vars, -1);
  for (const auto& c : cnf.clauses)
    if (c.empty()) return std::nullopt;
  if (!dpll(cnf.clauses, a)) return std::nullopt;
  std::vector<bool> model(cnf.num_vars);
  for (std::size_t v = 0; v < cnf.num_vars; ++v) model[v] = a[v] == 1;
  return model;
}

bool model_satisfies(const Cnf& cnf, const std::vector<bool>& model) {
  for (const auto& c : cnf.clauses) {
    bool sat = false;
    for (Lit l : c) {
      if (static_cast<std::size_t>(l.var()) >= model.size()) return false;
      if (model[static_cast<std::size_t>(l.var())] != l.sign()) {
        sat = true;
        break;
      }
    }
    if (!sat) return false;
  }
  return true;
}

}  // namespace ebmf::sat
