// DIMACS round-trip and error handling tests.

#include "sat/dimacs.h"

#include <gtest/gtest.h>

#include <sstream>

#include "oracle_sat.h"
#include "sat/solver.h"

namespace ebmf::sat {
namespace {

TEST(Dimacs, ParseSimple) {
  const auto cnf = parse_dimacs("c a comment\np cnf 3 2\n1 -2 0\n2 3 0\n");
  EXPECT_EQ(cnf.num_vars, 3u);
  ASSERT_EQ(cnf.clauses.size(), 2u);
  EXPECT_EQ(cnf.clauses[0].size(), 2u);
  EXPECT_EQ(cnf.clauses[0][0], pos(0));
  EXPECT_EQ(cnf.clauses[0][1], neg(1));
  EXPECT_EQ(cnf.clauses[1][0], pos(1));
  EXPECT_EQ(cnf.clauses[1][1], pos(2));
}

TEST(Dimacs, ClauseSpanningLines) {
  const auto cnf = parse_dimacs("p cnf 2 1\n1\n2 0\n");
  ASSERT_EQ(cnf.clauses.size(), 1u);
  EXPECT_EQ(cnf.clauses[0].size(), 2u);
}

TEST(Dimacs, RejectsMissingHeader) {
  EXPECT_THROW((void)parse_dimacs("1 2 0\n"), std::runtime_error);
}

TEST(Dimacs, RejectsWrongFormatTag) {
  EXPECT_THROW((void)parse_dimacs("p sat 3 1\n1 0\n"), std::runtime_error);
}

TEST(Dimacs, RejectsOutOfRangeVariable) {
  EXPECT_THROW((void)parse_dimacs("p cnf 2 1\n3 0\n"), std::runtime_error);
}

TEST(Dimacs, RejectsUnterminatedClause) {
  EXPECT_THROW((void)parse_dimacs("p cnf 2 1\n1 2\n"), std::runtime_error);
}

TEST(Dimacs, RejectsClauseCountMismatch) {
  EXPECT_THROW((void)parse_dimacs("p cnf 2 2\n1 0\n"), std::runtime_error);
}

TEST(Dimacs, WriteParseRoundTrip) {
  Cnf cnf;
  cnf.num_vars = 4;
  cnf.clauses = {{pos(0), neg(3)}, {neg(1), pos(2), pos(3)}, {neg(0)}};
  std::ostringstream out;
  write_dimacs(out, cnf);
  const auto parsed = parse_dimacs(out.str());
  EXPECT_EQ(parsed.num_vars, cnf.num_vars);
  ASSERT_EQ(parsed.clauses.size(), cnf.clauses.size());
  for (std::size_t i = 0; i < cnf.clauses.size(); ++i)
    EXPECT_EQ(parsed.clauses[i], cnf.clauses[i]);
}

TEST(Dimacs, ParsedFormulaSolvesConsistently) {
  const auto cnf =
      parse_dimacs("p cnf 4 5\n1 2 0\n-1 3 0\n-2 -3 0\n-3 4 0\n-4 -1 0\n");
  Solver s;
  for (std::size_t v = 0; v < cnf.num_vars; ++v) (void)s.new_var();
  for (const auto& c : cnf.clauses) s.add_clause(c);
  const auto reference = brute_force_sat(cnf);
  EXPECT_EQ(s.solve() == SolveResult::Sat, reference.has_value());
}

}  // namespace
}  // namespace ebmf::sat
