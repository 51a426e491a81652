// Tests for the ebmf command-line tool (via the testable cli library).

#include "cli/cli.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace ebmf::cli {
namespace {

/// Run a command capturing stdout/stderr and exit code.
struct RunResult {
  int code;
  std::string out;
  std::string err;
};

RunResult run_cli(const std::string& command,
                  const std::vector<std::string>& args) {
  std::ostringstream out, err;
  const int code = run_command(command, args, out, err);
  return {code, out.str(), err.str()};
}

/// Write a small matrix file usable across tests.
std::string write_temp_matrix(const std::string& content,
                              const std::string& name) {
  const std::string path = "/tmp/ebmf_cli_" + name + ".txt";
  std::ofstream file(path);
  file << content;
  return path;
}

TEST(Cli, UsageOnUnknownCommand) {
  const auto r = run_cli("frobnicate", {});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, SolveProducesOptimalPartition) {
  const auto path = write_temp_matrix("110\n011\n111\n", "eq2");
  const auto r = run_cli("solve", {path});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("depth 3 (proven optimal)"), std::string::npos);
  EXPECT_NE(r.out.find("partition 3 3 3"), std::string::npos);
}

TEST(Cli, SolveHeuristicOnlyFlag) {
  const auto path = write_temp_matrix("10\n01\n", "diag");
  const auto r = run_cli("solve", {path, "--heuristic-only"});
  EXPECT_EQ(r.code, 0);
  // diag is rank-certified even without SMT
  EXPECT_NE(r.out.find("depth 2"), std::string::npos);
}

TEST(Cli, SolveRenderFlagShowsLabels) {
  const auto path = write_temp_matrix("11\n11\n", "ones");
  const auto r = run_cli("solve", {path, "--render"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("00\n00"), std::string::npos);
}

TEST(Cli, SolveStrategyFlagSelectsBackend) {
  const auto path = write_temp_matrix("110\n011\n111\n", "eq2s");
  for (const char* strategy :
       {"sap", "heuristic", "trivial", "completion", "auto"}) {
    const auto r =
        run_cli("solve", {path, std::string("--strategy=") + strategy});
    EXPECT_EQ(r.code, 0) << strategy;
    EXPECT_NE(r.out.find("strategy "), std::string::npos) << strategy;
    EXPECT_NE(r.out.find("partition 3 3"), std::string::npos) << strategy;
  }
}

TEST(Cli, SolveUnknownStrategyIsUsageError) {
  const auto path = write_temp_matrix("10\n01\n", "badstrat");
  for (const std::string name : {"frobnicate", "brute", "dlx", "greedy", "local"}) {
    const auto r = run_cli("solve", {path, "--strategy=" + name});
    EXPECT_EQ(r.code, 2) << name;
    EXPECT_NE(r.err.find("unknown strategy '" + name + "'"),
              std::string::npos);
    EXPECT_NE(r.err.find("sap"), std::string::npos);  // alternatives listed
  }
}

TEST(Cli, SolveMalformedBudgetIsUsageError) {
  const auto path = write_temp_matrix("10\n01\n", "badbudget");
  for (const char* flag : {"--budget=soon", "--trials=lots", "--seed=x",
                           "--conflicts=many", "--budget=1.5zzz"}) {
    const auto r = run_cli("solve", {path, flag});
    EXPECT_EQ(r.code, 2) << flag;
    EXPECT_NE(r.err.find("invalid value"), std::string::npos) << flag;
  }
}

TEST(Cli, ScheduleMalformedFlagsAreUsageErrors) {
  const auto path = write_temp_matrix("10\n01\n", "badsched");
  EXPECT_EQ(run_cli("schedule", {path, "--budget=abc"}).code, 2);
  EXPECT_EQ(run_cli("schedule", {path, "--reconfig-us=xy"}).code, 2);
  EXPECT_EQ(run_cli("schedule", {path, "--strategy=nope"}).code, 2);
}

TEST(Cli, SolveBatchKeepsInputOrder) {
  const auto a = write_temp_matrix("110\n011\n111\n", "batch_a");
  const auto b = write_temp_matrix("10\n01\n", "batch_b");
  const auto r = run_cli("solve", {a, b, "--strategy=sap"});
  EXPECT_EQ(r.code, 0);
  const auto pos_a = r.out.find("batch_a");
  const auto pos_b = r.out.find("batch_b");
  ASSERT_NE(pos_a, std::string::npos);
  ASSERT_NE(pos_b, std::string::npos);
  EXPECT_LT(pos_a, pos_b);  // request order, not completion order
  EXPECT_NE(r.out.find("depth 3"), std::string::npos);
  EXPECT_NE(r.out.find("depth 2"), std::string::npos);
}

TEST(Cli, SolveBatchSkipsUnreadableFilesAndFails) {
  const auto good = write_temp_matrix("110\n011\n111\n", "batch_good");
  const auto r = run_cli("solve", {good, "/nonexistent/batch.txt"});
  EXPECT_EQ(r.code, 1);  // partial failure is a runtime error...
  EXPECT_NE(r.out.find("depth 3"), std::string::npos);  // ...but good
  EXPECT_NE(r.err.find("cannot open"), std::string::npos);  // files solve
}

TEST(Cli, SolveJsonEmitsOnlyJson) {
  const auto path = write_temp_matrix("110\n011\n111\n", "json");
  const auto r = run_cli("solve", {path, "--json", "--strategy=sap"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("\"status\":\"optimal\""), std::string::npos);
  EXPECT_NE(r.out.find("\"depth\":3"), std::string::npos);
  // Machine mode: no human report line mixed in (scripts pipe to jq).
  EXPECT_EQ(r.out.find("proven optimal"), std::string::npos);
  EXPECT_EQ(r.out.find("partition 3 3"), std::string::npos);
}

TEST(Cli, SolveBatchRejectsSingleFileFlags) {
  const auto a = write_temp_matrix("10\n01\n", "multi_a");
  const auto b = write_temp_matrix("11\n11\n", "multi_b");
  for (const char* flag : {"--save=/tmp/x.part", "--render", "--split"}) {
    const auto r = run_cli("solve", {a, b, flag});
    EXPECT_EQ(r.code, 2) << flag;
    EXPECT_NE(r.err.find("single matrix file"), std::string::npos) << flag;
  }
}

TEST(Cli, SolveOutOfRangeNumericsAreUsageErrors) {
  const auto path = write_temp_matrix("10\n01\n", "range");
  for (const char* flag : {"--seed=-1", "--trials=inf", "--nodes=-2"}) {
    const auto r = run_cli("solve", {path, flag});
    EXPECT_EQ(r.code, 2) << flag;
    EXPECT_NE(r.err.find("invalid value"), std::string::npos) << flag;
  }
}

TEST(Cli, SolveSplitMatchesPlainDepth) {
  const auto path = write_temp_matrix("1100\n1100\n0011\n0011\n", "split");
  const auto split = run_cli("solve", {path, "--split", "--strategy=sap"});
  EXPECT_EQ(split.code, 0);
  EXPECT_NE(split.out.find("depth 2 (proven optimal)"), std::string::npos);
}

TEST(Cli, StrategiesListsRegistry) {
  const auto r = run_cli("strategies", {});
  EXPECT_EQ(r.code, 0);
  // One "name<TAB>description" line per strategy, sorted by name.
  std::vector<std::string> names;
  std::istringstream lines(r.out);
  for (std::string line; std::getline(lines, line);)
    names.push_back(line.substr(0, line.find('\t')));
  EXPECT_EQ(names, (std::vector<std::string>{"auto", "completion", "heuristic",
                                             "sap", "trivial"}));
}

TEST(Cli, BoundsIncludesPackingUpperBound) {
  const auto path = write_temp_matrix("110\n011\n111\n", "eq2pk");
  const auto r = run_cli("bounds", {path});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("packing upper bound  3"), std::string::npos);
}

TEST(Cli, SolveMissingFileFails) {
  const auto r = run_cli("solve", {"/nonexistent/file.txt"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("error:"), std::string::npos);
}

TEST(Cli, SolveUsageError) {
  const auto r = run_cli("solve", {});
  EXPECT_EQ(r.code, 2);
}

TEST(Cli, BoundsBracketsConsistently) {
  const auto path = write_temp_matrix("110\n011\n111\n", "eq2b");
  const auto r = run_cli("bounds", {path});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("rank lower bound     3"), std::string::npos);
  EXPECT_NE(r.out.find("trivial upper bound  3"), std::string::npos);
}

TEST(Cli, FoolingExactOnFig1b) {
  const auto path = write_temp_matrix(
      "101100\n010011\n101010\n010101\n111000\n000111\n", "fig1b");
  const auto r = run_cli("fooling", {path, "--exact"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("fooling set size 5"), std::string::npos);
}

TEST(Cli, ComponentsReport) {
  const auto path = write_temp_matrix("1100\n1100\n0011\n0011\n", "blocks");
  const auto r = run_cli("components", {path});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("components 2"), std::string::npos);
  EXPECT_NE(r.out.find("reduced 2x2"), std::string::npos);
}

TEST(Cli, GenerateFamiliesAndFormats) {
  for (const char* family : {"rand", "opt", "gap"}) {
    const auto r = run_cli("generate", {family, "--rows=8", "--cols=8",
                                        "--k=2", "--seed=3"});
    EXPECT_EQ(r.code, 0) << family;
    EXPECT_FALSE(r.out.empty());
  }
  const auto sparse =
      run_cli("generate", {"rand", "--format=sparse", "--seed=4"});
  EXPECT_NE(sparse.out.find("sparse 10 10"), std::string::npos);
  const auto pbm = run_cli("generate", {"rand", "--format=pbm", "--seed=4"});
  EXPECT_NE(pbm.out.find("P1"), std::string::npos);
}

TEST(Cli, GenerateDeterministicPerSeed) {
  const auto a = run_cli("generate", {"rand", "--seed=9"});
  const auto b = run_cli("generate", {"rand", "--seed=9"});
  EXPECT_EQ(a.out, b.out);
}

TEST(Cli, GenerateRejectsUnknownFamily) {
  const auto r = run_cli("generate", {"weird"});
  EXPECT_EQ(r.code, 2);
}

TEST(Cli, ScheduleRespectsTimingFlags) {
  const auto path = write_temp_matrix("10\n01\n", "sched");
  const auto r =
      run_cli("schedule", {path, "--reconfig-us=5", "--pulse-us=1"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("depth 2"), std::string::npos);
  EXPECT_NE(r.out.find("12 us"), std::string::npos);
}

TEST(Cli, ConvertRoundTrip) {
  const auto path = write_temp_matrix("101\n110\n", "conv");
  const auto to_pbm = run_cli("convert", {path, "/tmp/ebmf_cli_conv.pbm"});
  EXPECT_EQ(to_pbm.code, 0);
  const auto back =
      run_cli("convert", {"/tmp/ebmf_cli_conv.pbm", "/tmp/ebmf_cli_back.txt"});
  EXPECT_EQ(back.code, 0);
  std::ifstream file("/tmp/ebmf_cli_back.txt");
  std::stringstream content;
  content << file.rdbuf();
  EXPECT_NE(content.str().find("101"), std::string::npos);
  EXPECT_NE(content.str().find("110"), std::string::npos);
}

TEST(Cli, SolveSaveWritesPartitionFile) {
  const auto path = write_temp_matrix("11\n11\n", "save");
  const auto r =
      run_cli("solve", {path, "--save=/tmp/ebmf_cli_saved.partition"});
  EXPECT_EQ(r.code, 0);
  std::ifstream file("/tmp/ebmf_cli_saved.partition");
  std::string first;
  std::getline(file, first);
  EXPECT_EQ(first, "partition 2 2 1");
}

TEST(Cli, SolveDontCares) {
  const auto path = write_temp_matrix("1*\n*1\n", "dc");
  const auto r = run_cli("solve", {path, "--dont-cares"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("depth 1"), std::string::npos);
}

TEST(Cli, EncodeEmitsValidDimacs) {
  const auto path = write_temp_matrix("110\n011\n111\n", "enc");
  const auto r = run_cli("encode", {path, "--bound=3"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("p cnf "), std::string::npos);
  EXPECT_NE(r.out.find("c EBMF decision problem: r_B(M) <= 3"),
            std::string::npos);
  // Binary encoding variant also works and differs in size.
  const auto rb = run_cli("encode", {path, "--bound=3", "--encoding=binary"});
  EXPECT_EQ(rb.code, 0);
  EXPECT_NE(rb.out, r.out);
}

TEST(Cli, EncodeRejectsZeroMatrix) {
  const auto path = write_temp_matrix("00\n00\n", "encz");
  const auto r = run_cli("encode", {path});
  EXPECT_EQ(r.code, 1);
}

TEST(Cli, UsageListsAllCommands) {
  const auto text = usage();
  for (const char* cmd : {"solve", "strategies", "bounds", "fooling",
                          "components", "schedule", "generate", "convert",
                          "encode"})
    EXPECT_NE(text.find(cmd), std::string::npos) << cmd;
}

}  // namespace
}  // namespace ebmf::cli
