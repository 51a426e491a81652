// Tests for the compact JSON document (io::json::Value): value semantics of
// the out-of-line nodes, member order and lookup, the parser's limits, and
// byte-exact round trips of the served reply through it.

#include "io/json.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "benchgen/generators.h"
#include "engine/engine.h"
#include "ftqc/patterns.h"
#include "io/request_io.h"
#include "support/rng.h"

namespace ebmf::io::json {
namespace {

/// Compact JSON text of a document (numbers via json::number), so two
/// documents compare by their whole content.
std::string render(const Value& v) {
  switch (v.type()) {
    case Value::Type::Null:
      return "null";
    case Value::Type::Bool:
      return v.as_bool() ? "true" : "false";
    case Value::Type::Number:
      return number(v.as_number());
    case Value::Type::String:
      return "\"" + escape(v.as_string()) + "\"";
    case Value::Type::Array: {
      std::string out = "[";
      for (std::size_t i = 0; i < v.size(); ++i)
        out += (i == 0 ? "" : ",") + render(v.at(i));
      return out + "]";
    }
    case Value::Type::Object: {
      std::string out = "{";
      for (const auto& [key, member] : v.members())
        out += (out.size() == 1 ? "\"" : ",\"") + escape(key) +
               "\":" + render(member);
      return out + "}";
    }
  }
  return "?";
}

constexpr const char* kDocument =
    R"({"s":"text with \"quotes\" and a long enough tail","n":-2.5,)"
    R"("b":true,"z":null,"a":[1,[2,{"k":"v"}],[]],"o":{"x":{"y":[3]}},"e":{}})";

TEST(JsonDom, NodesAreCompact) { EXPECT_LE(sizeof(Value), 24u); }

TEST(JsonDom, CopiesAreDeepAndIndependent) {
  const std::string text = kDocument;
  Value copy;
  {
    const Value original = Value::parse(text);
    copy = original;
    const Value constructed(original);  // NOLINT(performance-unnecessary-copy-initialization)
    EXPECT_EQ(render(constructed), render(original));
  }
  // The original is gone; the copy owns all of its nodes.
  EXPECT_EQ(render(copy), text);
  Value self = Value::parse(text);
  const Value& alias = self;
  self = alias;
  EXPECT_EQ(render(self), text);
}

TEST(JsonDom, MovesTransferAndLeaveNull) {
  const std::string text = kDocument;
  Value source = Value::parse(text);
  Value moved(std::move(source));
  EXPECT_EQ(render(moved), text);
  EXPECT_TRUE(source.is_null());  // NOLINT(bugprone-use-after-move)
  Value assigned = Value::parse("[1,2]");
  assigned = std::move(moved);
  EXPECT_EQ(render(assigned), text);
  EXPECT_TRUE(moved.is_null());  // NOLINT(bugprone-use-after-move)
  std::vector<Value> many;
  for (int i = 0; i < 100; ++i) many.push_back(Value::parse(text));
  for (const Value& v : many) EXPECT_EQ(render(v), text);
}

TEST(JsonDom, MembersKeepDocumentOrder) {
  const Value v = Value::parse(R"({"zeta":1,"alpha":2,"mid":3,"beta":4})");
  std::vector<std::string> keys;
  std::vector<double> values;
  for (const auto& [key, member] : v.members()) {
    keys.push_back(key);
    values.push_back(member.as_number());
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"zeta", "alpha", "mid", "beta"}));
  EXPECT_EQ(values, (std::vector<double>{1, 2, 3, 4}));
  EXPECT_TRUE(Value::parse("{}").members().empty());
  EXPECT_THROW((void)Value::parse("[1]").members(), std::runtime_error);
}

TEST(JsonDom, FindReturnsTheFirstOfEqualKeys) {
  const Value v = Value::parse(R"({"k":1,"other":0,"k":2})");
  ASSERT_NE(v.find("k"), nullptr);
  EXPECT_EQ(v.find("k")->as_number(), 1.0);
  EXPECT_EQ(v.members().size(), 3u);
  EXPECT_EQ(Value::parse("[1]").find("k"), nullptr);
  EXPECT_EQ(v.find("kk"), nullptr);
}

TEST(JsonDom, NestingStopsAtSixtyFourLevels) {
  // The document is depth 0; a value at depth 65 is refused.
  const auto nested = [](std::size_t levels) {
    return std::string(levels, '[') + std::string(levels, ']');
  };
  EXPECT_NO_THROW((void)Value::parse(nested(65)));
  EXPECT_THROW((void)Value::parse(nested(66)), std::runtime_error);
  EXPECT_NO_THROW((void)Value::parse(nested(64).insert(64, "0")));
  EXPECT_THROW((void)Value::parse(nested(65).insert(65, "0")),
               std::runtime_error);
  std::string objects;
  for (int i = 0; i < 65; ++i) objects += "{\"k\":";
  EXPECT_THROW((void)Value::parse(objects + "0" + std::string(65, '}')),
               std::runtime_error);
}

TEST(JsonDom, HundredThousandElementArray) {
  std::string text = "[";
  for (int i = 0; i < 100000; ++i) text += (i == 0 ? "" : ",") + std::to_string(i);
  text += "]";
  const Value v = Value::parse(text);
  ASSERT_EQ(v.size(), 100000u);
  EXPECT_EQ(v.at(0).as_number(), 0.0);
  EXPECT_EQ(v.at(54321).as_number(), 54321.0);
  EXPECT_EQ(v.at(99999).as_number(), 99999.0);
  const Value copy = v;
  EXPECT_EQ(copy.at(99999).as_number(), 99999.0);
}

TEST(JsonDom, AtPastTheEndThrows) {
  const Value v = Value::parse("[1,2,3]");
  EXPECT_EQ(v.at(2).as_number(), 3.0);
  EXPECT_THROW((void)v.at(3), std::out_of_range);
  EXPECT_THROW((void)Value::parse("[]").at(0), std::out_of_range);
  EXPECT_THROW((void)Value::parse("{}").at(0), std::runtime_error);
  EXPECT_THROW((void)Value::parse("7").size(), std::runtime_error);
}

/// The warm-routed traffic's base patterns at the physical level:
/// kron(pattern, d=4 checkerboard patch).
std::vector<BinaryMatrix> served_patterns() {
  Rng rng(2024);
  std::vector<BinaryMatrix> logical = {ftqc::boundary_row_patch(13, 5),
                                       ftqc::checkerboard_patch(12, 0),
                                       ftqc::checkerboard_patch(12, 1)};
  logical.push_back(ftqc::logical_pattern(48, 48, 0.04, rng));
  logical.push_back(ftqc::qldpc_block_pattern(12, 18, 0.3, rng));
  logical.push_back(
      BinaryMatrix::kron(ftqc::logical_pattern(4, 4, 0.5, rng),
                         ftqc::checkerboard_patch(3, 0)));
  logical.push_back(benchgen::gap_matrix(20, 20, 6, rng).matrix);
  std::vector<BinaryMatrix> out;
  for (const BinaryMatrix& m : logical)
    out.push_back(BinaryMatrix::kron(m, ftqc::checkerboard_patch(4, 0)));
  return out;
}

TEST(JsonDom, ServedRepliesRoundTripByteForByte) {
  const engine::Engine engine;
  for (const BinaryMatrix& pattern : served_patterns()) {
    auto request = engine::SolveRequest::dense(pattern, "heuristic");
    request.trials = 20;
    request.label = "served \"family\"";
    const engine::SolveReport report = engine.solve(request);
    const std::string line = wire_response_json(report, true, 42);
    const engine::SolveReport parsed =
        parse_wire_response(line, pattern.rows(), pattern.cols());
    EXPECT_EQ(parsed.label, report.label);
    EXPECT_EQ(parsed.strategy, report.strategy);
    EXPECT_EQ(parsed.status, report.status);
    EXPECT_EQ(parsed.lower_bound, report.lower_bound);
    EXPECT_EQ(parsed.upper_bound, report.upper_bound);
    EXPECT_EQ(parsed.gap, report.gap);
    EXPECT_EQ(parsed.partition, report.partition);
    EXPECT_TRUE(validate_partition(pattern, parsed.partition).ok);
    // Numbers were rendered at 6 significant digits, so the parsed report
    // renders to the very same line.
    EXPECT_EQ(wire_response_json(parsed, true, 42), line);
    EXPECT_EQ(render(Value::parse(line)).size(), line.size());
  }
}

}  // namespace
}  // namespace ebmf::io::json
