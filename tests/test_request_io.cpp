// Tests for the io JSON parser and the line-JSON wire request format.

#include "io/request_io.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "io/json.h"

namespace ebmf::io {
namespace {

TEST(Json, ParsesNestedDocument) {
  const auto v = json::Value::parse(
      R"({"a": [1, 2.5, -3e2], "b": {"c": "x\ny"}, "t": true, "n": null})");
  ASSERT_TRUE(v.is_object());
  const json::Value* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->size(), 3u);
  EXPECT_DOUBLE_EQ(a->at(0).as_number(), 1.0);
  EXPECT_DOUBLE_EQ(a->at(1).as_number(), 2.5);
  EXPECT_DOUBLE_EQ(a->at(2).as_number(), -300.0);
  const json::Value* b = v.find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->find("c")->as_string(), "x\ny");
  EXPECT_TRUE(v.find("t")->as_bool());
  EXPECT_TRUE(v.find("n")->is_null());
  EXPECT_EQ(v.find("absent"), nullptr);
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  const auto v = json::Value::parse("\"a\\u00e9\\u20ac\"");
  EXPECT_EQ(v.as_string(), "a\xc3\xa9\xe2\x82\xac");
}

TEST(Json, MalformedDocumentsThrowWithOffset) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2",
        "{\"a\":1,}", "nan", "[1e999]"}) {
    EXPECT_THROW((void)json::Value::parse(bad), std::runtime_error) << bad;
  }
}

TEST(Json, EscapesStraddlingAPlainRunDecode) {
  // An escape at every offset around the eight-byte plain-run steps: the
  // run before it is copied in bulk, the escape decoded, the rest resumed.
  const std::string plain = "abcdefghijklmnopqrstu";
  const std::pair<const char*, const char*> escapes[] = {
      {"\\n", "\n"},     {"\\\"", "\""},       {"\\\\", "\\"},
      {"\\/", "/"},      {"\\u0041", "A"},      {"\\u00e9", "\xc3\xa9"},
      {"\\t\\r", "\t\r"}};
  for (const auto& [wire, decoded] : escapes) {
    for (std::size_t at = 0; at <= plain.size(); ++at) {
      const std::string text =
          "\"" + plain.substr(0, at) + wire + plain.substr(at) + "\"";
      const std::string expected =
          plain.substr(0, at) + decoded + plain.substr(at);
      EXPECT_EQ(json::Value::parse(text).as_string(), expected) << text;
    }
  }
  // Bytes at and above 0x80 (UTF-8) are plain and copied as they are.
  EXPECT_EQ(json::Value::parse("\"\xc3\xa9\x7f\xff abcdefgh\xe2\x82\xac\"")
                .as_string(),
            "\xc3\xa9\x7f\xff abcdefgh\xe2\x82\xac");
}

TEST(Json, RawControlCharactersAreRejectedAtAnyOffset) {
  for (const char control : {'\0', '\x01', '\n', '\t', '\x1f'}) {
    for (std::size_t at = 0; at < 20; ++at) {
      std::string body(20, 'x');
      body[at] = control;
      EXPECT_THROW((void)json::Value::parse("\"" + body + "\""),
                   std::runtime_error)
          << "control " << static_cast<int>(control) << " at " << at;
    }
  }
  EXPECT_THROW((void)json::Value::parse("\"abcdefghijklmnop"),
               std::runtime_error);
  EXPECT_THROW((void)json::Value::parse("\"abcdefghijklmno\\"),
               std::runtime_error);
}

TEST(Json, NumberGrammarIsPinned) {
  const std::pair<const char*, double> accepted[] = {
      {"0", 0.0},        {"-0", -0.0},          {".5", 0.5},
      {"-.5", -0.5},     {"5.", 5.0},           {"01", 1.0},
      {"1e3", 1000.0},   {"1E+3", 1000.0},      {"2.5e-1", 0.25},
      {"1e-999", 0.0},   {"9e15", 9e15},        {"123456789", 123456789.0}};
  for (const auto& [text, value] : accepted) {
    const json::Value v = json::Value::parse(std::string("[") + text + "]");
    EXPECT_EQ(v.at(0).as_number(), value) << text;
    EXPECT_EQ(std::signbit(v.at(0).as_number()), std::signbit(value)) << text;
  }
  // A leading '+' is not JSON; it is refused like the other malformed
  // tokens (and overflow to infinity is refused too).
  for (const char* text : {"1e999", "-1e999", "+5", "+.5", "-", "1e", "1.2.3",
                           "--1", "-+1", ".", "e5", "1e5e5"}) {
    EXPECT_THROW((void)json::Value::parse(std::string("[") + text + "]"),
                 std::runtime_error)
        << text;
  }
}

TEST(Json, EscapeRoundTripsThroughParse) {
  const std::string nasty = "a\"b\\c\nd\te";
  const auto v = json::Value::parse("\"" + json::escape(nasty) + "\"");
  EXPECT_EQ(v.as_string(), nasty);
}

TEST(WireRequest, MinimalRequestGetsDefaults) {
  const auto wire = parse_wire_request(R"({"pattern": "110;011;111"})");
  EXPECT_EQ(wire.request.strategy, "auto");
  EXPECT_EQ(wire.request.matrix.rows(), 3u);
  EXPECT_EQ(wire.request.trials, 100u);
  EXPECT_FALSE(wire.split);
  EXPECT_FALSE(wire.include_partition);
  EXPECT_EQ(wire.budget_seconds, 0.0);
  EXPECT_FALSE(wire.request.budget.deadline.limited());
}

TEST(WireRequest, AllFieldsParse) {
  const auto wire = parse_wire_request(
      R"({"pattern": ["110", "011", "111"], "strategy": "sap",
          "label": "patch", "budget": 1.5, "conflicts": 5000, "nodes": 10,
          "trials": 7, "seed": 9, "stop_at": 2, "encoding": "binary",
          "symmetry_breaking": false, "preprocess": false,
          "split": true, "threads": 2, "include_partition": true})");
  EXPECT_EQ(wire.request.strategy, "sap");
  EXPECT_EQ(wire.request.label, "patch");
  EXPECT_DOUBLE_EQ(wire.budget_seconds, 1.5);
  EXPECT_TRUE(wire.request.budget.deadline.limited());
  EXPECT_EQ(wire.request.budget.max_conflicts, 5000);
  EXPECT_EQ(wire.request.budget.max_nodes, 10u);
  EXPECT_EQ(wire.request.trials, 7u);
  EXPECT_EQ(wire.request.seed, 9u);
  EXPECT_EQ(wire.request.stop_at, 2u);
  EXPECT_EQ(wire.request.encoding, smt::LabelEncoding::Binary);
  EXPECT_FALSE(wire.request.symmetry_breaking);
  EXPECT_FALSE(wire.request.preprocess);
  EXPECT_TRUE(wire.split);
  EXPECT_EQ(wire.threads, 2u);
  EXPECT_TRUE(wire.include_partition);
}

TEST(WireRequest, DontCareCellsMakeTheRequestMasked) {
  const auto wire = parse_wire_request(R"({"pattern": "1*;*1"})");
  ASSERT_TRUE(wire.request.masked.has_value());
  EXPECT_EQ(wire.request.strategy, "completion");
  EXPECT_EQ(wire.request.masked->dont_care_count(), 2u);
}

TEST(WireRequest, MalformedRequestsThrow) {
  for (const char* bad : {
           "not json at all",
           "[1,2,3]",                           // not an object
           R"({"strategy": "sap"})",            // missing pattern
           R"({"pattern": ""})",                // empty pattern
           R"({"pattern": "10;0"})",            // ragged rows
           R"({"pattern": "10;01", "budget": "soon"})",   // non-numeric
           R"({"pattern": "10;01", "budget": -1})",       // out of range
           R"({"pattern": "10;01", "trials": 0})",        // out of range
           R"({"pattern": "10;01", "encoding": "gray"})",
           R"({"pattern": "10;01", "semantics": "maybe"})",
           R"({"pattern": [1, 2]})",            // rows must be strings
       }) {
    EXPECT_THROW((void)parse_wire_request(bad), std::runtime_error) << bad;
  }
}

TEST(WireRequest, ProbesFieldIsRangeCheckedAndIgnored) {
  // The retired bound-race width: older clients still send it, so it
  // parses and is range-checked as untrusted input, then dropped.
  const auto wire =
      parse_wire_request(R"({"pattern":"110;011","probes":4})");
  EXPECT_EQ(wire.request.probes, 1u);
  EXPECT_EQ(wire_request_json(wire).find("\"probes\""), std::string::npos);
  for (const char* bad : {R"({"pattern":"110;011","probes":-1})",
                          R"({"pattern":"110;011","probes":4097})",
                          R"({"pattern":"110;011","probes":"all"})"})
    EXPECT_THROW((void)parse_wire_request(bad), std::runtime_error) << bad;
}

TEST(WireRequest, JsonRoundTrips) {
  const std::string line =
      R"({"pattern": "1*;*1", "strategy": "completion", "label": "l",
          "budget": 2, "trials": 3, "split": true, "include_partition": true,
          "semantics": "at-most-once"})";
  const auto wire = parse_wire_request(line);
  const auto rendered = wire_request_json(wire);
  const auto reparsed = parse_wire_request(rendered);
  EXPECT_EQ(reparsed.request.strategy, "completion");
  EXPECT_EQ(reparsed.request.label, "l");
  EXPECT_DOUBLE_EQ(reparsed.budget_seconds, 2.0);
  EXPECT_EQ(reparsed.request.trials, 3u);
  EXPECT_TRUE(reparsed.split);
  EXPECT_TRUE(reparsed.include_partition);
  EXPECT_EQ(reparsed.request.semantics,
            completion::DontCareSemantics::AtMostOnce);
  ASSERT_TRUE(reparsed.request.masked.has_value());
  EXPECT_EQ(reparsed.request.masked->dont_care_count(), 2u);
}

TEST(WireResponse, PartitionAttachesAsIndexLists) {
  engine::SolveReport report;
  report.label = "x";
  report.strategy = "auto";
  BitVec rows(2);
  rows.set(0);
  BitVec cols(2);
  cols.set(1);
  report.partition.push_back(Rectangle{rows, cols});
  report.upper_bound = 1;
  const std::string plain = wire_response_json(report, false);
  EXPECT_EQ(plain.find("partition"), std::string::npos);
  const std::string with = wire_response_json(report, true);
  EXPECT_NE(with.find("\"partition\":[{\"rows\":[0],\"cols\":[1]}]"),
            std::string::npos);
  // Both stay single-line JSON objects.
  EXPECT_EQ(with.find('\n'), std::string::npos);
  EXPECT_EQ(with.back(), '}');
  // And the splice point keeps the document well-formed.
  EXPECT_NO_THROW((void)json::Value::parse(with));
  EXPECT_NO_THROW((void)json::Value::parse(plain));
}

TEST(WireRequest, IdRoundTripsAndLeadsTheResponse) {
  const auto wire =
      parse_wire_request(R"({"pattern": "10;01", "id": 7})");
  EXPECT_EQ(wire.id, 7);
  // Absent id parses as -1 and renders nothing.
  EXPECT_EQ(parse_wire_request(R"({"pattern": "10;01"})").id, -1);
  const std::string rendered = wire_request_json(wire);
  EXPECT_EQ(rendered.rfind("{\"id\":7,", 0), 0u);
  EXPECT_EQ(parse_wire_request(rendered).id, 7);

  engine::SolveReport report;
  report.label = "x";
  const std::string response = wire_response_json(report, false, 7);
  EXPECT_EQ(response.rfind("{\"id\":7,", 0), 0u);
  EXPECT_NO_THROW((void)json::Value::parse(response));
}

TEST(WireRequest, StatsOpSkipsThePattern) {
  const auto wire = parse_wire_request(R"({"op": "stats", "id": 3})");
  EXPECT_EQ(wire.op, WireOp::Stats);
  EXPECT_EQ(wire.id, 3);
  const std::string rendered = wire_request_json(wire);
  EXPECT_EQ(rendered, "{\"id\":3,\"op\":\"stats\"}");
  EXPECT_EQ(parse_wire_request(rendered).op, WireOp::Stats);
  // Unknown verbs and solve-without-pattern still fail.
  EXPECT_THROW((void)parse_wire_request(R"({"op": "nope"})"),
               std::runtime_error);
  EXPECT_THROW((void)parse_wire_request(R"({"op": "solve"})"),
               std::runtime_error);
}

TEST(WireRequest, ClusterMembershipVerbsRoundTrip) {
  const struct {
    const char* name;
    WireOp op;
  } verbs[] = {{"join", WireOp::Join},
               {"leave", WireOp::Leave},
               {"heartbeat", WireOp::Heartbeat}};
  for (const auto& verb : verbs) {
    const std::string line = std::string("{\"id\":7,\"op\":\"") + verb.name +
                             "\",\"endpoint\":\"127.0.0.1:7441\"}";
    const WireRequest wire = parse_wire_request(line);
    EXPECT_EQ(wire.op, verb.op) << verb.name;
    EXPECT_EQ(wire.id, 7) << verb.name;
    EXPECT_EQ(wire.endpoint, "127.0.0.1:7441") << verb.name;
    // Render is canonical (id, op, endpoint): the round trip is exact.
    EXPECT_EQ(wire_request_json(wire), line) << verb.name;
  }
  // The endpoint is mandatory.
  EXPECT_THROW((void)parse_wire_request(R"({"op":"join"})"),
               std::runtime_error);
  EXPECT_THROW((void)parse_wire_request(R"({"op":"join","endpoint":""})"),
               std::runtime_error);
  EXPECT_THROW((void)parse_wire_request(R"({"op":"heartbeat"})"),
               std::runtime_error);
}

TEST(WireRequest, PutVerbRoundTripsPatternStrategyAndReport) {
  WireRequest put;
  put.op = WireOp::Put;
  put.id = 12;
  put.request.matrix = BinaryMatrix::parse("10;01");
  put.request.strategy = "sap";
  put.put_report.strategy = "sap";
  put.put_report.status = engine::Status::Optimal;
  put.put_report.lower_bound = 2;
  BitVec row0(2), row1(2), col0(2), col1(2);
  row0.set(0);
  col0.set(0);
  row1.set(1);
  col1.set(1);
  put.put_report.partition.push_back(Rectangle{row0, col0});
  put.put_report.partition.push_back(Rectangle{row1, col1});
  put.put_report.upper_bound = 2;

  const std::string line = wire_request_json(put);
  const WireRequest parsed = parse_wire_request(line);
  EXPECT_EQ(parsed.op, WireOp::Put);
  EXPECT_EQ(parsed.id, 12);
  EXPECT_TRUE(parsed.request.matrix == put.request.matrix);
  EXPECT_EQ(parsed.request.strategy, "sap");
  EXPECT_EQ(parsed.put_report.status, engine::Status::Optimal);
  EXPECT_EQ(parsed.put_report.upper_bound, 2u);
  ASSERT_EQ(parsed.put_report.partition.size(), 2u);
  EXPECT_EQ(parsed.put_report.partition[0], put.put_report.partition[0]);

  // A put without a report, with a masked pattern, or with a report whose
  // depth disagrees with its partition is rejected at parse time.
  EXPECT_THROW(
      (void)parse_wire_request(R"({"op":"put","pattern":"10;01"})"),
      std::runtime_error);
  EXPECT_THROW((void)parse_wire_request(
                   R"({"op":"put","pattern":"1*;01","strategy":"sap",)"
                   R"("report":{"status":"optimal","lower_bound":1,)"
                   R"("upper_bound":1}})"),
               std::runtime_error);
  EXPECT_THROW((void)parse_wire_request(
                   R"({"op":"put","pattern":"10;01","strategy":"sap",)"
                   R"("report":{"status":"optimal","lower_bound":1,)"
                   R"("upper_bound":2,"partition":[{"rows":[0],)"
                   R"("cols":[0]}]}})"),
               std::runtime_error);
}

TEST(WireResponse, ParsesBackIntoAReport) {
  engine::SolveReport report;
  report.label = "rt";
  report.strategy = "sap";
  report.status = engine::Status::Optimal;
  report.lower_bound = 1;
  report.total_seconds = 0.25;
  report.add_timing("smt", 0.125);
  report.add_telemetry("cache_hit", "false");
  BitVec rows(2);
  rows.set(0);
  BitVec cols(3);
  cols.set(1);
  cols.set(2);
  report.partition.push_back(Rectangle{rows, cols});
  report.upper_bound = 1;
  report.gap = 0;

  const std::string line = wire_response_json(report, true);
  const engine::SolveReport parsed = parse_wire_response(line, 2, 3);
  EXPECT_EQ(parsed.label, "rt");
  EXPECT_EQ(parsed.strategy, "sap");
  EXPECT_EQ(parsed.status, engine::Status::Optimal);
  EXPECT_EQ(parsed.lower_bound, 1u);
  EXPECT_EQ(parsed.upper_bound, 1u);
  EXPECT_EQ(parsed.gap, 0u);
  EXPECT_DOUBLE_EQ(parsed.total_seconds, 0.25);
  EXPECT_DOUBLE_EQ(parsed.timing("smt"), 0.125);
  ASSERT_NE(parsed.find_telemetry("cache_hit"), nullptr);
  ASSERT_EQ(parsed.partition.size(), 1u);
  EXPECT_EQ(parsed.partition[0], report.partition[0]);

  // Without dims the partition is skipped but the scalars survive.
  const engine::SolveReport scalars = parse_wire_response(line);
  EXPECT_TRUE(scalars.partition.empty());
  EXPECT_EQ(scalars.upper_bound, 1u);
}

TEST(WireResponse, AnytimeFieldsRoundTripAndDefault) {
  // An open-bracket anytime report keeps its incumbent (written from the
  // upper bound) and gap on the wire.
  engine::SolveReport report;
  report.strategy = "sap";
  report.status = engine::Status::Bounded;
  report.lower_bound = 75;
  report.upper_bound = 120;
  report.gap = 45;
  const std::string line = wire_response_json(report, false);
  EXPECT_NE(line.find("\"incumbent_depth\":120,"), std::string::npos) << line;
  const engine::SolveReport parsed = parse_wire_response(line);
  EXPECT_EQ(parsed.upper_bound, 120u);
  EXPECT_EQ(parsed.gap, 45u);

  // A pre-anytime peer's response (no such fields) defaults the gap to the
  // bracket width.
  const engine::SolveReport legacy = parse_wire_response(
      R"({"label":"old","strategy":"sap","status":"bounded",)"
      R"("depth":9,"lower_bound":7,"upper_bound":9,"total_seconds":0.1})");
  EXPECT_EQ(legacy.gap, 2u);
}

TEST(WireResponse, ParseRejectsGarbageAndErrors) {
  EXPECT_THROW((void)parse_wire_response("nope"), std::runtime_error);
  EXPECT_THROW((void)parse_wire_response(R"({"error": "boom"})"),
               std::runtime_error);
  // Depth/partition mismatch is rejected, not silently accepted.
  EXPECT_THROW(
      (void)parse_wire_response(
          R"({"status":"optimal","lower_bound":1,"upper_bound":2,)"
          R"("partition":[{"rows":[0],"cols":[0]}]})",
          2, 2),
      std::runtime_error);
  // Out-of-range partition indices are rejected.
  EXPECT_THROW(
      (void)parse_wire_response(
          R"({"status":"optimal","lower_bound":1,"upper_bound":1,)"
          R"("partition":[{"rows":[5],"cols":[0]}]})",
          2, 2),
      std::runtime_error);
}

TEST(WireResponse, BoundsAndIndicesMustBeExactCounts) {
  // A reply line is untrusted: a negative, huge or fractional count is
  // rejected, never cast (a cast of -1 or 1e300 to size_t is undefined).
  const char* const bad[] = {
      R"({"status":"optimal","lower_bound":-1,"upper_bound":1e300})",
      R"({"status":"optimal","lower_bound":1,"upper_bound":1e300})",
      R"({"status":"optimal","lower_bound":0.5,"upper_bound":1})",
      R"({"status":"optimal","lower_bound":1,"upper_bound":1.5})",
      R"({"status":"optimal","lower_bound":1,"upper_bound":9007199254740992})",
      R"({"status":"bounded","lower_bound":1,"upper_bound":2,"incumbent_depth":-2})",
      R"({"status":"bounded","lower_bound":1,"upper_bound":2,"gap":0.25})",
      R"({"status":"optimal","lower_bound":1,"upper_bound":1,)"
      R"("partition":[{"rows":[0.5],"cols":[0]}]})",
      R"({"status":"optimal","lower_bound":1,"upper_bound":1,)"
      R"("partition":[{"rows":[0],"cols":[-1]}]})",
  };
  for (const char* line : bad)
    EXPECT_THROW((void)parse_wire_response(line, 2, 2), std::runtime_error)
        << line;
  const engine::SolveReport largest = parse_wire_response(
      R"({"status":"bounded","lower_bound":1,)"
      R"("upper_bound":9007199254740991})");
  EXPECT_EQ(largest.upper_bound, 9007199254740991u);
  EXPECT_EQ(largest.gap, 9007199254740990u);
}

TEST(Json, ToCountAcceptsOnlyExactNonNegativeIntegers) {
  EXPECT_EQ(json::to_count(json::Value::parse("0")), 0u);
  EXPECT_EQ(json::to_count(json::Value::parse("42")), 42u);
  EXPECT_EQ(json::to_count(json::Value::parse("4.2e1")), 42u);
  EXPECT_EQ(json::to_count(json::Value::parse("9007199254740991")),
            9007199254740991u);
  for (const char* text :
       {"-1", "-0.5", "0.5", "1e300", "9007199254740992", "\"7\"", "true",
        "null", "[1]"})
    EXPECT_FALSE(json::to_count(json::Value::parse(text)).has_value()) << text;
}

}  // namespace
}  // namespace ebmf::io
