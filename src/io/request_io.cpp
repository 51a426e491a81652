// Parsing and rendering of the line-JSON solve-request protocol.

#include "io/request_io.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "io/json.h"

namespace ebmf::io {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("request: " + what);
}

/// A finite number field within [min, max]; `fallback` when absent.
double number_field(const json::Value& object, const char* key,
                    double fallback, double min, double max) {
  const json::Value* field = object.find(key);
  if (field == nullptr) return fallback;
  if (!field->is_number()) fail(std::string("field '") + key + "' must be a number");
  const double value = field->as_number();
  if (!(value >= min && value <= max))
    fail(std::string("field '") + key + "' out of range");
  return value;
}

bool bool_field(const json::Value& object, const char* key, bool fallback) {
  const json::Value* field = object.find(key);
  if (field == nullptr) return fallback;
  if (!field->is_bool()) fail(std::string("field '") + key + "' must be a bool");
  return field->as_bool();
}

std::string string_field(const json::Value& object, const char* key,
                         const std::string& fallback) {
  const json::Value* field = object.find(key);
  if (field == nullptr) return fallback;
  if (!field->is_string())
    fail(std::string("field '") + key + "' must be a string");
  return field->as_string();
}

/// The pattern field as a ';'-joined row text (string or array form). The
/// string form is returned in place; only the array form is joined, into
/// `joined`.
const std::string& pattern_text(const json::Value& object,
                                std::string& joined) {
  const json::Value* field = object.find("pattern");
  if (field == nullptr) fail("missing required field 'pattern'");
  if (field->is_string()) {
    if (field->as_string().empty()) fail("field 'pattern' is empty");
    return field->as_string();
  }
  if (field->is_array()) {
    if (field->size() == 0) fail("field 'pattern' is empty");
    for (std::size_t i = 0; i < field->size(); ++i) {
      if (!field->at(i).is_string())
        fail("field 'pattern' rows must be strings");
      if (i != 0) joined += ';';
      joined += field->at(i).as_string();
    }
    return joined;
  }
  fail("field 'pattern' must be a string or an array of row strings");
}

bool has_dont_care_cells(const std::string& text) {
  return text.find('*') != std::string::npos ||
         text.find('x') != std::string::npos;
}

}  // namespace

WireRequest parse_wire_request(const std::string& line) {
  json::Value document;
  try {
    document = json::Value::parse(line);
  } catch (const std::exception& e) {
    fail(e.what());
  }
  if (!document.is_object()) fail("a request must be a JSON object");

  WireRequest wire;
  engine::SolveRequest& request = wire.request;

  const std::string op = string_field(document, "op", "solve");
  if (op == "trace") {
    // Trace query: "id" is the 32-hex trace id, not the numeric
    // correlation id every other verb uses.
    wire.op = WireOp::Trace;
    wire.trace_id = string_field(document, "id", "");
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
    if (!obs::parse_trace_id(wire.trace_id, &hi, &lo))
      fail("'trace' needs an 'id' of 32 hex digits");
    return wire;
  }

  wire.id = static_cast<std::int64_t>(
      number_field(document, "id", -1.0, -1.0, 9e15));

  if (op == "stats") {
    // Admin verb: no pattern, no solve knobs — counters come back.
    wire.op = WireOp::Stats;
    return wire;
  }
  if (op == "traces") {
    wire.op = WireOp::Traces;
    return wire;
  }
  if (op == "metrics") {
    wire.op = WireOp::Metrics;
    wire.scope = string_field(document, "scope", "");
    return wire;
  }
  if (op == "watch") {
    // Live-progress subscription: "id" names the in-flight request to
    // follow (the correlation id its solve line carried).
    wire.op = WireOp::Watch;
    if (wire.id < 0) fail("'watch' needs the 'id' of an in-flight request");
    return wire;
  }
  if (op == "events") {
    wire.op = WireOp::Events;
    return wire;
  }
  if (op == "peer.hello" || op == "peer.lease" || op == "peer.sync") {
    // Router-fleet peer verbs: sender endpoint + lease term, and for sync
    // the replicated snapshot (member table, epoch, promoted hot keys).
    wire.op = op == "peer.hello"   ? WireOp::PeerHello
              : op == "peer.lease" ? WireOp::PeerLease
                                   : WireOp::PeerSync;
    wire.endpoint = string_field(document, "endpoint", "");
    if (wire.endpoint.empty())
      fail("'" + op + "' needs an 'endpoint' (\"host:port\")");
    wire.term = static_cast<std::uint64_t>(
        number_field(document, "term", 0.0, 0.0, 9e15));
    if (wire.op != WireOp::PeerSync) return wire;
    wire.peer_epoch = static_cast<std::uint64_t>(
        number_field(document, "epoch", 0.0, 0.0, 9e15));
    if (const json::Value* members = document.find("members")) {
      if (!members->is_array()) fail("'members' must be an array");
      for (std::size_t i = 0; i < members->size(); ++i) {
        const json::Value& entry = members->at(i);
        if (!entry.is_object()) fail("'members' entries must be objects");
        WirePeerMember member;
        member.endpoint = string_field(entry, "endpoint", "");
        if (member.endpoint.empty())
          fail("'members' entries need an 'endpoint'");
        member.is_static = bool_field(entry, "static", false);
        wire.peer_members.push_back(std::move(member));
      }
    }
    if (const json::Value* promoted = document.find("promoted")) {
      if (!promoted->is_array()) fail("'promoted' must be an array");
      for (std::size_t i = 0; i < promoted->size(); ++i) {
        if (!promoted->at(i).is_string())
          fail("'promoted' keys must be 16-hex strings");
        const std::string& hex = promoted->at(i).as_string();
        std::uint64_t key = 0;
        if (hex.empty() || hex.size() > 16) fail("bad 'promoted' key");
        for (const char c : hex) {
          if (c >= '0' && c <= '9')
            key = key * 16 + static_cast<std::uint64_t>(c - '0');
          else if (c >= 'a' && c <= 'f')
            key = key * 16 + static_cast<std::uint64_t>(c - 'a' + 10);
          else
            fail("bad 'promoted' key");
        }
        wire.promoted_keys.push_back(key);
      }
    }
    return wire;
  }
  if (op == "join" || op == "leave" || op == "heartbeat") {
    // Cluster membership verbs: just the announcing backend's endpoint.
    wire.op = op == "join" ? WireOp::Join
              : op == "leave" ? WireOp::Leave
                              : WireOp::Heartbeat;
    wire.endpoint = string_field(document, "endpoint", "");
    if (wire.endpoint.empty())
      fail("'" + op + "' needs an 'endpoint' (\"host:port\")");
    return wire;
  }
  if (op == "put") {
    // Replica cache write: canonical pattern + strategy + full report.
    wire.op = WireOp::Put;
    std::string joined;
    const std::string& pattern = pattern_text(document, joined);
    if (has_dont_care_cells(pattern)) fail("'put' patterns must be dense");
    try {
      request.matrix = BinaryMatrix::parse(pattern);
    } catch (const std::exception& e) {
      fail(std::string("bad pattern: ") + e.what());
    }
    request.strategy = string_field(document, "strategy", "auto");
    const json::Value* report = document.find("report");
    if (report == nullptr || !report->is_object())
      fail("'put' needs a 'report' object");
    try {
      wire.put_report = parse_wire_response(*report, request.matrix.rows(),
                                            request.matrix.cols());
    } catch (const std::exception& e) {
      fail(std::string("bad report: ") + e.what());
    }
    return wire;
  }
  if (op != "solve")
    fail("field 'op' must be solve|stats|join|leave|heartbeat|put|trace|"
         "traces|metrics|watch|events|peer.hello|peer.lease|peer.sync");

  // Optional distributed-tracing context; absent on legacy requests.
  if (const json::Value* trace = document.find("trace")) {
    if (!obs::parse_trace_context(*trace, &wire.trace))
      fail("field 'trace' must be {\"id\":\"<32 hex>\"[,\"span\":...]}");
    wire.has_trace = true;
  }

  std::string joined;
  const std::string& pattern = pattern_text(document, joined);
  const bool masked = has_dont_care_cells(pattern);
  try {
    if (masked)
      request.masked = completion::MaskedMatrix::parse(pattern);
    else
      request.matrix = BinaryMatrix::parse(pattern);
  } catch (const std::exception& e) {
    fail(std::string("bad pattern: ") + e.what());
  }

  request.strategy =
      string_field(document, "strategy", masked ? "completion" : "auto");
  request.label = string_field(document, "label", "");

  wire.budget_seconds =
      number_field(document, "budget", 0.0, 0.0, 86400.0 * 365);
  if (wire.budget_seconds > 0)
    request.budget.deadline = Deadline::after(wire.budget_seconds);
  request.budget.max_conflicts = static_cast<std::int64_t>(
      number_field(document, "conflicts", -1.0, -1.0, 9e15));
  request.budget.max_nodes = static_cast<std::uint64_t>(
      number_field(document, "nodes", 0.0, 0.0, 9e15));

  // Retired SMT bound-race width: still range-checked, then ignored.
  number_field(document, "probes", 1.0, 0.0, 4096.0);

  request.trials = static_cast<std::size_t>(
      number_field(document, "trials", 100.0, 1.0, 1e9));
  request.seed =
      static_cast<std::uint64_t>(number_field(document, "seed", 1.0, 0.0, 9e15));
  request.stop_at = static_cast<std::size_t>(
      number_field(document, "stop_at", 0.0, 0.0, 9e15));

  const std::string encoding = string_field(document, "encoding", "onehot");
  if (encoding == "binary")
    request.encoding = smt::LabelEncoding::Binary;
  else if (encoding != "onehot")
    fail("field 'encoding' must be onehot|binary");
  request.symmetry_breaking = bool_field(document, "symmetry_breaking", true);
  request.preprocess = bool_field(document, "preprocess", true);

  const std::string semantics = string_field(document, "semantics", "free");
  if (semantics == "at-most-once")
    request.semantics = completion::DontCareSemantics::AtMostOnce;
  else if (semantics != "free")
    fail("field 'semantics' must be free|at-most-once");

  wire.split = bool_field(document, "split", false);
  wire.threads = static_cast<std::size_t>(
      number_field(document, "threads", 0.0, 0.0, 4096.0));
  wire.include_partition = bool_field(document, "include_partition", false);
  return wire;
}

namespace {

/// Pattern rows joined with ';' ('*' marks don't-care cells).
std::string render_pattern(const engine::SolveRequest& request) {
  std::string text;
  if (request.masked) {
    const completion::MaskedMatrix& m = *request.masked;
    for (std::size_t i = 0; i < m.rows(); ++i) {
      if (i != 0) text += ';';
      for (std::size_t j = 0; j < m.cols(); ++j) {
        switch (m.at(i, j)) {
          case completion::Cell::One:
            text += '1';
            break;
          case completion::Cell::DontCare:
            text += '*';
            break;
          default:
            text += '0';
        }
      }
    }
    return text;
  }
  for (std::size_t i = 0; i < request.matrix.rows(); ++i) {
    if (i != 0) text += ';';
    text += request.matrix.row(i).to_string();
  }
  return text;
}

}  // namespace

std::string render_pattern_text(const engine::SolveRequest& request) {
  return render_pattern(request);
}

std::int64_t salvage_request_id(const std::string& line) noexcept {
  try {
    const json::Value document = json::Value::parse(line);
    const json::Value* id = document.find("id");
    if (id != nullptr && id->is_number() && id->as_number() >= 0 &&
        id->as_number() <= 9e15)
      return static_cast<std::int64_t>(id->as_number());
  } catch (...) {
  }
  return -1;
}

std::string wire_request_json(const WireRequest& wire) {
  const engine::SolveRequest& request = wire.request;
  std::ostringstream out;
  if (wire.op == WireOp::Stats || wire.op == WireOp::Traces ||
      wire.op == WireOp::Metrics || wire.op == WireOp::Watch ||
      wire.op == WireOp::Events) {
    const char* op = wire.op == WireOp::Stats    ? "stats"
                     : wire.op == WireOp::Traces ? "traces"
                     : wire.op == WireOp::Watch  ? "watch"
                     : wire.op == WireOp::Events ? "events"
                                                 : "metrics";
    out << "{";
    if (wire.id >= 0) out << "\"id\":" << wire.id << ",";
    out << "\"op\":\"" << op << "\"";
    if (wire.op == WireOp::Metrics && !wire.scope.empty())
      out << ",\"scope\":\"" << json::escape(wire.scope) << "\"";
    out << "}";
    return out.str();
  }
  if (wire.op == WireOp::Trace) {
    out << "{\"op\":\"trace\",\"id\":\"" << json::escape(wire.trace_id)
        << "\"}";
    return out.str();
  }
  if (wire.op == WireOp::PeerHello || wire.op == WireOp::PeerLease ||
      wire.op == WireOp::PeerSync) {
    const char* op = wire.op == WireOp::PeerHello   ? "peer.hello"
                     : wire.op == WireOp::PeerLease ? "peer.lease"
                                                    : "peer.sync";
    out << "{";
    if (wire.id >= 0) out << "\"id\":" << wire.id << ",";
    out << "\"op\":\"" << op << "\",\"endpoint\":\""
        << json::escape(wire.endpoint) << "\",\"term\":" << wire.term;
    if (wire.op == WireOp::PeerSync) {
      out << ",\"epoch\":" << wire.peer_epoch << ",\"members\":[";
      for (std::size_t i = 0; i < wire.peer_members.size(); ++i) {
        if (i != 0) out << ",";
        out << "{\"endpoint\":\"" << json::escape(wire.peer_members[i].endpoint)
            << "\"";
        if (wire.peer_members[i].is_static) out << ",\"static\":true";
        out << "}";
      }
      out << "],\"promoted\":[";
      for (std::size_t i = 0; i < wire.promoted_keys.size(); ++i) {
        char hex[17];
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(wire.promoted_keys[i]));
        out << (i == 0 ? "" : ",") << "\"" << hex << "\"";
      }
      out << "]";
    }
    out << "}";
    return out.str();
  }
  if (wire.op == WireOp::Join || wire.op == WireOp::Leave ||
      wire.op == WireOp::Heartbeat) {
    const char* op = wire.op == WireOp::Join      ? "join"
                     : wire.op == WireOp::Leave   ? "leave"
                                                  : "heartbeat";
    out << "{";
    if (wire.id >= 0) out << "\"id\":" << wire.id << ",";
    out << "\"op\":\"" << op << "\",\"endpoint\":\""
        << json::escape(wire.endpoint) << "\"}";
    return out.str();
  }
  if (wire.op == WireOp::Put) {
    out << "{";
    if (wire.id >= 0) out << "\"id\":" << wire.id << ",";
    out << "\"op\":\"put\",\"pattern\":\""
        << json::escape(render_pattern(request)) << "\",\"strategy\":\""
        << json::escape(request.strategy) << "\",\"report\":"
        << wire_response_json(wire.put_report, /*include_partition=*/true)
        << "}";
    return out.str();
  }
  out << "{";
  if (wire.id >= 0) out << "\"id\":" << wire.id << ",";
  out << "\"pattern\":\"" << json::escape(render_pattern(request)) << "\"";
  out << ",\"strategy\":\"" << json::escape(request.strategy) << "\"";
  if (!request.label.empty())
    out << ",\"label\":\"" << json::escape(request.label) << "\"";
  if (wire.budget_seconds > 0)
    out << ",\"budget\":" << json::number(wire.budget_seconds);
  if (request.budget.max_conflicts >= 0)
    out << ",\"conflicts\":" << request.budget.max_conflicts;
  if (request.budget.max_nodes > 0)
    out << ",\"nodes\":" << request.budget.max_nodes;
  if (request.trials != 100) out << ",\"trials\":" << request.trials;
  if (request.seed != 1) out << ",\"seed\":" << request.seed;
  if (request.stop_at != 0) out << ",\"stop_at\":" << request.stop_at;
  if (request.encoding == smt::LabelEncoding::Binary)
    out << ",\"encoding\":\"binary\"";
  if (!request.symmetry_breaking) out << ",\"symmetry_breaking\":false";
  if (!request.preprocess) out << ",\"preprocess\":false";
  if (request.semantics == completion::DontCareSemantics::AtMostOnce)
    out << ",\"semantics\":\"at-most-once\"";
  if (wire.split) out << ",\"split\":true";
  if (wire.threads != 0) out << ",\"threads\":" << wire.threads;
  if (wire.include_partition) out << ",\"include_partition\":true";
  if (wire.has_trace)
    out << ",\"trace\":" << obs::trace_context_json(wire.trace);
  out << "}";
  return out.str();
}

std::string wire_response_json(const engine::SolveReport& report,
                               bool include_partition, std::int64_t id) {
  std::string line = engine::to_json(report);
  if (id >= 0) line.insert(1, "\"id\":" + std::to_string(id) + ",");
  if (!include_partition) return line;
  // Splice the partition before the closing brace of the report object.
  const auto append_indices = [&line](const BitVec& bits) {
    char digits[24];
    for (std::size_t k = bits.find_first(); k < bits.size();
         k = bits.find_next(k)) {
      if (line.back() != '[') line += ',';
      line.append(digits, std::to_chars(digits, digits + sizeof digits, k).ptr);
    }
  };
  line.pop_back();  // drop the report's closing '}' and re-close below
  line += ",\"partition\":[";
  for (std::size_t t = 0; t < report.partition.size(); ++t) {
    if (t != 0) line += ',';
    line += "{\"rows\":[";
    append_indices(report.partition[t].rows);
    line += "],\"cols\":[";
    append_indices(report.partition[t].cols);
    line += "]}";
  }
  line += "]}";
  return line;
}

namespace {

[[noreturn]] void fail_response(const std::string& what) {
  throw std::runtime_error("response: " + what);
}

engine::Status status_from(const std::string& name) {
  if (name == "optimal") return engine::Status::Optimal;
  if (name == "bounded") return engine::Status::Bounded;
  if (name == "heuristic") return engine::Status::Heuristic;
  fail_response("unknown status '" + name + "'");
}

/// One "partition" element's "rows"/"cols" index list as a bit set of
/// length `n`.
BitVec bitset_from_indices(const json::Value& rect, const char* key,
                           std::size_t n) {
  const json::Value* list = rect.find(key);
  if (list == nullptr || !list->is_array())
    fail_response(std::string("partition entry missing '") + key + "' array");
  BitVec bits(n);
  for (std::size_t k = 0; k < list->size(); ++k) {
    if (!list->at(k).is_number()) fail_response("partition index not a number");
    const std::optional<std::uint64_t> index = json::to_count(list->at(k));
    if (!index || *index >= n)
      fail_response(std::string("partition '") + key + "' index out of range");
    bits.set(static_cast<std::size_t>(*index));
  }
  return bits;
}

/// A count field of a reply: integral and in [0, 2^53), or the reply is
/// rejected.
std::size_t count_field(const json::Value& value, const char* key) {
  const std::optional<std::uint64_t> count = json::to_count(value);
  if (!count) fail_response(std::string("'") + key + "' is not a count");
  return static_cast<std::size_t>(*count);
}

}  // namespace

engine::SolveReport parse_wire_response(const json::Value& document,
                                        std::size_t rows, std::size_t cols) {
  if (!document.is_object()) fail_response("a response must be a JSON object");
  if (const json::Value* error = document.find("error")) {
    fail_response("error line: " +
                  (error->is_string() ? error->as_string() : std::string()));
  }
  engine::SolveReport report;
  if (const json::Value* label = document.find("label");
      label != nullptr && label->is_string())
    report.label = label->as_string();
  if (const json::Value* strategy = document.find("strategy");
      strategy != nullptr && strategy->is_string())
    report.strategy = strategy->as_string();
  const json::Value* status = document.find("status");
  if (status == nullptr || !status->is_string())
    fail_response("missing 'status'");
  report.status = status_from(status->as_string());
  const json::Value* lower = document.find("lower_bound");
  const json::Value* upper = document.find("upper_bound");
  if (lower == nullptr || !lower->is_number() || upper == nullptr ||
      !upper->is_number())
    fail_response("missing bounds");
  report.lower_bound = count_field(*lower, "lower_bound");
  report.upper_bound = count_field(*upper, "upper_bound");
  // `incumbent_depth` repeats upper_bound: checked, then dropped. The gap
  // is absent in pre-anytime peers' lines, so it defaults to the bracket.
  if (const json::Value* incumbent = document.find("incumbent_depth");
      incumbent != nullptr && incumbent->is_number())
    (void)count_field(*incumbent, "incumbent_depth");
  report.gap = report.upper_bound > report.lower_bound
                   ? report.upper_bound - report.lower_bound
                   : 0;
  if (const json::Value* gap = document.find("gap");
      gap != nullptr && gap->is_number())
    report.gap = count_field(*gap, "gap");
  if (const json::Value* seconds = document.find("total_seconds");
      seconds != nullptr && seconds->is_number())
    report.total_seconds = seconds->as_number();
  if (const json::Value* timings = document.find("timings");
      timings != nullptr && timings->is_object()) {
    for (const auto& [phase, value] : timings->members())
      if (value.is_number()) report.add_timing(phase, value.as_number());
  }
  if (const json::Value* telemetry = document.find("telemetry");
      telemetry != nullptr && telemetry->is_object()) {
    for (const auto& [key, value] : telemetry->members())
      if (value.is_string()) report.add_telemetry(key, value.as_string());
  }
  const json::Value* partition = document.find("partition");
  if (partition != nullptr && rows > 0 && cols > 0) {
    if (!partition->is_array()) fail_response("'partition' must be an array");
    for (std::size_t t = 0; t < partition->size(); ++t) {
      const json::Value& rect = partition->at(t);
      report.partition.push_back(
          Rectangle{bitset_from_indices(rect, "rows", rows),
                    bitset_from_indices(rect, "cols", cols)});
    }
    if (report.upper_bound != report.partition.size())
      fail_response("depth disagrees with the partition");
  }
  return report;
}

engine::SolveReport parse_wire_response(const std::string& line,
                                        std::size_t rows, std::size_t cols) {
  json::Value document;
  try {
    document = json::Value::parse(line);
  } catch (const std::exception& e) {
    fail_response(e.what());
  }
  return parse_wire_response(document, rows, cols);
}

bool parse_wire_redirect(const std::string& line, std::string* endpoint,
                         std::uint64_t* epoch, std::uint64_t* term) noexcept {
  // Cheap reject before parsing: every redirect line carries the literal
  // member name, and the solve hot path must not pay a JSON parse per
  // reply just to discover there is nothing to chase.
  if (line.find("\"redirect\"") == std::string::npos) return false;
  try {
    const json::Value document = json::Value::parse(line);
    if (!document.is_object()) return false;
    const json::Value* target = document.find("redirect");
    if (target == nullptr || !target->is_string() ||
        target->as_string().empty())
      return false;
    if (endpoint != nullptr) *endpoint = target->as_string();
    if (epoch != nullptr) {
      const json::Value* value = document.find("epoch");
      *epoch = value == nullptr ? 0 : json::to_count(*value).value_or(0);
    }
    if (term != nullptr) {
      const json::Value* value = document.find("term");
      *term = value == nullptr ? 0 : json::to_count(*value).value_or(0);
    }
    return true;
  } catch (...) {
    return false;
  }
}

}  // namespace ebmf::io
