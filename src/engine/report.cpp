// SolveRequest/SolveReport helpers, JSON rendering, and the error type.

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "engine/engine.h"
#include "io/json.h"

namespace ebmf::engine {

const char* to_string(Status status) noexcept {
  switch (status) {
    case Status::Optimal:
      return "optimal";
    case Status::Bounded:
      return "bounded";
    case Status::Heuristic:
      return "heuristic";
  }
  return "unknown";
}

SolveRequest SolveRequest::dense(BinaryMatrix m, std::string strategy) {
  SolveRequest request;
  request.matrix = std::move(m);
  request.strategy = std::move(strategy);
  return request;
}

SolveRequest SolveRequest::with_mask(completion::MaskedMatrix m,
                                     std::string strategy) {
  SolveRequest request;
  request.masked = std::move(m);
  request.strategy = std::move(strategy);
  return request;
}

const BinaryMatrix& SolveRequest::pattern() const {
  return masked ? masked->pattern() : matrix;
}

void SolveReport::add_timing(const std::string& phase, double seconds) {
  for (auto& t : timings) {
    if (t.phase == phase) {
      t.seconds += seconds;
      return;
    }
  }
  timings.push_back(PhaseTiming{phase, seconds});
}

double SolveReport::timing(const std::string& phase) const {
  for (const auto& t : timings)
    if (t.phase == phase) return t.seconds;
  return 0.0;
}

void SolveReport::refresh_telemetry_index() const {
  if (telemetry_indexed_ == telemetry.size()) return;
  telemetry_index_.clear();
  telemetry_index_.reserve(telemetry.size());
  for (std::uint32_t i = 0; i < telemetry.size(); ++i) {
    telemetry_index_.push_back(i);
  }
  // stable_sort keeps equal keys in document order, so after unique the
  // surviving slot per key is the earliest occurrence — the entry the old
  // first-match linear scan would have returned.
  std::stable_sort(telemetry_index_.begin(), telemetry_index_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return telemetry[a].first < telemetry[b].first;
                   });
  telemetry_index_.erase(
      std::unique(telemetry_index_.begin(), telemetry_index_.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                    return telemetry[a].first == telemetry[b].first;
                  }),
      telemetry_index_.end());
  telemetry_indexed_ = telemetry.size();
}

std::size_t SolveReport::telemetry_position(const std::string& key) const {
  refresh_telemetry_index();
  const auto it = std::lower_bound(
      telemetry_index_.begin(), telemetry_index_.end(), key,
      [&](std::uint32_t i, const std::string& k) {
        return telemetry[i].first < k;
      });
  if (it == telemetry_index_.end() || telemetry[*it].first != key) {
    return static_cast<std::size_t>(-1);
  }
  return *it;
}

void SolveReport::add_telemetry(std::string key, std::string value) {
  const std::size_t pos = telemetry_position(key);
  if (pos != static_cast<std::size_t>(-1)) {
    telemetry[pos].second = std::move(value);  // last-write-wins dedup
    return;
  }
  telemetry.emplace_back(std::move(key), std::move(value));
  // Keep the index valid incrementally: insert the new position at its
  // sorted slot instead of forcing a full rebuild per append.
  const std::uint32_t appended =
      static_cast<std::uint32_t>(telemetry.size() - 1);
  const auto it = std::lower_bound(
      telemetry_index_.begin(), telemetry_index_.end(),
      telemetry[appended].first,
      [&](std::uint32_t i, const std::string& k) {
        return telemetry[i].first < k;
      });
  telemetry_index_.insert(it, appended);
  telemetry_indexed_ = telemetry.size();
}

void SolveReport::add_telemetry(std::string key, std::uint64_t value) {
  add_telemetry(std::move(key), std::to_string(value));
}

void SolveReport::add_telemetry(std::string key, double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.6g", value);
  add_telemetry(std::move(key), std::string(buffer));
}

const std::string* SolveReport::find_telemetry(const std::string& key) const {
  const std::size_t pos = telemetry_position(key);
  return pos == static_cast<std::size_t>(-1) ? nullptr
                                             : &telemetry[pos].second;
}

std::uint64_t SolveReport::telemetry_count(const std::string& key) const {
  const std::string* value = find_telemetry(key);
  if (value == nullptr) return 0;
  return std::strtoull(value->c_str(), nullptr, 10);
}

namespace {

// One escaping/number-formatting routine repo-wide (io/json.h), so the
// wire protocol and the bench emitters can never diverge from to_json.
std::string json_escape(const std::string& s) { return io::json::escape(s); }

std::string json_number(double value) { return io::json::number(value); }

}  // namespace

std::string to_json(const SolveReport& report) {
  // Built with appends only: no operator+ temporaries, which GCC 12's
  // -Wrestrict misreads at -O3.
  std::string out;
  out.reserve(256);
  const auto append_string = [&out](const std::string& value) {
    out += '"';
    out += json_escape(value);
    out += '"';
  };
  const auto append_count = [&out](const char* key, std::size_t value) {
    char digits[24];
    out += key;
    out.append(digits, std::to_chars(digits, digits + sizeof digits, value).ptr);
  };
  out += "{\"label\":";
  append_string(report.label);
  out += ",\"strategy\":";
  append_string(report.strategy);
  out += ",\"status\":\"";
  out += to_string(report.status);
  out += '"';
  append_count(",\"depth\":", report.depth());
  append_count(",\"lower_bound\":", report.lower_bound);
  append_count(",\"upper_bound\":", report.upper_bound);
  // The retired incumbent_depth key stays on the wire, equal to the depth.
  append_count(",\"incumbent_depth\":", report.upper_bound);
  append_count(",\"gap\":", report.gap);
  out += ",\"total_seconds\":";
  out += json_number(report.total_seconds);
  out += ",\"timings\":{";
  for (std::size_t i = 0; i < report.timings.size(); ++i) {
    if (i != 0) out += ',';
    append_string(report.timings[i].phase);
    out += ':';
    out += json_number(report.timings[i].seconds);
  }
  out += "},\"telemetry\":{";
  for (std::size_t i = 0; i < report.telemetry.size(); ++i) {
    if (i != 0) out += ',';
    append_string(report.telemetry[i].first);
    out += ':';
    append_string(report.telemetry[i].second);
  }
  out += "}}";
  return out;
}

namespace {

std::string unknown_strategy_message(const std::string& name,
                                     const std::vector<std::string>& known) {
  std::string message = "unknown strategy '" + name + "' (available:";
  for (const auto& k : known) message += " " + k;
  message += ")";
  return message;
}

}  // namespace

UnknownStrategyError::UnknownStrategyError(
    const std::string& name, const std::vector<std::string>& known)
    : std::invalid_argument(unknown_strategy_message(name, known)),
      name_(name) {}

void SolverRegistry::add(std::string name, std::string description,
                         StrategyFn solve) {
  Entry entry{name, std::move(description), std::move(solve)};
  entries_[std::move(name)] = std::move(entry);
}

const SolverRegistry::Entry* SolverRegistry::find(
    const std::string& name) const noexcept {
  const auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<std::string> SolverRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;  // std::map iteration is already sorted
}

}  // namespace ebmf::engine
