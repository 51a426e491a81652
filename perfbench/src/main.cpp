// perfbench — one benchmark for the ebmf solver and its served path.
//
//   perfbench --workload NAME --seed N --seconds S [--trace 0|1]
//             [--tiny] [--corrupt K]
//
// Generates the workload's inputs from the seed, sets it up, measures for
// S seconds, checks every answer, and prints a record line followed by
// one result line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when any answer was wrong, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.h"

namespace {

using perfbench::Result;
using perfbench::RunConfig;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "exact-paper|warm-routed --seed N "
               "--seconds S [--trace 0|1] [--tiny] [--corrupt K]\n",
               why);
  return 2;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double value) {
  char text[40];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

void print(const RunConfig& config, const Result& result) {
  std::string record = "{\"record\":{\"workload\":\"" + config.workload +
                       "\",\"seed\":" + std::to_string(config.seed) +
                       ",\"run_seconds\":" + number(config.seconds) +
                       ",\"trace\":" + (config.trace ? "1" : "0") +
                       ",\"setup_repetitions\":" +
                       std::to_string(config.setup_reps()) +
                       ",\"compiler\":\"" + json_escape(__VERSION__) + "\"";
  for (const auto& [key, value] : result.record)
    record += ",\"" + key + "\":" + value;
  if (!result.first_error.empty())
    record += ",\"first_error\":\"" + json_escape(result.first_error) + "\"";
  record += "}}";
  std::printf("%s\n", record.c_str());

  std::string line = "{\"correct\":";
  line += result.failed == 0 && result.attempted > 0 ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(result.attempted) +
          ",\"failed\":" + std::to_string(result.failed) + ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    line += (first ? "\"" : ",\"") + name + "\":{\"value\":" +
            number(metric.value) + ",\"unit\":\"" + metric.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      config.tiny = true;
    } else if (!has_value) {
      return usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      config.workload = argv[++i];
    } else if (arg == "--seed") {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      config.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      config.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--corrupt") {
      config.corrupt = std::strtoull(argv[++i], nullptr, 10);
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed) return usage("--seed is required");
  if (config.seconds <= 0) return usage("--seconds must be positive");

  Result result;
  try {
    if (config.workload == "exact-paper") {
      result = perfbench::run_exact_paper(config);
    } else if (config.workload == "warm-routed") {
      result = perfbench::run_warm_routed(config);
    } else {
      return usage(("unknown workload '" + config.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", config.workload.c_str(),
                 e.what());
    return 1;
  }
  print(config, result);
  if (!result.first_error.empty())
    std::fprintf(stderr, "perfbench: %zu of %zu answers wrong; first: %s\n",
                 result.failed, result.attempted, result.first_error.c_str());
  return result.failed == 0 && result.attempted > 0 ? 0 : 1;
}
