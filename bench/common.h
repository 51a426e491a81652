#pragma once
/// \file common.h
/// \brief Shared command-line handling for the table/figure harnesses.
///
/// Every harness accepts:
///   --scale=<float>   multiply instance counts (default 1.0; the paper's
///                     full populations are --full)
///   --full            paper-scale instance counts (equivalent to the
///                     counts in §IV-A)
///   --seed=<uint>     master seed (default 2024)
///   --budget=<sec>    per-instance solve budget (default 5 s)
///   --json            additionally emit one line of JSON per solved
///                     instance (engine SolveReport + provenance) on
///                     stdout, so BENCH_*.json trajectories can be scripted
///
/// Solving goes through the ebmf::engine facade; emit_json renders the
/// facade's SolveReport (status, bounds, per-phase timings, telemetry).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "engine/engine.h"

namespace ebmf::bench {

/// Parsed harness options.
struct Options {
  double scale = 1.0;
  bool full = false;
  std::uint64_t seed = 2024;
  double budget_seconds = 5.0;
  bool json = false;

  /// Scale an instance count (at least 1).
  [[nodiscard]] std::size_t count(std::size_t paper_count,
                                  std::size_t reduced_count) const {
    const auto base = full ? paper_count : reduced_count;
    const auto scaled = static_cast<std::size_t>(
        static_cast<double>(base) * scale + 0.5);
    return scaled == 0 ? 1 : scaled;
  }

  /// The per-instance budget as the engine's shared type.
  [[nodiscard]] Budget budget() const {
    return Budget::after(budget_seconds);
  }
};

/// Parse argv; unknown arguments abort with a usage message.
inline Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--full") {
      opt.full = true;
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg.rfind("--scale=", 0) == 0) {
      opt.scale = std::strtod(arg.c_str() + 8, nullptr);
    } else if (arg.rfind("--seed=", 0) == 0) {
      opt.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--budget=", 0) == 0) {
      opt.budget_seconds = std::strtod(arg.c_str() + 9, nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--full] [--scale=F] [--seed=N] [--budget=S] "
                   "[--json]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  return opt;
}

/// When --json was given, print one line of JSON for a solved instance.
/// `family`/`config` identify the instance (benchgen provenance).
inline void emit_json(const Options& opt, const std::string& family,
                      const std::string& config,
                      const engine::SolveReport& report) {
  if (!opt.json) return;
  std::printf("{\"family\":\"%s\",\"config\":\"%s\",\"report\":%s}\n",
              family.c_str(), config.c_str(),
              engine::to_json(report).c_str());
}

}  // namespace ebmf::bench
