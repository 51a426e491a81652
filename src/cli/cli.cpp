#include "cli/cli.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <fstream>

#include "addressing/schedule.h"
#include "benchgen/generators.h"
#include "core/bounds.h"
#include "core/fooling.h"
#include "core/preprocess.h"
#include "core/trivial.h"
#include "engine/engine.h"
#include "io/matrix_io.h"
#include "io/json.h"
#include "io/partition_io.h"
#include "io/request_io.h"
#include "net/frame_client.h"
#include "obs/trace.h"
#include "router/router.h"
#include "sat/dimacs.h"
#include "net/net.h"
#include "service/service.h"
#include "smt/label_formula.h"

namespace ebmf::cli {

namespace {

/// Minimal flag parser: positional args plus --key=value / --flag.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  [[nodiscard]] bool has(const std::string& name) const {
    return flags.count(name) != 0;
  }
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const {
    const auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  }
};

Args parse_args(const std::vector<std::string>& raw) {
  Args args;
  for (const auto& a : raw) {
    if (a.rfind("--", 0) == 0) {
      const auto eq = a.find('=');
      if (eq == std::string::npos)
        args.flags[a.substr(2)] = "";
      else
        args.flags[a.substr(2, eq - 2)] = a.substr(eq + 1);
    } else {
      args.positional.push_back(a);
    }
  }
  return args;
}

/// Checked numeric flag reads. A malformed or out-of-range value (e.g.
/// --budget=soon, --seed=-1, --trials=inf) marks the reader bad; commands
/// turn that into exit code 2 + usage, never a throw or an undefined
/// float-to-integer cast (the cli.h contract).
class FlagReader {
 public:
  explicit FlagReader(const Args& args) : args_(&args) {}

  double num(const std::string& name, double fallback) {
    const auto it = args_->flags.find(name);
    if (it == args_->flags.end()) return fallback;
    const char* text = it->second.c_str();
    char* end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(value)) {
      fail(name, it->second);
      return fallback;
    }
    return value;
  }

  /// A non-negative integer flag (size_t). Doubles keep 53 exact bits —
  /// far beyond any meaningful trial/row count — so the cast is safe once
  /// the range check passes.
  std::size_t count(const std::string& name, std::size_t fallback) {
    const double value = num(name, static_cast<double>(fallback));
    if (value < 0 || value > 9e15) {
      fail(name, args_->get(name, ""));
      return fallback;
    }
    return static_cast<std::size_t>(value);
  }

  /// An unsigned 64-bit flag (seeds, node caps).
  std::uint64_t u64(const std::string& name, std::uint64_t fallback) {
    return count(name, static_cast<std::size_t>(fallback));
  }

  /// A signed 64-bit flag (conflict caps; negative means unlimited).
  std::int64_t i64(const std::string& name, std::int64_t fallback) {
    const double value = num(name, static_cast<double>(fallback));
    if (value < -9e15 || value > 9e15) {
      fail(name, args_->get(name, ""));
      return fallback;
    }
    return static_cast<std::int64_t>(value);
  }

  /// True when all reads parsed; otherwise prints the diagnostic to `err`.
  bool valid(std::ostream& err) const {
    if (error_.empty()) return true;
    err << "error: " << error_ << "\n";
    return false;
  }

 private:
  void fail(const std::string& name, const std::string& value) {
    if (error_.empty())
      error_ = "invalid value for --" + name + ": '" + value + "'";
  }

  const Args* args_;
  std::string error_;
};

/// The request-building flags shared by `solve` and `schedule`.
constexpr const char* kRequestFlagsUsage =
    "[--strategy=NAME] [--trials=N] [--seed=N] [--budget=S] [--conflicts=N] "
    "[--nodes=N] [--stop-at=D] [--encoding=onehot|binary] "
    "[--no-preprocess] [--heuristic-only]";

/// Build the facade request skeleton (everything but the pattern) from
/// flags. Returns false — after printing to `err` — on malformed numeric
/// values, bad enum values, or an unknown strategy name (exit code 2 at the
/// call site).
bool request_from(const Args& args, const engine::Engine& engine,
                  engine::SolveRequest& request, std::ostream& err) {
  FlagReader flags(args);
  request.trials = flags.count("trials", 100);
  request.seed = flags.u64("seed", 1);
  if (args.has("budget"))
    request.budget.deadline = Deadline::after(flags.num("budget", 10.0));
  if (args.has("conflicts"))
    request.budget.max_conflicts = flags.i64("conflicts", -1);
  if (args.has("nodes")) request.budget.max_nodes = flags.u64("nodes", 0);
  // Anytime early-stop: accept the first incumbent at depth <= D.
  if (args.has("stop-at")) request.stop_at = flags.count("stop-at", 0);
  if (!flags.valid(err)) return false;

  if (args.has("no-preprocess")) request.preprocess = false;
  const auto encoding = args.get("encoding", "onehot");
  if (encoding == "binary") {
    request.encoding = smt::LabelEncoding::Binary;
  } else if (encoding != "onehot") {
    err << "error: unknown encoding '" << encoding
        << "' (expected onehot|binary)\n";
    return false;
  }
  const auto semantics = args.get("semantics", "free");
  if (semantics == "at-most-once") {
    request.semantics = completion::DontCareSemantics::AtMostOnce;
  } else if (semantics != "free") {
    err << "error: unknown semantics '" << semantics
        << "' (expected free|at-most-once)\n";
    return false;
  }

  // Strategy: --strategy wins; the legacy switches are aliases.
  if (args.has("strategy")) {
    request.strategy = args.get("strategy", "auto");
  } else if (args.has("heuristic-only")) {
    request.strategy = "heuristic";
  } else if (args.has("dont-cares")) {
    request.strategy = "completion";
  }
  if (!engine.registry().contains(request.strategy)) {
    err << "error: unknown strategy '" << request.strategy
        << "' (available:";
    for (const auto& name : engine.registry().names()) err << " " << name;
    err << ")\n";
    return false;
  }
  return true;
}

void print_report_line(std::ostream& out, const engine::SolveReport& r) {
  out << "depth " << r.depth();
  switch (r.status) {
    case engine::Status::Optimal:
      out << " (proven optimal)";
      break;
    case engine::Status::Bounded:
      out << " (in [" << r.lower_bound << ", " << r.upper_bound << "])";
      break;
    case engine::Status::Heuristic:
      out << " (heuristic; lower bound " << r.lower_bound << ")";
      break;
  }
  out << ", strategy " << r.strategy << ", " << r.total_seconds << " s\n";
}

/// `ebmf solve --requests=FILE`: each line is one wire-protocol request
/// (io/request_io.h) — the same format the service consumes — solved as one
/// batch, one report JSON line out per request line.
int solve_request_file(const Args& args, std::ostream& out,
                       std::ostream& err) {
  const std::string path = args.get("requests", "");
  std::ifstream file(path);
  if (!file) {
    err << "error: cannot read requests file '" << path << "'\n";
    return 1;
  }
  FlagReader flags(args);
  const auto threads = flags.count("threads", 0);
  if (!flags.valid(err)) return 2;

  const engine::Engine engine;
  std::vector<io::WireRequest> wires;
  std::string line;
  std::size_t line_number = 0;
  bool failed = false;
  while (std::getline(file, line)) {
    ++line_number;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      io::WireRequest wire = io::parse_wire_request(line);
      // Every non-solve op is a service/cluster verb: solving a replayed
      // {"op":"join"} line as an empty pattern would emit a bogus report.
      if (wire.op == io::WireOp::Stats)
        throw std::runtime_error(
            "'stats' is a service verb; send it with ebmf client --stats");
      if (wire.op != io::WireOp::Solve)
        throw std::runtime_error(
            "cluster verbs (join/leave/heartbeat/put) go to a running "
            "router/server; --requests files hold solve requests only");
      if (wire.request.label.empty())
        wire.request.label = path + ":" + std::to_string(line_number);
      wires.push_back(std::move(wire));
    } catch (const std::exception& e) {
      err << path << ":" << line_number << ": error: " << e.what() << "\n";
      failed = true;
    }
  }

  // Same routing as the service: non-split requests share one batch,
  // split ones go through solve_split; output stays in line order. The
  // per-request deadline is re-armed here — at submission, like the
  // server's admission step — not at file-parse time, so reading a large
  // file does not eat into the first request's budget. (Within the batch
  // a deadline is still a wall-clock SLA from submission: queueing behind
  // the pool counts against it.)
  std::vector<std::size_t> batch_index(wires.size(), wires.size());
  std::vector<engine::SolveRequest> batch;
  for (std::size_t i = 0; i < wires.size(); ++i) {
    if (wires[i].budget_seconds > 0)
      wires[i].request.budget.deadline =
          Deadline::after(wires[i].budget_seconds);
    if (wires[i].split && !wires[i].request.masked) continue;
    batch_index[i] = batch.size();
    batch.push_back(wires[i].request);
  }
  const auto batch_reports = engine.solve_batch(batch, threads);
  for (std::size_t i = 0; i < wires.size(); ++i) {
    engine::SolveReport report;
    if (batch_index[i] < batch_reports.size()) {
      report = batch_reports[batch_index[i]];
    } else {
      try {
        report = engine.solve_split(wires[i].request, wires[i].threads);
      } catch (const std::exception& e) {
        err << wires[i].request.label << ": error: " << e.what() << "\n";
        failed = true;
        continue;
      }
    }
    if (const std::string* error = report.find_telemetry("error")) {
      err << report.label << ": error: " << *error << "\n";
      failed = true;
      continue;
    }
    out << io::wire_response_json(report, wires[i].include_partition) << "\n";
  }
  return failed ? 1 : 0;
}

int cmd_solve(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.has("requests")) {
    if (!args.positional.empty()) {
      err << "error: --requests=FILE replaces positional matrix files\n";
      return 2;
    }
    return solve_request_file(args, out, err);
  }
  if (args.positional.empty()) {
    err << "usage: ebmf solve <matrix-file> [more files...] "
        << kRequestFlagsUsage
        << " [--dont-cares] [--semantics=free|at-most-once] [--split] "
           "[--threads=N] [--json] [--render] [--save=FILE] "
           "[--requests=FILE]\n";
    return 2;
  }
  const engine::Engine engine;
  engine::SolveRequest base;
  if (!request_from(args, engine, base, err)) return 2;
  FlagReader flags(args);
  const auto threads = flags.count("threads", 0);
  if (!flags.valid(err)) return 2;
  const bool masked_input =
      args.has("dont-cares") || base.strategy == "completion";
  if (args.positional.size() > 1 &&
      (args.has("save") || args.has("render") || args.has("split"))) {
    err << "error: --save/--render/--split apply to a single matrix file\n";
    return 2;
  }

  // Many files: one batch through the facade, deterministic result order.
  // A file that fails to load is reported and skipped — it must not sink
  // the rest of the batch.
  if (args.positional.size() > 1) {
    std::vector<engine::SolveRequest> requests;
    requests.reserve(args.positional.size());
    bool load_failed = false;
    for (const auto& path : args.positional) {
      engine::SolveRequest request = base;
      request.label = path;
      try {
        if (masked_input)
          request.masked = io::load_masked(path);
        else
          request.matrix = io::load_matrix(path);
      } catch (const std::exception& e) {
        err << path << ": error: " << e.what() << "\n";
        load_failed = true;
        continue;
      }
      requests.push_back(std::move(request));
    }
    const auto reports = engine.solve_batch(requests, threads);
    bool solve_failed = false;
    for (const auto& report : reports) {
      if (const std::string* error = report.find_telemetry("error")) {
        err << report.label << ": error: " << *error << "\n";
        solve_failed = true;
        continue;
      }
      if (args.has("json")) {
        out << engine::to_json(report) << "\n";
      } else {
        out << report.label << ": ";
        print_report_line(out, report);
      }
    }
    return load_failed || solve_failed ? 1 : 0;
  }

  const auto& path = args.positional[0];
  engine::SolveRequest request = base;
  request.label = path;
  if (masked_input)
    request.masked = io::load_masked(path);
  else
    request.matrix = io::load_matrix(path);

  const auto report = args.has("split") ? engine.solve_split(request, threads)
                                        : engine.solve(request);
  const BinaryMatrix& pattern = request.pattern();
  if (args.has("json")) {
    // Machine mode: only the JSON line on stdout (same contract as the
    // batch path), so `... --json | jq` always parses.
    out << engine::to_json(report) << "\n";
  } else {
    print_report_line(out, report);
    if (args.has("render"))
      out << render_partition(pattern, report.partition) << "\n";
    io::write_partition(out, report.partition, pattern.rows(),
                        pattern.cols());
  }
  if (args.has("save"))
    io::save_partition(args.get("save", ""), report.partition, pattern.rows(),
                       pattern.cols());
  return 0;
}

int cmd_strategies(const Args& /*args*/, std::ostream& out,
                   std::ostream& /*err*/) {
  const engine::Engine engine;
  for (const auto& name : engine.registry().names()) {
    const auto* entry = engine.registry().find(name);
    out << name << "\t" << entry->description << "\n";
  }
  return 0;
}

int cmd_bounds(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 1) {
    err << "usage: ebmf bounds <matrix-file> [--trials=N]\n";
    return 2;
  }
  FlagReader flags(args);
  const auto trials = flags.count("trials", 32);
  if (!flags.valid(err)) return 2;
  const auto m = io::load_matrix(args.positional[0]);
  const auto rank = real_rank(m);
  const auto fooling = greedy_fooling_set(m).size();
  const auto trivial = trivial_upper_bound(m);
  // The facade's heuristic backend often beats the trivial upper bound.
  const engine::Engine engine;
  auto request = engine::SolveRequest::dense(m, "heuristic");
  request.trials = trials;
  const auto heuristic = engine.solve(request);
  out << "shape " << m.rows() << "x" << m.cols() << ", ones "
      << m.ones_count() << "\n";
  out << "rank lower bound     " << rank << "\n";
  out << "fooling lower bound  " << fooling << " (greedy)\n";
  out << "trivial upper bound  " << trivial << "\n";
  out << "packing upper bound  " << heuristic.depth() << " (engine, "
      << trials << " trials)\n";
  out << "r_B in [" << std::max(rank, fooling) << ", "
      << std::min(trivial, heuristic.depth()) << "]\n";
  return 0;
}

int cmd_fooling(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 1) {
    err << "usage: ebmf fooling <matrix-file> [--exact] [--budget=S]\n";
    return 2;
  }
  FlagReader flags(args);
  Budget budget;
  if (args.has("budget")) budget = Budget::after(flags.num("budget", 10));
  if (!flags.valid(err)) return 2;
  const auto m = io::load_matrix(args.positional[0]);
  const auto set =
      args.has("exact") ? max_fooling_set(m, budget) : greedy_fooling_set(m);
  out << "fooling set size " << set.size()
      << (args.has("exact") ? "" : " (greedy)") << "\n";
  for (const auto& [i, j] : set) out << i << " " << j << "\n";
  return 0;
}

int cmd_components(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 1) {
    err << "usage: ebmf components <matrix-file>\n";
    return 2;
  }
  const auto m = io::load_matrix(args.positional[0]);
  const auto reduction = reduce_duplicates(m);
  out << "original " << m.rows() << "x" << m.cols() << ", reduced "
      << reduction.reduced.rows() << "x" << reduction.reduced.cols() << "\n";
  const auto components = split_components(reduction.reduced);
  out << "components " << components.size() << "\n";
  for (std::size_t c = 0; c < components.size(); ++c)
    out << "  component " << c << ": " << components[c].matrix.rows() << "x"
        << components[c].matrix.cols() << ", "
        << components[c].matrix.ones_count() << " ones\n";
  return 0;
}

int cmd_schedule(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 1) {
    err << "usage: ebmf schedule <matrix-file> [--reconfig-us=T] "
           "[--pulse-us=T] "
        << kRequestFlagsUsage << "\n";
    return 2;
  }
  const engine::Engine engine;
  engine::SolveRequest request;
  if (!request_from(args, engine, request, err)) return 2;
  FlagReader flags(args);
  addressing::TimingModel timing;
  timing.reconfigure_us = flags.num("reconfig-us", 10.0);
  timing.pulse_us = flags.num("pulse-us", 0.5);
  if (!flags.valid(err)) return 2;
  const auto m = io::load_matrix(args.positional[0]);
  request.matrix = m;
  request.label = args.positional[0];
  const auto report = engine.solve(request);
  const addressing::Schedule schedule(m, report.partition, timing);
  out << schedule.render();
  return 0;
}

int cmd_generate(const Args& args, std::ostream& out, std::ostream& err) {
  const bool known_family =
      args.positional.size() == 1 &&
      (args.positional[0] == "rand" || args.positional[0] == "opt" ||
       args.positional[0] == "gap" || args.positional[0] == "qldpc" ||
       args.positional[0] == "atom");
  if (!known_family) {
    err << "usage: ebmf generate rand|opt|gap|qldpc|atom [--rows=M] "
           "[--cols=N] [--occupancy=P] [--k=K] [--seed=S] "
           "[--format=dense|sparse|pbm]\n";
    return 2;
  }
  FlagReader flags(args);
  const auto rows = flags.count("rows", 10);
  const auto cols = flags.count("cols", 10);
  const auto occupancy = flags.num("occupancy", 0.5);
  const auto k = flags.count("k", 3);
  const auto seed = flags.u64("seed", 1);
  if (!flags.valid(err)) return 2;
  Rng rng(seed);
  BinaryMatrix m;
  if (args.positional[0] == "rand") {
    m = benchgen::random_matrix(rows, cols, occupancy, rng);
  } else if (args.positional[0] == "opt") {
    m = benchgen::known_optimal_matrix(rows, cols, k, rng).matrix;
  } else if (args.positional[0] == "qldpc") {
    m = benchgen::qldpc_block_matrix(rows, cols, occupancy, rng);
  } else if (args.positional[0] == "atom") {
    m = benchgen::neutral_atom_matrix(rows, cols, occupancy, rng);
  } else {
    m = benchgen::gap_matrix(rows, cols, k, rng).matrix;
  }
  const auto format = args.get("format", "dense");
  if (format == "sparse")
    io::write_sparse(out, m);
  else if (format == "pbm")
    io::write_pbm(out, m);
  else
    io::write_dense(out, m);
  return 0;
}

int cmd_encode(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 1) {
    err << "usage: ebmf encode <matrix-file> [--bound=B] "
           "[--encoding=onehot|binary] [--no-symmetry]  (DIMACS to stdout)\n";
    return 2;
  }
  const auto m = io::load_matrix(args.positional[0]);
  if (m.is_zero()) {
    err << "error: zero matrix has nothing to encode\n";
    return 1;
  }
  FlagReader flags(args);
  const auto bound = flags.count("bound", trivial_upper_bound(m));
  if (!flags.valid(err)) return 2;
  smt::EncoderOptions enc;
  if (args.get("encoding", "onehot") == "binary")
    enc.encoding = smt::LabelEncoding::Binary;
  enc.symmetry_breaking = !args.has("no-symmetry");
  const smt::LabelFormula formula(m, bound, enc);
  out << "c EBMF decision problem: r_B(M) <= " << bound << "\n";
  out << "c matrix " << m.rows() << "x" << m.cols() << ", "
      << m.ones_count() << " ones\n";
  sat::write_dimacs(out, formula.export_cnf());
  return 0;
}

int cmd_serve(const Args& args, std::ostream& out, std::ostream& err) {
  FlagReader flags(args);
  service::ServerOptions options;
  const auto port = flags.count("port", 7421);
  options.host = args.get("host", "127.0.0.1");
  options.threads = flags.count("threads", 0);
  options.cache_mb = flags.num("cache-mb", 64.0);
  options.max_inflight = flags.count("max-inflight", 256);
  options.budget_ceiling_seconds = flags.num("budget", 10.0);
  options.max_batch = flags.count("max-batch", 32);
  options.io_threads = flags.count("io-threads", options.io_threads);
  options.io_workers = flags.count("io-workers", options.io_workers);
  options.idle_timeout_seconds =
      flags.num("idle-timeout", options.idle_timeout_seconds);
  options.cache_file = args.get("cache-file", "");
  options.announce = args.get("announce", "");
  options.advertise = args.get("advertise", "");
  options.heartbeat_ms = flags.num("heartbeat-ms", 500.0);
  options.slow_ms = flags.num("slow-ms", 0.0);
  options.slow_log = args.get("slow-log", "");
  options.trace_file = args.get("trace-file", "");
  bool endpoints_ok = true;
  // --announce takes a comma-separated router list (a fleet is announced
  // to in full); every entry must be a dialable host:port.
  std::vector<std::string> routers;
  std::string bad;
  if (!net::parse_endpoint_list(options.announce, routers, &bad)) {
    err << "error: bad --announce endpoint '" << bad
        << "' (want host:port[,host:port...])\n";
    endpoints_ok = false;
  }
  std::string endpoint_host;
  std::uint16_t endpoint_port = 0;
  if (!options.advertise.empty() &&
      !net::parse_endpoint(options.advertise, endpoint_host, endpoint_port)) {
    err << "error: bad --advertise endpoint '" << options.advertise
        << "' (want host:port)\n";
    endpoints_ok = false;
  }
  if (!options.announce.empty() && options.advertise.empty() &&
      (options.host == "0.0.0.0" || options.host == "::")) {
    // Announcing the wildcard bind address would make the router dial its
    // own loopback; the operator must name a reachable address.
    err << "error: --announce with --host=" << options.host
        << " needs an explicit --advertise=HOST:PORT (the router cannot "
           "dial the wildcard address)\n";
    endpoints_ok = false;
  }
  if (!flags.valid(err) || port > 65535 || options.cache_mb < 0 ||
      options.budget_ceiling_seconds < 0 || options.heartbeat_ms <= 0 ||
      options.slow_ms < 0 || !endpoints_ok) {
    err << "usage: ebmf serve [--port=P] [--host=ADDR] [--threads=N] "
           "[--cache-mb=MB] [--max-inflight=N] [--budget=S] "
           "[--max-batch=N] [--io-threads=N] [--io-workers=N] "
           "[--idle-timeout=S] [--cache-file=PATH] [--announce=H:P,H:P] "
           "[--advertise=HOST:PORT] [--heartbeat-ms=N] [--slow-ms=N] "
           "[--slow-log=PATH] [--trace-file=PATH]\n";
    return 2;
  }
  options.port = static_cast<std::uint16_t>(port);
  // Blocks until SIGTERM/SIGINT, then drains and reports.
  return service::serve_forever(options, out);
}

/// `ebmf route BACKEND... --listen=P`: the canon-key sharding front tier.
/// Backends are positional "host:port" endpoints and/or a comma-separated
/// --backends= list (the flag parser keeps only the last repeated flag, so
/// positionals are the ergonomic spelling).
int cmd_route(const Args& args, std::ostream& out, std::ostream& err) {
  router::RouterOptions options;
  std::string backends;
  for (const auto& endpoint : args.positional) backends += endpoint + ",";
  backends += args.get("backends", "");
  std::string bad_backend;
  const bool backends_ok =
      net::parse_endpoint_list(backends, options.backends, &bad_backend);

  FlagReader flags(args);
  const auto port = flags.count("listen", 7500);
  options.host = args.get("host", "127.0.0.1");
  options.l1_mb = flags.num("l1-mb", 64.0);
  options.cache_file = args.get("cache-file", "");
  options.max_inflight = flags.count("max-inflight", 256);
  options.max_batch = flags.count("max-batch", 32);
  options.io_threads = flags.count("io-threads", options.io_threads);
  options.io_workers = flags.count("io-workers", options.io_workers);
  options.idle_timeout_seconds =
      flags.num("idle-timeout", options.idle_timeout_seconds);
  options.pool_connections = flags.count("pool", 1);
  options.reply_timeout_seconds = flags.num("timeout", 30.0);
  options.binary_backend = !args.has("no-binary");
  options.dynamic = args.has("dynamic");
  // --peers: fellow routers of an HA fleet (comma-separated, this router
  // excluded). Non-empty turns on leader-lease arbitration + state sync.
  std::string bad_peer;
  const bool peers_ok =
      net::parse_endpoint_list(args.get("peers", ""), options.peers, &bad_peer);
  options.advertise = args.get("advertise", "");
  options.lease_ttl_ms = flags.num("lease-ttl-ms", 1500.0);
  options.sync_interval_ms = flags.num("sync-interval-ms", 0.0);
  options.replicas = flags.count("replicas", 2);
  options.promote_after = flags.u64("promote-after", 8);
  options.heartbeat_ms = flags.num("heartbeat-ms", 500.0);
  options.grace_ms = flags.num("grace-ms", 0.0);
  options.trace = args.has("trace");
  options.slow_ms = flags.num("slow-ms", 0.0);
  options.slow_log = args.get("slow-log", "");
  options.trace_file = args.get("trace-file", "");
  if (!flags.valid(err) || port > 65535 || options.l1_mb < 0 ||
      options.reply_timeout_seconds < 0 || options.heartbeat_ms <= 0 ||
      options.grace_ms < 0 || options.replicas == 0 || options.slow_ms < 0 ||
      options.lease_ttl_ms <= 0 || options.sync_interval_ms < 0 ||
      (options.backends.empty() && !options.dynamic)) {
    err << "usage: ebmf route <host:port>... [--backends=H:P,H:P] "
           "[--listen=P] [--host=ADDR] [--l1-mb=MB] [--cache-file=PATH] "
           "[--max-inflight=N] [--max-batch=N] [--io-threads=N] "
           "[--io-workers=N] [--idle-timeout=S] [--no-binary] "
           "[--pool=N] [--timeout=S] "
           "[--dynamic] [--replicas=R] [--promote-after=N] "
           "[--heartbeat-ms=N] [--grace-ms=N] [--peers=H:P,H:P] "
           "[--advertise=HOST:PORT] [--lease-ttl-ms=N] "
           "[--sync-interval-ms=N] [--trace] [--slow-ms=N] "
           "[--slow-log=PATH] [--trace-file=PATH]\n";
    return 2;
  }
  if (!backends_ok) {
    err << "error: bad backend endpoint '" << bad_backend
        << "' (want host:port)\n";
    return 2;
  }
  if (!peers_ok) {
    err << "error: bad peer endpoint '" << bad_peer << "' (want host:port)\n";
    return 2;
  }
  std::string host;
  std::uint16_t advertise_port = 0;
  if (!options.advertise.empty() &&
      !net::parse_endpoint(options.advertise, host, advertise_port)) {
    err << "error: bad --advertise endpoint '" << options.advertise
        << "' (want host:port)\n";
    return 2;
  }
  options.port = static_cast<std::uint16_t>(port);
  // Blocks until SIGTERM/SIGINT, then drains and reports.
  return router::route_forever(options, out);
}

/// Indented key/value rendering of a stats reply (or any JSON object) —
/// `ebmf client --stats` output.
void print_json_tree(std::ostream& out, const std::string& prefix,
                     const io::json::Value& value) {
  if (value.is_object()) {
    for (const auto& [key, member] : value.members()) {
      const std::string path = prefix.empty() ? key : prefix + "." + key;
      print_json_tree(out, path, member);
    }
    return;
  }
  if (value.is_array()) {
    for (std::size_t i = 0; i < value.size(); ++i)
      print_json_tree(out, prefix + "[" + std::to_string(i) + "]",
                      value.at(i));
    return;
  }
  out << prefix << " = ";
  if (value.is_string())
    out << value.as_string();
  else if (value.is_number())
    out << io::json::number(value.as_number());
  else if (value.is_bool())
    out << (value.as_bool() ? "true" : "false");
  else
    out << "null";
  out << "\n";
}

/// The address list an `ebmf client` invocation talks to: the
/// comma-separated `--connect=H:P,H:P` list when given (HA fleets — the
/// Client fails over across it), else the single `--host`/`--port` pair.
/// False + usage error on a malformed entry.
bool client_endpoints(const Args& args, std::uint64_t port, std::ostream& err,
                      std::vector<std::string>& endpoints) {
  const std::string connect = args.get("connect", "");
  if (connect.empty()) {
    endpoints.push_back(args.get("host", "127.0.0.1") + ":" +
                        std::to_string(port));
    return true;
  }
  std::string bad;
  if (!net::parse_endpoint_list(connect, endpoints, &bad)) {
    err << "error: bad --connect endpoint '" << bad
        << "' (want host:port[,host:port...])\n";
    return false;
  }
  if (endpoints.empty()) {
    err << "error: --connect lists no endpoints\n";
    return false;
  }
  return true;
}

/// Stamp the serving endpoint into a reply line (`--connect` mode): the
/// caller of a failing-over client needs to know *who* answered, and the
/// JSON output line is where scripts read that from.
std::string stamp_endpoint(const std::string& reply,
                           const std::string& endpoint) {
  if (reply.empty() || reply.front() != '{') return reply;
  return "{\"endpoint\":\"" + io::json::escape(endpoint) + "\"," +
         reply.substr(1);
}

/// `ebmf client --stats`: ask the server/router for its counters and
/// pretty-print the reply one `path = value` line at a time. With --json
/// the raw stats line is emitted instead, so CI jobs and tools can assert
/// on counters without scraping the pretty format (with --connect the
/// line leads with the serving endpoint).
int client_stats(const Args& args, std::ostream& out, std::ostream& err) {
  FlagReader flags(args);
  const auto port = flags.count("port", 7421);
  if (!flags.valid(err) || port > 65535) return 2;
  std::vector<std::string> endpoints;
  if (!client_endpoints(args, port, err, endpoints)) return 2;
  try {
    service::Client client(endpoints);
    std::string reply = client.round_trip(R"({"op":"stats"})");
    if (args.has("connect")) reply = stamp_endpoint(reply, client.endpoint());
    const io::json::Value document = io::json::Value::parse(reply);
    if (document.find("error") != nullptr) {
      err << "error: " << document.find("error")->as_string() << "\n";
      return 1;
    }
    if (args.has("json"))
      out << reply << "\n";
    else
      print_json_tree(out, "", document);
    return 0;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

/// `ebmf client --metrics [--scope=fleet]`: fetch `{"op":"metrics"}` and
/// print the Prometheus text body unwrapped from its line-JSON envelope —
/// the exact bytes a scraper would ingest. `--scope=fleet` (router only)
/// returns the federated exposition across every backend and peer.
int client_metrics(const Args& args, std::ostream& out, std::ostream& err) {
  FlagReader flags(args);
  const auto port = flags.count("port", 7421);
  if (!flags.valid(err) || port > 65535) return 2;
  std::vector<std::string> endpoints;
  if (!client_endpoints(args, port, err, endpoints)) return 2;
  std::string request = R"({"op":"metrics"})";
  if (const std::string scope = args.get("scope", ""); !scope.empty())
    request = "{\"op\":\"metrics\",\"scope\":\"" + io::json::escape(scope) +
              "\"}";
  try {
    service::Client client(endpoints);
    const std::string reply = client.round_trip(request);
    const io::json::Value document = io::json::Value::parse(reply);
    if (const io::json::Value* error = document.find("error");
        error != nullptr && error->is_string()) {
      err << "error: " << error->as_string() << "\n";
      return 1;
    }
    const io::json::Value* body = document.find("body");
    if (body == nullptr || !body->is_string()) {
      err << "error: malformed metrics reply\n";
      return 1;
    }
    out << body->as_string();
    return 0;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

/// `ebmf client --get-trace=ID`: pull one completed trace's span tree from
/// the server/router ring (raw JSON with --json, `path = value` otherwise).
int client_get_trace(const Args& args, std::ostream& out, std::ostream& err) {
  FlagReader flags(args);
  const auto port = flags.count("port", 7421);
  const std::string id = args.get("get-trace", "");
  if (!flags.valid(err) || port > 65535 || id.empty()) {
    err << "usage: ebmf client --get-trace=TRACE_ID [--host=ADDR] "
           "[--port=P] [--json]\n";
    return 2;
  }
  std::vector<std::string> endpoints;
  if (!client_endpoints(args, port, err, endpoints)) return 2;
  try {
    service::Client client(endpoints);
    std::string reply = client.round_trip(
        "{\"op\":\"trace\",\"id\":\"" + io::json::escape(id) + "\"}");
    if (args.has("connect")) reply = stamp_endpoint(reply, client.endpoint());
    const io::json::Value document = io::json::Value::parse(reply);
    if (const io::json::Value* error = document.find("error");
        error != nullptr && error->is_string()) {
      err << "error: " << error->as_string() << "\n";
      return 1;
    }
    if (args.has("json"))
      out << reply << "\n";
    else
      print_json_tree(out, "", document);
    return 0;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

/// Pull a numeric member out of a JSON object; 0 when absent/mistyped.
double stat_num(const io::json::Value* object, const char* key) {
  if (object == nullptr || !object->is_object()) return 0.0;
  const io::json::Value* member = object->find(key);
  return member != nullptr && member->is_number() ? member->as_number() : 0.0;
}

/// Render one watch-stream line for `ebmf client --watch`. Raw mode passes
/// the JSONL through; otherwise frames become one human line each. Returns
/// false when the stream is over (the done line, or an error).
bool render_watch_line(std::ostream& out, const std::string& line, bool raw) {
  io::json::Value document;
  try {
    document = io::json::Value::parse(line);
  } catch (const std::exception&) {
    return false;
  }
  const bool done = document.find("done") != nullptr;
  const bool error = document.find("error") != nullptr;
  if (raw) {
    out << line << "\n";
    return !done && !error;
  }
  if (error) {
    out << "watch: " << document.find("error")->as_string() << "\n";
    return false;
  }
  if (done) {
    out << "watch: done (" << io::json::number(stat_num(&document, "frames"))
        << " frames)\n";
    return false;
  }
  out << "watch: t=" << io::json::number(stat_num(&document, "seconds"))
      << "s";
  if (const io::json::Value* phase = document.find("phase");
      phase != nullptr && phase->is_string())
    out << " phase=" << phase->as_string();
  const double depth = stat_num(&document, "incumbent_depth");
  if (depth > 0) out << " depth=" << io::json::number(depth);
  out << " lower=" << io::json::number(stat_num(&document, "lower_bound"))
      << " gap=" << io::json::number(stat_num(&document, "gap"));
  if (const double conflicts = stat_num(&document, "conflicts");
      conflicts > 0)
    out << " conflicts=" << io::json::number(conflicts);
  out << "\n";
  out.flush();
  return true;
}

/// `ebmf client <file> --watch`: submit the solve on one connection, then
/// subscribe to its live progress frames (`{"op":"watch"}`) on a second,
/// rendering each frame as it lands; the final reply prints last. The
/// subscription races the solve's registration, so an unknown-id error
/// retries briefly — and a solve that finished inside the race window just
/// skips straight to its reply.
int client_watch_solve(const std::vector<std::string>& endpoints,
                       const Args& args, const std::string& line,
                       std::ostream& out, std::ostream& err) {
  try {
    service::Client solver(endpoints);
    solver.send_line(line);
    try {
      service::Client watcher(endpoints);
      bool streaming = false;
      for (int attempt = 0; attempt < 40 && !streaming; ++attempt) {
        watcher.send_line(R"({"op":"watch","id":0})");
        std::string frame = watcher.read_line();
        if (!streaming && frame.find("no in-flight request") !=
                              std::string::npos) {
          std::this_thread::sleep_for(std::chrono::milliseconds(25));
          continue;
        }
        streaming = true;
        while (render_watch_line(out, frame, args.has("json")))
          frame = watcher.read_line();
      }
    } catch (const std::exception&) {
      // Watch is diagnostics, not the answer: a dead watch connection
      // (or a router without the verb) must not sink the solve below.
    }
    std::string reply = solver.read_line();
    const bool failed = reply.find("\"error\"") != std::string::npos &&
                        reply.rfind("{\"id\":0,\"error\"", 0) == 0;
    if (args.has("connect")) reply = stamp_endpoint(reply, solver.endpoint());
    out << reply << "\n";
    return failed ? 1 : 0;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

int cmd_client(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.has("metrics")) {
    if (!args.positional.empty()) {
      err << "error: --metrics takes no matrix files\n";
      return 2;
    }
    return client_metrics(args, out, err);
  }
  if (args.has("get-trace")) {
    if (!args.positional.empty()) {
      err << "error: --get-trace takes no matrix files\n";
      return 2;
    }
    return client_get_trace(args, out, err);
  }
  if (args.has("stats")) {
    if (!args.positional.empty()) {
      err << "error: --stats takes no matrix files\n";
      return 2;
    }
    return client_stats(args, out, err);
  }
  if (args.positional.empty()) {
    err << "usage: ebmf client <matrix-file>... [--host=ADDR] [--port=P] "
           "[--connect=H:P,H:P] "
        << kRequestFlagsUsage
        << " [--dont-cares] [--split] [--include-partition] [--trace] "
           "[--binary] [--watch [--json]] [--stats [--json]] "
           "[--metrics [--scope=fleet]] [--get-trace=ID [--json]]\n";
    return 2;
  }
  if (args.has("watch") && args.positional.size() != 1) {
    err << "error: --watch follows a single matrix file\n";
    return 2;
  }
  const engine::Engine engine;
  engine::SolveRequest base;
  if (!request_from(args, engine, base, err)) return 2;
  FlagReader flags(args);
  const auto port = flags.count("port", 7421);
  const auto threads = flags.count("threads", 0);
  const auto budget_seconds = flags.num("budget", 0.0);
  if (!flags.valid(err) || port > 65535) return 2;
  std::vector<std::string> endpoints;
  if (!client_endpoints(args, port, err, endpoints)) return 2;
  const bool masked_input =
      args.has("dont-cares") || base.strategy == "completion";

  std::vector<io::WireRequest> wires;
  std::vector<std::string> lines;
  for (const auto& path : args.positional) {
    io::WireRequest wire;
    wire.request = base;
    wire.request.label = path;
    // Correlation ids make retries safe to count: a re-sent request whose
    // first copy actually landed is answered exactly once by the client's
    // id dedupe.
    wire.id = static_cast<std::int64_t>(lines.size());
    try {
      if (masked_input)
        wire.request.masked = io::load_masked(path);
      else
        wire.request.matrix = io::load_matrix(path);
    } catch (const std::exception& e) {
      err << path << ": error: " << e.what() << "\n";
      return 1;
    }
    wire.budget_seconds = budget_seconds;
    wire.split = args.has("split");
    wire.threads = threads;
    wire.include_partition = args.has("include-partition");
    if (args.has("trace")) {
      // Client-originated tracing: each request gets its own fresh trace
      // id; the reply's "trace" member carries the assembled spans.
      wire.has_trace = true;
      wire.trace = obs::make_trace_context();
    }
    lines.push_back(io::wire_request_json(wire));
    wires.push_back(std::move(wire));
  }

  if (args.has("watch"))
    return client_watch_solve(endpoints, args, lines[0], out, err);

  if (args.has("binary")) {
    // The binary-wire client: negotiate the frame protocol and ship solves
    // as type-1 frames. One endpoint, one socket — failover and redirect
    // chasing stay with the line client; this path exists to exercise and
    // measure the fast wire.
    std::string host;
    std::uint16_t client_port = 0;
    if (!net::parse_endpoint(endpoints[0], host, client_port)) {
      err << "error: bad endpoint '" << endpoints[0] << "'\n";
      return 2;
    }
    try {
      ebmf::net::FrameClient client(host, client_port);
      if (!client.upgrade())
        err << "note: server declined the upgrade; staying on the line "
               "protocol\n";
      constexpr std::size_t kWindow = 8;
      bool failed = false;
      std::size_t sent = 0;
      for (std::size_t received = 0; received < wires.size(); ++received) {
        while (sent < wires.size() && sent - received < kWindow) {
          client.send_request(wires[sent]);
          ++sent;
        }
        const std::string reply = client.read_reply();
        if (reply.rfind("{\"error\"", 0) == 0) failed = true;
        if (reply.rfind("{\"id\":", 0) == 0) {
          const std::size_t comma = reply.find(',');
          if (comma != std::string::npos &&
              reply.compare(comma + 1, 8, "\"error\"") == 0)
            failed = true;
        }
        out << reply << "\n";
      }
      return failed ? 1 : 0;
    } catch (const std::exception& e) {
      err << "error: " << e.what() << "\n";
      return 1;
    }
  }

  try {
    service::Client client(endpoints);
    const bool stamp = args.has("connect");
    // Pipeline with a bounded window: blasting every line before reading
    // any reply can deadlock two blocking peers once both socket buffers
    // fill (server stuck in send, client stuck in send). Eight in flight
    // keeps the server's micro-batching fed while bounding buffered bytes.
    constexpr std::size_t kWindow = 8;
    bool failed = false;
    std::size_t sent = 0;
    for (std::size_t received = 0; received < lines.size(); ++received) {
      std::string reply;
      try {
        while (sent < lines.size() && sent - received < kWindow) {
          client.send_line(lines[sent]);
          ++sent;
        }
        reply = client.read_line();
      } catch (const std::runtime_error&) {
        // The connection died mid-window (backend restart, router
        // failover): replies for the in-flight tail are gone. Re-issue
        // the unanswered requests one at a time — round_trip fails over
        // across the address list, chases redirects, and its id dedupe
        // keeps a request that *did* land from being answered twice.
        sent = received;
        reply = client.round_trip(lines[sent]);
        ++sent;
      }
      // Error replies lead with "error" (after the echoed id, when one
      // was sent) — check before the endpoint stamp shifts the prefix.
      if (reply.rfind("{\"error\"", 0) == 0) failed = true;
      if (reply.rfind("{\"id\":", 0) == 0) {
        const std::size_t comma = reply.find(',');
        if (comma != std::string::npos &&
            reply.compare(comma + 1, 8, "\"error\"") == 0)
          failed = true;
      }
      if (stamp) reply = stamp_endpoint(reply, client.endpoint());
      out << reply << "\n";
    }
    return failed ? 1 : 0;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

/// One frame of `ebmf top`: counters, cache hit ratio, and the latency
/// quantiles of `<role>.request.micros` from the stats reply's metrics
/// block. `prev_requests`/`prev_seconds` carry rps state between frames
/// (-1 requests = first frame, no rate yet).
void render_top_frame(std::ostream& out, const std::string& endpoint,
                      const io::json::Value& document, double prev_requests,
                      double prev_seconds, double now_seconds) {
  const io::json::Value* role_value = document.find("role");
  const std::string role =
      role_value != nullptr && role_value->is_string() ? role_value->as_string()
                                                       : "server";
  const io::json::Value* tier = document.find(role.c_str());
  const double requests = stat_num(tier, "requests");
  out << "ebmf top — " << endpoint << " (" << role << ")\n";
  out << "  requests  " << io::json::number(requests);
  if (prev_requests >= 0 && now_seconds > prev_seconds) {
    const double rps =
        (requests - prev_requests) / (now_seconds - prev_seconds);
    out << "  (" << io::json::number(rps < 0 ? 0.0 : rps) << "/s)";
  }
  out << "   errors " << io::json::number(stat_num(tier, "errors"))
      << "   rejected " << io::json::number(stat_num(tier, "rejected"))
      << "   inflight " << io::json::number(stat_num(tier, "inflight")) << "/"
      << io::json::number(stat_num(tier, "max_inflight")) << "\n";
  // The local result cache: "l1" on a router, "cache" on a server.
  const io::json::Value* cache = document.find(role == "router" ? "l1"
                                                                : "cache");
  if (cache != nullptr && cache->is_object()) {
    const double hits = stat_num(cache, "hits");
    const double misses = stat_num(cache, "misses");
    const double total = hits + misses;
    out << "  cache     hits " << io::json::number(hits) << "  misses "
        << io::json::number(misses);
    if (total > 0)
      out << "  (" << io::json::number(100.0 * hits / total) << "% hit)";
    out << "  entries " << io::json::number(stat_num(cache, "entries"))
        << "\n";
  }
  const io::json::Value* metrics = document.find("metrics");
  const io::json::Value* latency =
      metrics != nullptr && metrics->is_object()
          ? metrics->find((role + ".request.micros").c_str())
          : nullptr;
  if (latency != nullptr && latency->is_object() &&
      stat_num(latency, "count") > 0) {
    out << "  latency   p50 " << io::json::number(stat_num(latency, "p50") /
                                                  1000.0)
        << "ms  p90 " << io::json::number(stat_num(latency, "p90") / 1000.0)
        << "ms  p99 " << io::json::number(stat_num(latency, "p99") / 1000.0)
        << "ms  max " << io::json::number(stat_num(latency, "max") / 1000.0)
        << "ms\n";
  }
  // In-flight requests (id-carrying solves mid-budget): what a
  // `{"op":"watch","id":N}` subscription would stream right now.
  const io::json::Value* live = document.find("inflight_requests");
  if (live != nullptr && live->is_array()) {
    for (std::size_t i = 0; i < live->size(); ++i) {
      const io::json::Value& entry = live->at(i);
      const io::json::Value* strategy = entry.find("strategy");
      out << "  in-flight id=" << io::json::number(stat_num(&entry, "id"))
          << "  "
          << (strategy != nullptr && strategy->is_string()
                  ? strategy->as_string()
                  : "?")
          << "  elapsed "
          << io::json::number(stat_num(&entry, "elapsed_ms") / 1000.0) << "s";
      const double depth = stat_num(&entry, "incumbent_depth");
      if (depth > 0)
        out << "  depth " << io::json::number(depth) << "  gap "
            << io::json::number(stat_num(&entry, "gap"));
      out << "\n";
    }
  }
  if (role == "router") {
    const io::json::Value* cluster = document.find("cluster");
    out << "  cluster   members "
        << io::json::number(stat_num(cluster, "members")) << "  epoch "
        << io::json::number(stat_num(cluster, "epoch")) << "  promotions "
        << io::json::number(stat_num(cluster, "promotions"))
        << "  replica_hits "
        << io::json::number(stat_num(cluster, "replica_hits"))
        << "  failovers " << io::json::number(stat_num(tier, "failovers"))
        << "\n";
    const io::json::Value* backends = document.find("backends");
    if (backends != nullptr && backends->is_array()) {
      for (std::size_t i = 0; i < backends->size(); ++i) {
        const io::json::Value& backend = backends->at(i);
        const io::json::Value* name = backend.find("endpoint");
        const io::json::Value* alive = backend.find("alive");
        out << "  backend   "
            << (name != nullptr && name->is_string() ? name->as_string()
                                                     : "?")
            << (alive != nullptr && alive->is_bool() && alive->as_bool()
                    ? "  up"
                    : "  DOWN")
            << "  requests " << io::json::number(stat_num(&backend,
                                                          "requests"))
            << "  failures " << io::json::number(stat_num(&backend,
                                                          "failures"))
            << "\n";
      }
    }
  }
}

/// One frame of `ebmf top --fleet`: a row per instance out of the
/// federated exposition a router's `{"op":"metrics","scope":"fleet"}`
/// returned, plus the fleet sum line the federation guarantees equals the
/// per-instance total.
void render_fleet_frame(std::ostream& out, const std::string& endpoint,
                        const std::string& body) {
  struct Row {
    double requests = 0;
    double errors = 0;
  };
  std::map<std::string, Row> rows;
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    const std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    const std::size_t brace = line.find("{instance=\"");
    if (line.empty() || line[0] == '#' || brace == std::string::npos)
      continue;
    const std::string name = line.substr(0, brace);
    const bool requests = name == "ebmf_server_requests_total" ||
                          name == "ebmf_router_requests_total";
    const bool errors = name == "ebmf_server_errors_total" ||
                        name == "ebmf_router_errors_total";
    if (!requests && !errors) continue;
    const std::size_t quote = line.find('"', brace + 11);
    const std::size_t space =
        quote == std::string::npos ? quote : line.find(' ', quote);
    if (space == std::string::npos) continue;
    const std::string instance = line.substr(brace + 11, quote - brace - 11);
    const double value = std::strtod(line.c_str() + space + 1, nullptr);
    Row& row = rows[instance];
    if (requests)
      row.requests += value;
    else
      row.errors += value;
  }
  const bool has_fleet = rows.count("fleet") != 0;
  out << "ebmf top — fleet via " << endpoint << " ("
      << (has_fleet ? rows.size() - 1 : rows.size()) << " instances)\n";
  for (const auto& [instance, row] : rows) {
    if (instance == "fleet") continue;
    out << "  " << instance << "  requests "
        << io::json::number(row.requests) << "  errors "
        << io::json::number(row.errors) << "\n";
  }
  if (has_fleet) {
    const Row& fleet = rows.find("fleet")->second;
    out << "  fleet (sum)  requests " << io::json::number(fleet.requests)
        << "  errors " << io::json::number(fleet.errors) << "\n";
  }
}

/// `ebmf top --connect=H:P [--watch=SECONDS] [--fleet]`: a live text
/// dashboard over the stats verb — rps, inflight (plus the in-flight
/// request panel), cache hit ratio, latency quantiles, and (on a router)
/// cluster/backend health. `--fleet` asks a router for federated metrics
/// instead and shows one row per instance. Without --watch it prints one
/// frame and exits (scriptable); with it, repaints in place until
/// interrupted.
int cmd_top(const Args& args, std::ostream& out, std::ostream& err) {
  FlagReader flags(args);
  const double watch = flags.num("watch", 0.0);
  const bool fleet = args.has("fleet");
  const std::string connect = args.get("connect", "");
  std::string host;
  std::uint16_t port = 0;
  if (!flags.valid(err) || watch < 0 || connect.empty() ||
      !net::parse_endpoint(connect, host, port)) {
    err << "usage: ebmf top --connect=HOST:PORT [--watch=SECONDS] "
           "[--fleet]\n";
    return 2;
  }
  double prev_requests = -1.0;
  double prev_seconds = 0.0;
  bool first_frame = true;
  const auto start = std::chrono::steady_clock::now();
  while (true) {
    std::string reply;
    try {
      service::Client client(host, port);
      reply = client.round_trip(fleet ? R"({"op":"metrics","scope":"fleet"})"
                                      : R"({"op":"stats"})");
    } catch (const std::exception& e) {
      err << "error: " << e.what() << "\n";
      return 1;
    }
    const double now_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    io::json::Value document;
    try {
      document = io::json::Value::parse(reply);
    } catch (const std::exception& e) {
      err << "error: bad stats reply: " << e.what() << "\n";
      return 1;
    }
    if (const io::json::Value* error = document.find("error");
        error != nullptr && error->is_string()) {
      err << "error: " << error->as_string() << "\n";
      return 1;
    }
    std::ostringstream frame;
    if (fleet) {
      const io::json::Value* body = document.find("body");
      if (body == nullptr || !body->is_string()) {
        err << "error: malformed fleet metrics reply\n";
        return 1;
      }
      render_fleet_frame(frame, connect, body->as_string());
    } else {
      render_top_frame(frame, connect, document, prev_requests, prev_seconds,
                       now_seconds);
    }
    if (watch > 0) {
      // Repaint in place: clear once to own the screen, then cursor-home
      // plus erase-to-end-of-line per row and erase-below for the rest —
      // no full-screen clear between frames, so the display never
      // flickers blank under a slow terminal.
      if (first_frame) out << "\033[2J";
      out << "\033[H";
      std::istringstream rows(frame.str());
      std::string row;
      while (std::getline(rows, row)) out << row << "\033[K\n";
      out << "\033[J";
    } else {
      out << frame.str();
    }
    first_frame = false;
    out.flush();
    if (watch <= 0) return 0;
    if (!fleet) {
      const io::json::Value* role = document.find("role");
      const io::json::Value* tier =
          role != nullptr && role->is_string()
              ? document.find(role->as_string().c_str())
              : nullptr;
      prev_requests = stat_num(tier, "requests");
      prev_seconds = now_seconds;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(watch));
  }
}

int cmd_convert(const Args& args, std::ostream& /*out*/, std::ostream& err) {
  if (args.positional.size() != 2) {
    err << "usage: ebmf convert <in-file> <out-file>  (format by extension: "
           ".pbm, .sparse, else dense)\n";
    return 2;
  }
  io::save_matrix(args.positional[1], io::load_matrix(args.positional[0]));
  return 0;
}

}  // namespace

std::string usage() {
  return "ebmf — depth-optimal rectangular addressing (EBMF)\n"
         "\n"
         "usage: ebmf <command> [args]\n"
         "\n"
         "commands:\n"
         "  solve <file>...     partition pattern(s) via the engine facade\n"
         "  serve               long-lived line-JSON solver server (TCP)\n"
         "  route <h:p>...      canon-key sharding front tier over servers\n"
         "  client <file>...    send patterns to a running server/router\n"
         "  top                 live dashboard over a server/router's stats\n"
         "  strategies          list the registered solving strategies\n"
         "  bounds <file>       rank / fooling / trivial / packing bracket\n"
         "  fooling <file>      fooling set (--exact for maximum)\n"
         "  components <file>   preprocessing report\n"
         "  schedule <file>     AOD pulse schedule of the solution\n"
         "  generate <family>   rand | opt | gap | qldpc | atom instance\n"
         "  convert <in> <out>  rewrite between dense/sparse/PBM formats\n"
         "  encode <file>       emit the SMT decision problem as DIMACS CNF\n"
         "\n"
         "solve strategies: auto (sap or completion), sap (exact, anytime "
         "bracket),\n"
         "heuristic, trivial, completion; run a command without arguments "
         "for its flags\n";
}

int run_command(const std::string& command,
                const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err) {
  try {
    const Args parsed = parse_args(args);
    if (command == "solve") return cmd_solve(parsed, out, err);
    if (command == "serve") return cmd_serve(parsed, out, err);
    if (command == "route") return cmd_route(parsed, out, err);
    if (command == "client") return cmd_client(parsed, out, err);
    if (command == "top") return cmd_top(parsed, out, err);
    if (command == "strategies") return cmd_strategies(parsed, out, err);
    if (command == "bounds") return cmd_bounds(parsed, out, err);
    if (command == "fooling") return cmd_fooling(parsed, out, err);
    if (command == "components") return cmd_components(parsed, out, err);
    if (command == "schedule") return cmd_schedule(parsed, out, err);
    if (command == "generate") return cmd_generate(parsed, out, err);
    if (command == "convert") return cmd_convert(parsed, out, err);
    if (command == "encode") return cmd_encode(parsed, out, err);
    err << "unknown command '" << command << "'\n" << usage();
    return 2;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

int run(int argc, char** argv, std::ostream& out, std::ostream& err) {
  if (argc < 2) {
    err << usage();
    return 2;
  }
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) args.emplace_back(argv[i]);
  return run_command(argv[1], args, out, err);
}

}  // namespace ebmf::cli
