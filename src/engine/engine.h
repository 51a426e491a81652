#pragma once
/// \file engine.h
/// \brief The unified solving facade: one request type, one report type, a
/// registry of named strategies, and batch/component-parallel execution.
///
/// Before the facade each backend (sap_solve, completion::solve_masked,
/// row packing, the FTQC two-level path) had bespoke options and result
/// structs, and the CLI, benches, and examples re-implemented dispatch,
/// timing, and validation by hand. `ebmf::engine` is the single
/// stable surface they now share, in the spirit of portfolio SAT solvers.
///
/// ## Request / report schema
///
/// A SolveRequest carries:
///  * the pattern — `matrix` (dense) or `masked` (with don't-cares; takes
///    precedence when set; non-completion strategies solve its DC-as-0
///    pattern, which is always admissible),
///  * a `strategy` name resolved against the SolverRegistry ("auto" picks
///    `completion` for don't-cares and `sap` otherwise),
///  * a shared `Budget` (deadline, per-call conflict cap, node cap,
///    cancellation flag) honoured by every backend,
///  * common knobs (trials/seed/stop_at for the heuristic phase, encoding
///    and symmetry breaking for the SMT lowering, preprocess,
///    smt_cell_limit, don't-care semantics),
///  * an optional `label` echoed into the report (batch bookkeeping).
///
/// A SolveReport unifies every backend's answer:
///  * `status` — Optimal (certified), Bounded (search cut by budget; the
///    [lower_bound, upper_bound] bracket stands), Heuristic (no SAT
///    search was attempted and the deadline shaped no bound, so the
///    answer is the same at any budget),
///  * `lower_bound` / `upper_bound` on r_B, with `partition` a valid
///    witness of the upper bound (the engine validates it),
///  * per-phase `timings` (e.g. "rank", "heuristic", "smt") and
///    `total_seconds`,
///  * backend-specific stats as key/value `telemetry` (e.g. "sat.conflicts",
///    "smt.calls", "auto.selected").
///
/// ## Registering a new strategy
///
/// \code
///   SolverRegistry registry = SolverRegistry::with_builtins();
///   registry.add("mysolver", "one-line description",
///                [](const SolveRequest& request) {
///                  SolveReport report;
///                  report.partition = ...;     // must validate!
///                  report.status = Status::Heuristic;
///                  report.lower_bound = ...;
///                  return report;
///                });
///   Engine engine(std::move(registry));
///   auto report = engine.solve(SolveRequest::dense(m, "mysolver"));
/// \endcode
///
/// Engine::solve fills label/strategy/upper_bound/total_seconds and
/// validates the partition, so strategies only produce the solver-specific
/// parts. Unknown names throw UnknownStrategyError (callers that must not
/// throw — the CLI — check registry().contains() first).

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <memory>

#include "completion/completion_solver.h"
#include "core/matrix.h"
#include "core/partition.h"
#include "core/row_packing.h"
#include "obs/trace.h"
#include "smt/label_formula.h"
#include "support/budget.h"

namespace ebmf::cache {
class ResultCache;  // service/cache.h — attached via Engine::set_cache
}  // namespace ebmf::cache

namespace ebmf::engine {

/// How strong the report's optimality claim is.
enum class Status {
  Optimal,    ///< upper_bound == r_B, certified.
  Bounded,    ///< Bound search cut by budget; lower ≤ r_B ≤ upper stands.
  Heuristic,  ///< No SAT search, no bound cut by the deadline; same
              ///< bracketing as above, the same at any budget.
};

/// Lower-case name of a status ("optimal" / "bounded" / "heuristic").
const char* to_string(Status status) noexcept;

/// One solving task for Engine::solve / solve_batch.
struct SolveRequest {
  BinaryMatrix matrix;  ///< Dense pattern (ignored when `masked` is set).
  /// Masked pattern with don't-cares; takes precedence over `matrix`.
  std::optional<completion::MaskedMatrix> masked;
  std::string strategy = "auto";  ///< Registry name of the backend.
  Budget budget;                  ///< Shared resource budget.

  // -- common knobs ------------------------------------------------------
  std::size_t trials = 100;   ///< Heuristic packing passes per orientation.
  std::uint64_t seed = 1;     ///< Shuffle seed (deterministic streams).
  std::size_t stop_at = 0;    ///< Heuristic early-stop at |P| ≤ stop_at.
  RowOrder order = RowOrder::Shuffle;  ///< Packing row order.
  bool basis_update = true;   ///< Algorithm 2 basis update (lines 9–16).
  bool use_transpose = true;  ///< Also pack Mᵀ, keep the better result.
  bool preprocess = true;     ///< Dedup + component split before search.
  std::size_t smt_cell_limit = 0;  ///< Skip SMT above this many 1-cells.
  /// Ignored: `sap` runs the paper's sequential decreasing-b loop. The
  /// field once set the width of a parallel bound race; the wire still
  /// accepts and range-checks it, and it stays declared only until the
  /// benchmark harness stops assigning it.
  std::size_t probes = 1;
  smt::LabelEncoding encoding = smt::LabelEncoding::OneHot;
  bool symmetry_breaking = true;   ///< Label symmetry breaking in the CNF.
  completion::DontCareSemantics semantics =
      completion::DontCareSemantics::Free;

  std::string label;  ///< Free-form identifier echoed into the report.

  /// Binary-wire fast path (router→backend): `matrix` is already in
  /// canonical form and canon_hi/canon_lo carry its 128-bit canonical key,
  /// so a cache-attached engine skips canonicalization and lifting (the
  /// lift is the identity). Soundness does not rest on the caller being
  /// honest: the cache compares the full stored pattern on lookup and the
  /// engine validates every partition, so a wrong key can only cost
  /// hits/pollute a slot, never serve a wrong answer.
  bool pre_canonical = false;
  std::uint64_t canon_hi = 0;  ///< Canonical key, high 64 bits.
  std::uint64_t canon_lo = 0;  ///< Canonical key, low 64 bits.

  /// Optional span recorder of the traced request this solve belongs to
  /// (see obs/trace.h). When set, the engine records queue-wait, canon,
  /// cache-lookup, solve, and lift spans into it; null (the default) costs
  /// nothing. The recorder's context carries the parent span id the
  /// engine's spans attach under.
  obs::TracePtr trace;

  /// Convenience: a dense request.
  static SolveRequest dense(BinaryMatrix m, std::string strategy = "auto");

  /// Convenience: a masked request (defaults to the completion backend).
  static SolveRequest with_mask(completion::MaskedMatrix m,
                                std::string strategy = "completion");

  /// The dense view every backend can solve: the masked pattern with
  /// don't-cares read as 0, or `matrix` when no mask is set.
  [[nodiscard]] const BinaryMatrix& pattern() const;

  /// True when the request carries don't-care cells.
  [[nodiscard]] bool has_dont_cares() const {
    return masked.has_value() && masked->dont_care_count() > 0;
  }
};

/// Wall-clock spent in one named phase of a solve.
struct PhaseTiming {
  std::string phase;
  double seconds = 0.0;
};

/// The unified answer of every strategy.
struct SolveReport {
  std::string label;     ///< Copied from the request.
  std::string strategy;  ///< Strategy that produced the partition.
  Status status = Status::Heuristic;
  std::size_t lower_bound = 0;  ///< Proven lower bound on r_B (0 = none).
  /// |partition| (filled by the engine): the depth of the best incumbent.
  /// Replies still carry it a second time as `incumbent_depth`.
  std::size_t upper_bound = 0;
  /// Certified optimality gap: upper_bound − lower_bound, clamped at 0.
  /// Invariant (engine-finalized): gap == 0 iff status == Optimal for any
  /// solve that produced a partition.
  std::size_t gap = 0;
  Partition partition;          ///< Valid witness of the upper bound.
  std::vector<PhaseTiming> timings;  ///< Per-phase wall-clock.
  double total_seconds = 0.0;
  /// Backend-specific statistics as ordered key/value pairs.
  std::vector<std::pair<std::string, std::string>> telemetry;

  /// Depth of the addressing schedule = |partition|.
  [[nodiscard]] std::size_t depth() const noexcept { return partition.size(); }

  /// True when the result is certified depth-optimal.
  [[nodiscard]] bool proven_optimal() const noexcept {
    return status == Status::Optimal;
  }

  /// Accumulate `seconds` under `phase` (merging with an existing entry).
  void add_timing(const std::string& phase, double seconds);

  /// Seconds recorded under `phase` (0 when absent).
  [[nodiscard]] double timing(const std::string& phase) const;

  /// Record a telemetry entry. Keys are deduplicated last-write-wins: a
  /// repeated key overwrites the earlier value in place instead of growing
  /// the vector, so per-attempt stats emitted inside batch/retry loops
  /// cannot grow reports unboundedly.
  void add_telemetry(std::string key, std::string value);
  void add_telemetry(std::string key, std::uint64_t value);
  void add_telemetry(std::string key, double value);

  /// The value stored under `key`, or nullptr. Binary search over a lazily
  /// maintained sorted index (rebuilt when `telemetry` was mutated
  /// directly); duplicate keys from direct mutation resolve to the first
  /// occurrence, matching the pre-index linear scan.
  [[nodiscard]] const std::string* find_telemetry(
      const std::string& key) const;

  /// Numeric telemetry lookup (0 when absent or non-numeric).
  [[nodiscard]] std::uint64_t telemetry_count(const std::string& key) const;

 private:
  /// Positions into `telemetry`, sorted by key — the lookup fast path.
  /// Lazy: valid only while telemetry_indexed_ == telemetry.size();
  /// rebuilt on the next lookup otherwise (the public vector is mutated
  /// directly by a few callers, e.g. the router's replication path).
  mutable std::vector<std::uint32_t> telemetry_index_;
  mutable std::size_t telemetry_indexed_ = 0;

  void refresh_telemetry_index() const;
  /// Index slot whose key equals `key`, or npos.
  [[nodiscard]] std::size_t telemetry_position(const std::string& key) const;
};

/// One-line JSON rendering of a report (no partition dump): status, bounds,
/// depth, timings, telemetry. Stable key order; safe to append to log files
/// one instance per line.
std::string to_json(const SolveReport& report);

/// Thrown by Engine::solve for a strategy name missing from the registry.
class UnknownStrategyError : public std::invalid_argument {
 public:
  UnknownStrategyError(const std::string& name,
                       const std::vector<std::string>& known);
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  std::string name_;
};

/// Named solving strategies. Copyable value type; Engine owns one.
class SolverRegistry {
 public:
  using StrategyFn = std::function<SolveReport(const SolveRequest&)>;

  /// One registered backend.
  struct Entry {
    std::string name;
    std::string description;
    StrategyFn solve;
  };

  /// Register (or replace) a strategy.
  void add(std::string name, std::string description, StrategyFn solve);

  /// Entry for `name`, or nullptr.
  [[nodiscard]] const Entry* find(const std::string& name) const noexcept;

  [[nodiscard]] bool contains(const std::string& name) const noexcept {
    return find(name) != nullptr;
  }

  /// All registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// A registry pre-loaded with the built-in strategies: "sap",
  /// "heuristic", "trivial", "completion", and the portfolio dispatcher
  /// "auto".
  static SolverRegistry with_builtins();

 private:
  std::map<std::string, Entry> entries_;
};

/// The facade: resolves strategy names, runs them, validates and finalizes
/// reports, and executes batches across a thread pool.
class Engine {
 public:
  /// An engine over the built-in registry.
  Engine() : registry_(SolverRegistry::with_builtins()) {}

  /// An engine over a caller-assembled registry.
  explicit Engine(SolverRegistry registry) : registry_(std::move(registry)) {}

  [[nodiscard]] const SolverRegistry& registry() const noexcept {
    return registry_;
  }
  [[nodiscard]] SolverRegistry& registry() noexcept { return registry_; }

  /// Attach a canonical-pattern result cache (see service/cache.h). With a
  /// cache attached, every dense solve — including solve_batch workers and
  /// solve_split components — first canonicalizes the pattern (dedup +
  /// component split + row/col sort) and answers permutation-equivalent
  /// repeats from the cache, lifting the stored partition back through the
  /// request's own permutation record. Reports gain `cache_hit`, `canon.*`,
  /// and `cache.*` telemetry. Masked (don't-care) requests bypass the
  /// cache. Pass nullptr to detach.
  void set_cache(std::shared_ptr<cache::ResultCache> cache) {
    cache_ = std::move(cache);
  }

  /// The attached cache (null when caching is disabled).
  [[nodiscard]] const std::shared_ptr<cache::ResultCache>& cache()
      const noexcept {
    return cache_;
  }

  /// Solve one request. Throws UnknownStrategyError for unregistered
  /// names. Postcondition: the report's partition is a valid partition of
  /// the request's pattern (masked-validated when don't-cares are present)
  /// and upper_bound == depth() for nonzero patterns.
  [[nodiscard]] SolveReport solve(const SolveRequest& request) const;

  /// Solve many requests across `threads` workers (0 = hardware
  /// concurrency). Results are returned in request order regardless of
  /// completion order, and with per-request seeds the whole batch is
  /// deterministic. A request whose strategy is unknown yields a report
  /// with telemetry "error"; the batch itself never throws for that.
  [[nodiscard]] std::vector<SolveReport> solve_batch(
      const std::vector<SolveRequest>& requests, std::size_t threads = 0) const;

  /// Component-parallel solve: apply the exactness-preserving reductions
  /// (duplicate collapse + connected-component split), solve each component
  /// as an independent sub-request across the pool, and merge the lifted
  /// partitions into one report. Falls back to solve() for masked requests,
  /// and to the whole-matrix path when there is at most one component or a
  /// single giant component holds ≥90% of the ones (the split would
  /// serialize on it and only pay overhead); the decision is recorded as
  /// `split.fallback` telemetry.
  [[nodiscard]] SolveReport solve_split(const SolveRequest& request,
                                        std::size_t threads = 0) const;

 private:
  SolveReport run_checked(const SolveRequest& request) const;
  SolveReport run_cached(const SolverRegistry::Entry& entry,
                         const SolveRequest& request) const;
  SolveReport run_precanonical(const SolverRegistry::Entry& entry,
                               const SolveRequest& request) const;

  SolverRegistry registry_;
  std::shared_ptr<cache::ResultCache> cache_;
};

}  // namespace ebmf::engine
