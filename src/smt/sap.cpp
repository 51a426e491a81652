#include "smt/sap.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

#include "core/fooling.h"
#include "core/preprocess.h"
#include "engine/thread_pool.h"
#include "obs/events.h"
#include "support/stopwatch.h"

namespace ebmf {

namespace {

void accumulate_stats(sat::SolverStats& into, const sat::SolverStats& from) {
  into.decisions += from.decisions;
  into.propagations += from.propagations;
  into.conflicts += from.conflicts;
  into.restarts += from.restarts;
  into.learned_clauses += from.learned_clauses;
  into.learned_literals += from.learned_literals;
  into.minimized_literals += from.minimized_literals;
  into.deleted_clauses += from.deleted_clauses;
  into.arena_gcs += from.arena_gcs;
  // A footprint gauge, not a counter: report the largest solver arena seen
  // (summing probe clones would over-count the same formula many times).
  into.arena_bytes = std::max(into.arena_bytes, from.arena_bytes);
}

/// Hard ceiling on the race width: every probe owns a full formula clone
/// and a transient thread, and a service can have many requests in flight
/// at once, so an unbounded client-supplied width must not translate into
/// unbounded threads.
constexpr std::size_t kMaxProbes = 64;

/// Estimated seconds per encoding work unit. Both encoders emit
/// Θ(cells²·bound) clauses (Eq. 4 per cross pair, per label or bit), and
/// the constructor cannot be interrupted once started — so a deadline-
/// bounded solve must refuse formulas it cannot even build in time.
/// Calibration (one-hot, the default; 4-vCPU Xeon, g++ 12.2, Release):
/// 454 cells at bound 29 take 1.0 s (1.7e-7 s per unit), 760 at 23 take
/// 2.5 s (1.9e-7) and 782 at 39 take 5.1 s (2.1e-7). The binary encoder
/// builds 2–3× faster.
constexpr double kEncodeSecondsPerUnit = 2e-7;

/// Refuse the SMT phase when building the first formula would by itself
/// consume most of the remaining deadline (Budget::affords).
bool smt_encode_affordable(std::size_t cells, std::size_t bound,
                           const Budget& budget) {
  return budget.affords(kEncodeSecondsPerUnit * static_cast<double>(cells) *
                        static_cast<double>(cells) *
                        static_cast<double>(bound));
}

/// Branch-and-bound nodes the fooling-set search may spend before the SAT
/// phase: a count, not a time slice, so the certificate and the SAT work
/// after it never depend on the host. Every Table 1 instance that gets this
/// far settles in under 64 nodes. A node's work grows with the graph's
/// width in words, so graphs wider than 64 words (4,096 cells) get
/// proportionally fewer nodes (fooling_nodes).
constexpr std::uint64_t kFoolingNodes = 4096;

/// Ceiling on the fooling search's compatibility graph, one packed row of
/// ⌈cells/64⌉ words per 1-cell (about cells²/8 bytes). 256 MiB admits
/// 46,336 cells; the component of a 1000² qldpc block pattern at occupancy
/// 0.5 (seed 1) has 37,390.
constexpr std::size_t kFoolingGraphBytes = std::size_t{1} << 28;

/// Estimated seconds per pair of 1-cells to build that graph and colour it
/// once, the part of the search that polls no deadline. Calibration: the
/// 37,390 cells above take 0.36 s (4-vCPU Xeon, g++ 12.2, Release).
constexpr double kFoolingSecondsPerPair = 2.6e-10;

/// Process-wide ceiling on the graphs of the fooling searches running at
/// once, four at the per-search ceiling: a server solves one request per
/// worker, and the graphs must not grow with the worker count.
constexpr std::size_t kFoolingGraphBytesInFlight = 4 * kFoolingGraphBytes;

std::atomic<std::size_t> fooling_graph_bytes_in_flight{0};

/// A claim of `bytes` on kFoolingGraphBytesInFlight, released on
/// destruction; `held` is false (and nothing is claimed) when it does not
/// fit beside the searches already running.
struct GraphClaim {
  std::size_t bytes;
  bool held;

  explicit GraphClaim(std::size_t claimed)
      : bytes(claimed),
        held(fooling_graph_bytes_in_flight.fetch_add(claimed) + claimed <=
             kFoolingGraphBytesInFlight) {
    if (!held) fooling_graph_bytes_in_flight.fetch_sub(bytes);
  }
  ~GraphClaim() {
    if (held) fooling_graph_bytes_in_flight.fetch_sub(bytes);
  }
  GraphClaim(const GraphClaim&) = delete;
  GraphClaim& operator=(const GraphClaim&) = delete;
};

/// Bytes of the fooling search's graph on `cells` 1-cells.
std::size_t fooling_graph_bytes(std::size_t cells) {
  return cells * ((cells + 63) / 64) * sizeof(std::uint64_t);
}

/// True when building that graph fits the deadline (Budget::affords).
bool fooling_affordable(std::size_t cells, const Budget& budget) {
  const auto pairs = static_cast<double>(cells) * static_cast<double>(cells);
  return budget.affords(kFoolingSecondsPerPair * pairs);
}

/// The search's node allowance: kFoolingNodes up to 64 words, then scaled
/// down by the width, so nodes × words stays under 4096 × 64. The 1000²
/// component above (585 words) gets 448 nodes and certifies the same 100
/// in 0.32 s as 4096 nodes do in 0.42 s.
std::uint64_t fooling_nodes(std::size_t cells) {
  const std::uint64_t words = std::max<std::uint64_t>((cells + 63) / 64, 64);
  return kFoolingNodes * 64 / words;
}

/// Race width: 0 means "hardware threads"; always clamped to kMaxProbes.
std::size_t resolve_probes(std::size_t requested) {
  if (requested == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    requested = hw == 0 ? 1 : static_cast<std::size_t>(hw);
  }
  return std::min(requested, kMaxProbes);
}

/// Live progress (obs/progress.h) over the whole pattern: the bracket
/// summed over every component, republished each time one component's SAT
/// or UNSAT answer narrows its own. r_B is additive over components, so a
/// frame's gap is the pattern's and never widens. No-op without a sink.
struct Progress {
  const Budget& budget;
  Stopwatch clock{};
  std::size_t upper = 0;  ///< Sum of the components' partition sizes.
  std::size_t lower = 0;  ///< Sum of their certified lower bounds.
  std::uint64_t conflicts = 0;  ///< Of the components already searched.

  void publish(const char* phase, std::uint64_t more_conflicts = 0,
               std::uint64_t wave = 0) const {
    if (!budget.progress) return;
    obs::ProgressFrame frame;
    frame.seconds = clock.seconds();
    frame.incumbent_depth = upper;
    frame.lower_bound = lower;
    frame.gap = upper > lower ? upper - lower : 0;
    frame.conflicts = conflicts + more_conflicts;
    frame.wave = wave;
    frame.phase = phase;
    budget.publish_progress(std::move(frame));
  }
};

/// The paper's sequential decreasing-b loop (Algorithm 1, lines 2-10),
/// stopping at the certified lower bound.
/// Preconditions: partition non-optimal, budget not exhausted.
void smt_phase_sequential(const BinaryMatrix& m, const SapOptions& options,
                          SapResult& result, Progress& progress) {
  Stopwatch phase;
  std::size_t b = result.partition.size() - 1;
  EBMF_ASSERT(b >= 1);  // size==rank handled by caller; rank >= 1
  smt::LabelFormula formula(m, b, options.encoder);
  result.smt_seconds += phase.seconds();  // encoding time counts too
  result.status = SapStatus::BoundedOnly;
  while (b >= result.certified_lower) {
    phase.restart();
    const sat::SolveResult answer = formula.solve(options.budget);
    const double call_seconds = phase.seconds();
    result.smt_seconds += call_seconds;
    result.smt_calls.push_back(SapSmtCall{b, answer, call_seconds});

    if (answer == sat::SolveResult::Sat) {
      Partition p = formula.extract_partition();
      EBMF_ENSURES(p.size() <= b);
      EBMF_ENSURES(static_cast<bool>(validate_partition(m, p)));
      progress.upper -= result.partition.size() - p.size();
      progress.publish("search", formula.solver().stats().conflicts);
      result.partition = std::move(p);
      // The extracted partition can use fewer than b rectangles; continue
      // below its size, not just below b.
      if (result.partition.size() <= result.certified_lower) {
        result.status = SapStatus::Optimal;
        break;
      }
      b = result.partition.size() - 1;
      formula.narrow(b);
    } else if (answer == sat::SolveResult::Unsat) {
      // No partition with <= b rectangles: the current one (size b+1 or the
      // heuristic's) is optimal.
      result.status = SapStatus::Optimal;
      progress.lower += b + 1 - result.certified_lower;
      progress.publish("search", formula.solver().stats().conflicts);
      result.certified_lower = b + 1;
      break;
    } else {
      break;  // budget exhausted: keep best-so-far, bounds stand
    }
    if (options.budget.exhausted()) break;
  }
  accumulate_stats(result.smt_stats, formula.solver().stats());
}

/// One probe of the bound race.
struct Probe {
  std::size_t bound = 0;
  sat::SolveResult answer = sat::SolveResult::Unknown;
  Partition partition;  ///< Valid when answer == Sat.
  /// The probe's formula, kept so a SAT winner's learnt clauses can seed
  /// the next wave's base instead of re-deriving them from scratch.
  std::unique_ptr<smt::LabelFormula> formula;
  double seconds = 0.0;
  sat::SolverStats stats;
  Budget budget;  ///< Per-probe cancellable budget.
  bool cancelled_by_rival = false;
  bool finished = false;
};

/// The parallel bound race: each wave clones the base formula once per
/// probe and decides "r_B ≤ b" for the `width` highest unresolved bounds
/// concurrently. Monotonicity makes cross-cancellation sound — a SAT answer
/// yielding a partition of size s makes every probe at bound ≥ s redundant
/// (their SAT is implied), and an UNSAT at b makes every probe at bound ≤ b
/// futile (their UNSAT is implied) — so winners retire losers through the
/// per-probe cancellation flags and the wave joins quickly. The merge reads
/// outcomes in bound order, never finish order, so the resulting bracket
/// (and, given enough budget, the final depth/status) is deterministic.
void smt_phase_race(const BinaryMatrix& m, const SapOptions& options,
                    std::size_t probes, SapResult& result,
                    Progress& progress) {
  Stopwatch phase;
  std::size_t hi = result.partition.size();  // best certified upper bound
  std::size_t cert_lo = result.certified_lower;  // best certified lower bound
  EBMF_ASSERT(hi >= cert_lo + 1);
  auto base =
      std::make_unique<smt::LabelFormula>(m, hi - 1, options.encoder);
  result.status = SapStatus::BoundedOnly;
  result.probes_used = probes;

  while (hi > cert_lo && !options.budget.exhausted()) {
    const std::size_t wave_hi = hi, wave_lo = cert_lo;
    const std::size_t width = std::min(probes, hi - cert_lo);
    obs::emit_event(obs::EventCode::SmtWaveLaunch, result.probe_waves + 1,
                    hi - width);
    std::vector<Probe> wave(width);
    for (std::size_t i = 0; i < width; ++i) {
      wave[i].bound = hi - 1 - i;
      wave[i].budget = options.budget;
      // Keep the caller's cancellation reachable while giving the race its
      // own per-probe retirement flag.
      wave[i].budget.also_cancel = options.budget.cancel;
      wave[i].budget.cancel = std::make_shared<std::atomic<bool>>(false);
    }

    std::mutex mutex;
    std::size_t wave_best = hi;  // smallest SAT partition size this wave

    const auto run_probe = [&](std::size_t i) {
      Stopwatch sw;
      std::unique_ptr<smt::LabelFormula> formula = base->clone();
      if (wave[i].bound < formula->bound()) formula->narrow(wave[i].bound);
      const sat::SolveResult answer = formula->solve(wave[i].budget);
      Partition p;
      if (answer == sat::SolveResult::Sat) p = formula->extract_partition();

      const std::lock_guard<std::mutex> lock(mutex);
      wave[i].answer = answer;
      wave[i].seconds = sw.seconds();
      wave[i].stats = formula->solver().stats();
      wave[i].formula = std::move(formula);
      wave[i].finished = true;
      if (answer == sat::SolveResult::Sat) {
        wave[i].partition = std::move(p);
        wave_best = std::min(wave_best, wave[i].partition.size());
        for (Probe& rival : wave) {
          if (!rival.finished && rival.bound >= wave_best) {
            rival.budget.request_cancel();
            rival.cancelled_by_rival = true;
          }
        }
      } else if (answer == sat::SolveResult::Unsat) {
        for (Probe& rival : wave) {
          if (!rival.finished && rival.bound <= wave[i].bound) {
            rival.budget.request_cancel();
            rival.cancelled_by_rival = true;
          }
        }
      }
    };

    // One worker per probe through the engine's fork-join pool (width is
    // already clamped to kMaxProbes).
    engine::parallel_for(width, width, run_probe);

    // Deterministic merge: outcomes are read highest bound first.
    ++result.probe_waves;
    result.probe_calls += width;
    bool moved = false;
    Probe* winner = nullptr;
    for (Probe& probe : wave) {
      result.smt_calls.push_back(
          SapSmtCall{probe.bound, probe.answer, probe.seconds});
      accumulate_stats(result.smt_stats, probe.stats);
      if (probe.answer == sat::SolveResult::Sat) {
        EBMF_ENSURES(probe.partition.size() <= probe.bound);
        EBMF_ENSURES(
            static_cast<bool>(validate_partition(m, probe.partition)));
        if (probe.partition.size() < hi) {
          hi = probe.partition.size();
          result.partition = std::move(probe.partition);
          winner = &probe;
          moved = true;
        }
      } else if (probe.answer == sat::SolveResult::Unsat) {
        cert_lo = std::max(cert_lo, probe.bound + 1);
        moved = true;
      } else if (probe.cancelled_by_rival) {
        ++result.probes_cancelled;
      }
    }
    // Seed the next wave from the SAT winner's solved formula: its learnt
    // clauses and activities carry over instead of every wave restarting
    // from the pristine base. (UNSAT formulas are never adopted — their
    // solver is in a terminal conflict state.)
    if (winner != nullptr) base = std::move(winner->formula);
    obs::emit_event(obs::EventCode::SmtWaveRetire, result.probe_waves, hi);
    // One frame per retired wave, carrying the merged bracket.
    progress.upper -= wave_hi - hi;
    progress.lower += cert_lo - wave_lo;
    progress.publish("wave", result.smt_stats.conflicts, result.probe_waves);
    // Every probe Unknown with no rival to blame: the shared budget (or a
    // per-call conflict cap) ran dry — keep the bracket and stop.
    if (!moved) break;
  }

  if (hi <= cert_lo) result.status = SapStatus::Optimal;
  // Keep the tightest certified lower bound even when the budget ran out
  // before the bracket closed — an UNSAT probe's proof must not be lost.
  result.certified_lower = std::max(result.certified_lower, cert_lo);
  result.smt_seconds += phase.seconds();
}

/// Algorithm 1's bracket on one irreducible matrix: the rank ladder below,
/// row packing above, and the fooling certificate when they disagree. No
/// SAT call is made. Returns true when the bracket is still open and the
/// SMT phase may search it; otherwise `result.status` is final.
bool sap_bracket(const BinaryMatrix& m, const SapOptions& options,
                 SapResult& result) {
  result.status = SapStatus::Optimal;
  if (m.is_zero()) return false;

  // Lower bound: the rank ladder (Eq. 3).
  Stopwatch phase;
  result.rank_lower = real_rank(m);
  result.certified_lower = result.rank_lower;
  result.rank_seconds = phase.seconds();

  // Upper bound: row packing (Algorithm 2). Stop early on a rank match —
  // such a partition is already provably optimal.
  RowPackingOptions packing = options.packing;
  if (packing.stop_at == 0) packing.stop_at = result.rank_lower;
  if (options.budget.limited() && !packing.budget.limited())
    packing.budget = options.budget;
  phase.restart();
  RowPackingResult heuristic = row_packing_ebmf(m, packing);
  result.heuristic_seconds = phase.seconds();
  result.partition = std::move(heuristic.partition);
  result.heuristic_size = result.partition.size();
  EBMF_ENSURES(static_cast<bool>(validate_partition(m, result.partition)));

  if (result.partition.size() == result.rank_lower) return false;
  result.status = SapStatus::HeuristicOnly;
  if (!options.use_smt) return false;

  // Fooling-set certificate (paper §II): k 1-cells no rectangle can share
  // prove r_B ≥ k. Only a set above the rank helps; one as large as the
  // packing closes the bracket with no formula built. It runs ahead of
  // the SMT refusals below, which it does not need, behind its own memory
  // and deadline gates.
  const std::size_t cells = m.ones_count();
  const std::size_t graph_bytes = fooling_graph_bytes(cells);
  bool refused = false;  // by the deadline, or by concurrent searches
  if (graph_bytes <= kFoolingGraphBytes) {
    const GraphClaim claim(graph_bytes);
    refused = !claim.held || !fooling_affordable(cells, options.budget);
    if (!refused) {
      phase.restart();
      Budget fooling_budget = options.budget;
      fooling_budget.max_nodes = fooling_nodes(cells);
      const CellSet fooling = max_fooling_set(
          m, fooling_budget, result.rank_lower, result.partition.size());
      result.fooling_seconds = phase.seconds();
      result.fooling_size = fooling.size();
      if (fooling.size() > result.rank_lower) {
        EBMF_ENSURES(is_fooling_set(m, fooling));
        result.certified_lower = fooling.size();
      }
    }
  }
  if (result.certified_lower == result.partition.size()) {
    result.status = SapStatus::Optimal;
    return false;
  }
  // Past the cell guard no formula is built. The bracket is HeuristicOnly,
  // the same at any budget, only when neither the deadline nor concurrent
  // searches refused the fooling search and the deadline did not stop it.
  // Otherwise a later attempt could tighten it, so it is BoundedOnly, and
  // a cached copy is retried under a larger budget.
  if (options.smt_cell_limit != 0 && cells > options.smt_cell_limit) {
    if (refused || options.budget.exhausted())
      result.status = SapStatus::BoundedOnly;
    return false;
  }
  // The encoders are not interruptible; refuse a formula whose mere
  // construction would blow through the deadline and keep the bracket.
  result.status = SapStatus::BoundedOnly;
  return smt_encode_affordable(cells, result.partition.size() - 1,
                               options.budget) &&
         !options.budget.exhausted();
}

/// SMT phase on one bracketed matrix: query r_B(M) <= b for decreasing b
/// (Algorithm 1, lines 2-10). With a race width > 1 and at least two
/// unresolved bounds, the decreasing-b probes run concurrently; otherwise
/// the sequential loop (which also reuses one incrementally-narrowed
/// formula) is the better fit.
void sap_search(const BinaryMatrix& m, const SapOptions& options,
                SapResult& result, Progress& progress) {
  const std::size_t probes = resolve_probes(options.probes);
  if (probes >= 2 && result.partition.size() >= result.certified_lower + 2)
    smt_phase_race(m, options, probes, result, progress);
  else
    smt_phase_sequential(m, options, result, progress);
  progress.conflicts += result.smt_stats.conflicts;
  EBMF_ENSURES(result.partition.size() >= result.rank_lower);
}

}  // namespace

SapResult sap_solve(const BinaryMatrix& m, const SapOptions& options) {
  Stopwatch total;
  // Exactness-preserving reductions: collapse duplicates, then split the
  // bipartite row/column graph into connected components; r_B is additive
  // over components and invariant under the collapse (see preprocess.h).
  // Without preprocessing the whole matrix is the one piece.
  DuplicateReduction reduction;
  std::vector<Component> components;
  if (options.preprocess) {
    reduction = reduce_duplicates(m);
    components = split_components(reduction.reduced);
  }
  const std::size_t pieces = options.preprocess ? components.size() : 1;
  const auto piece = [&](std::size_t c) -> const BinaryMatrix& {
    return options.preprocess ? components[c].matrix : m;
  };

  // Bracket every piece before any SAT call, so the first frame already
  // carries the whole pattern's bracket; then search the open ones.
  Progress progress{options.budget};
  std::vector<SapResult> subs(pieces);
  std::vector<bool> open(pieces);
  for (std::size_t c = 0; c < pieces; ++c) {
    open[c] = sap_bracket(piece(c), options, subs[c]);
    progress.upper += subs[c].partition.size();
    progress.lower += subs[c].certified_lower;
  }
  progress.publish("seed");
  for (std::size_t c = 0; c < pieces; ++c)
    if (open[c]) sap_search(piece(c), options, subs[c], progress);
  progress.publish("final");

  if (!options.preprocess) {
    subs[0].total_seconds = total.seconds();
    return std::move(subs[0]);
  }
  SapResult aggregate;
  aggregate.status = SapStatus::Optimal;
  Partition reduced_partition;
  for (std::size_t c = 0; c < pieces; ++c) {
    const SapResult& sub = subs[c];
    Partition lifted =
        lift_partition(sub.partition, components[c], reduction.reduced.rows(),
                       reduction.reduced.cols());
    reduced_partition.insert(reduced_partition.end(),
                             std::make_move_iterator(lifted.begin()),
                             std::make_move_iterator(lifted.end()));
    aggregate.rank_lower += sub.rank_lower;
    aggregate.certified_lower += sub.certified_lower;  // r_B is additive
    aggregate.heuristic_size += sub.heuristic_size;
    aggregate.rank_seconds += sub.rank_seconds;
    aggregate.heuristic_seconds += sub.heuristic_seconds;
    aggregate.fooling_size += sub.fooling_size;
    aggregate.fooling_seconds += sub.fooling_seconds;
    aggregate.smt_seconds += sub.smt_seconds;
    aggregate.smt_calls.insert(aggregate.smt_calls.end(),
                               sub.smt_calls.begin(), sub.smt_calls.end());
    accumulate_stats(aggregate.smt_stats, sub.smt_stats);
    aggregate.probes_used = std::max(aggregate.probes_used, sub.probes_used);
    aggregate.probe_waves += sub.probe_waves;
    aggregate.probe_calls += sub.probe_calls;
    aggregate.probes_cancelled += sub.probes_cancelled;
    // A budget-cut piece leaves the whole answer budget-dependent, so
    // BoundedOnly outranks HeuristicOnly.
    if (sub.status == SapStatus::BoundedOnly ||
        aggregate.status == SapStatus::Optimal)
      aggregate.status = sub.status;
  }
  aggregate.partition = expand_partition(reduced_partition, reduction);
  aggregate.total_seconds = total.seconds();
  EBMF_ENSURES(
      static_cast<bool>(validate_partition(m, aggregate.partition)));
  EBMF_ENSURES(aggregate.partition.size() >= aggregate.rank_lower);
  return aggregate;
}

}  // namespace ebmf
