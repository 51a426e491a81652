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
/// Calibration: 27k cells at bound 31 takes ≈ 8 s to encode.
constexpr double kEncodeSecondsPerUnit = 4e-10;

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
/// far settles in under 64 nodes.
constexpr std::uint64_t kFoolingNodes = 4096;

/// Race width: 0 means "hardware threads"; always clamped to kMaxProbes.
std::size_t resolve_probes(std::size_t requested) {
  if (requested == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    requested = hw == 0 ? 1 : static_cast<std::size_t>(hw);
  }
  return std::min(requested, kMaxProbes);
}

/// The paper's sequential decreasing-b loop (Algorithm 1, lines 2-10),
/// stopping at the certified lower bound.
/// Preconditions: partition non-optimal, budget not exhausted.
void smt_phase_sequential(const BinaryMatrix& m, const SapOptions& options,
                          SapResult& result) {
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
                    std::size_t probes, SapResult& result) {
  Stopwatch phase;
  std::size_t hi = result.partition.size();  // best certified upper bound
  std::size_t cert_lo = result.certified_lower;  // best certified lower bound
  EBMF_ASSERT(hi >= cert_lo + 1);
  auto base =
      std::make_unique<smt::LabelFormula>(m, hi - 1, options.encoder);
  result.status = SapStatus::BoundedOnly;
  result.probes_used = probes;

  while (hi > cert_lo && !options.budget.exhausted()) {
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
    bool progress = false;
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
          progress = true;
        }
      } else if (probe.answer == sat::SolveResult::Unsat) {
        cert_lo = std::max(cert_lo, probe.bound + 1);
        progress = true;
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
    {
      // Live progress: one frame per retired wave, carrying the certified
      // bracket the deterministic merge just produced.
      obs::ProgressFrame frame;
      frame.seconds = phase.seconds();
      frame.incumbent_depth = hi;
      frame.lower_bound = cert_lo;
      frame.gap = hi > cert_lo ? hi - cert_lo : 0;
      frame.conflicts = result.smt_stats.conflicts;
      frame.wave = result.probe_waves;
      frame.phase = "wave";
      options.budget.publish_progress(std::move(frame));
    }
    // Every probe Unknown with no rival to blame: the shared budget (or a
    // per-call conflict cap) ran dry — keep the bracket and stop.
    if (!progress) break;
  }

  if (hi <= cert_lo) result.status = SapStatus::Optimal;
  // Keep the tightest certified lower bound even when the budget ran out
  // before the bracket closed — an UNSAT probe's proof must not be lost.
  result.certified_lower = std::max(result.certified_lower, cert_lo);
  result.smt_seconds += phase.seconds();
}

/// Algorithm 1 on one irreducible matrix (no preprocessing).
SapResult sap_solve_core(const BinaryMatrix& m, const SapOptions& options) {
  Stopwatch total;
  SapResult result;
  const auto finish = [&](SapStatus status) {
    result.status = status;
    result.total_seconds = total.seconds();
    return std::move(result);
  };
  if (m.is_zero()) return finish(SapStatus::Optimal);

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

  if (result.partition.size() == result.rank_lower)
    return finish(SapStatus::Optimal);
  if (!options.use_smt ||
      (options.smt_cell_limit != 0 &&
       m.ones_count() > options.smt_cell_limit))
    return finish(SapStatus::HeuristicOnly);
  // The encoders are not interruptible; refuse a formula whose mere
  // construction would blow through the deadline and keep the bracket.
  if (!smt_encode_affordable(m.ones_count(), result.partition.size() - 1,
                             options.budget))
    return finish(SapStatus::BoundedOnly);

  // Fooling-set certificate (paper §II): k 1-cells no rectangle can share
  // prove r_B ≥ k. Only a set above the rank helps; one as large as the
  // packing closes the bracket with no formula built.
  phase.restart();
  Budget fooling_budget = options.budget;
  fooling_budget.max_nodes = kFoolingNodes;
  const CellSet fooling = max_fooling_set(m, fooling_budget, result.rank_lower,
                                          result.partition.size());
  result.fooling_seconds = phase.seconds();
  result.fooling_size = fooling.size();
  if (fooling.size() > result.rank_lower) {
    EBMF_ENSURES(is_fooling_set(m, fooling));
    result.certified_lower = fooling.size();
  }
  if (result.certified_lower == result.partition.size())
    return finish(SapStatus::Optimal);
  if (options.budget.exhausted()) return finish(SapStatus::BoundedOnly);

  // SMT phase: query r_B(M) <= b for decreasing b (Algorithm 1, lines
  // 2-10). With a race width > 1 and at least two unresolved bounds, the
  // decreasing-b probes run concurrently; otherwise the sequential loop
  // (which also reuses one incrementally-narrowed formula) is the better
  // fit.
  const std::size_t probes = resolve_probes(options.probes);
  if (probes >= 2 && result.partition.size() >= result.certified_lower + 2)
    smt_phase_race(m, options, probes, result);
  else
    smt_phase_sequential(m, options, result);
  result.total_seconds = total.seconds();
  EBMF_ENSURES(result.partition.size() >= result.rank_lower);
  return result;
}

}  // namespace

SapResult sap_solve(const BinaryMatrix& m, const SapOptions& options) {
  if (!options.preprocess) return sap_solve_core(m, options);

  Stopwatch total;
  // Exactness-preserving reductions: collapse duplicates, then split the
  // bipartite row/column graph into connected components; r_B is additive
  // over components and invariant under the collapse (see preprocess.h).
  const DuplicateReduction reduction = reduce_duplicates(m);
  const auto components = split_components(reduction.reduced);

  SapOptions sub_options = options;
  sub_options.preprocess = false;

  SapResult aggregate;
  aggregate.status = SapStatus::Optimal;
  Partition reduced_partition;
  for (const auto& component : components) {
    SapResult sub = sap_solve_core(component.matrix, sub_options);
    Partition lifted =
        lift_partition(sub.partition, component, reduction.reduced.rows(),
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
    if (sub.status != SapStatus::Optimal &&
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
