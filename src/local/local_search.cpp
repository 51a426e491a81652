// Anytime local search over rectangle covers: row-packing seeding, merge /
// relocation squeezes, tabu-guarded destroy-and-repair, stall-triggered
// perturbation and restarts. The working cover is a valid partition after
// every accepted move, so an exhausted or cancelled budget returns the best
// incumbent immediately.

#include "local/local_search.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "core/row_packing.h"
#include "obs/events.h"
#include "support/contracts.h"
#include "support/rng.h"
#include "support/stopwatch.h"

namespace ebmf::local {

namespace {

/// Termination backstop when the caller set neither a budget nor a move
/// cap: the search must not spin forever on a plateau.
constexpr std::uint64_t kDefaultMoveCap = 2000;
/// Tabu tenure (moves) when the caller left it on auto.
constexpr std::uint64_t kDefaultTabuTenure = 16;
/// Row-count ceiling for relocation targets (thin rectangles empty fastest).
constexpr std::size_t kRelocationMaxRows = 3;
/// Relocation attempts per squeeze pass (bounds the O(|cover|) scans).
constexpr std::size_t kRelocationAttempts = 64;
/// Budget poll stride inside a move's inner loops (rows between checks).
constexpr std::size_t kBudgetStride = 64;

std::uint64_t rect_hash(const Rectangle& r) noexcept {
  return r.rows.hash() * 0x9e3779b97f4a7c15ull ^ r.cols.hash();
}

/// Consolidate rectangles with identical row sets (their column sets are
/// necessarily disjoint, so the union is again a rectangle of 1s) and then
/// rectangles with identical column sets. Each merge is depth −1.
std::uint64_t merge_pass(Partition& cover) {
  std::uint64_t merged = 0;
  for (int axis = 0; axis < 2; ++axis) {
    std::unordered_map<BitVec, std::size_t, BitVecHash> first;
    first.reserve(cover.size());
    std::vector<char> dead(cover.size(), 0);
    bool any_dead = false;
    for (std::size_t i = 0; i < cover.size(); ++i) {
      const BitVec& key = axis == 0 ? cover[i].rows : cover[i].cols;
      const auto [it, inserted] = first.try_emplace(key, i);
      if (inserted) continue;
      Rectangle& keep = cover[it->second];
      if (axis == 0)
        keep.cols |= cover[i].cols;
      else
        keep.rows |= cover[i].rows;
      dead[i] = 1;
      any_dead = true;
      ++merged;
    }
    if (any_dead) {
      Partition kept;
      kept.reserve(cover.size());
      for (std::size_t i = 0; i < cover.size(); ++i)
        if (!dead[i]) kept.push_back(std::move(cover[i]));
      cover = std::move(kept);
    }
  }
  return merged;
}

/// Try to delete cover[a] by re-covering its cells with other rectangles:
/// pick row-disjoint rectangles whose column sets tile cols_a exactly and
/// grow each by rows_a. Returns true when the tiling exists (the caller
/// erases `a`).
bool relocate_rect(Partition& cover, std::size_t a) {
  const BitVec& cols_a = cover[a].cols;
  const BitVec& rows_a = cover[a].rows;
  BitVec remaining = cols_a;
  std::vector<std::size_t> chosen;
  for (std::size_t t = 0; t < cover.size() && remaining.any(); ++t) {
    if (t == a) continue;
    if (!cover[t].rows.disjoint(rows_a)) continue;
    if (!cover[t].cols.subset_of(remaining)) continue;
    remaining -= cover[t].cols;
    chosen.push_back(t);
  }
  if (!remaining.none()) return false;
  for (std::size_t t : chosen) cover[t].rows |= rows_a;
  return true;
}

/// Sweep the thinnest rectangles (≤ kRelocationMaxRows rows) and empty as
/// many as the tiling allows. Each success is depth −1.
std::uint64_t relocation_pass(Partition& cover) {
  std::uint64_t relocated = 0;
  std::size_t attempts = 0;
  for (std::size_t a = 0; a < cover.size() && attempts < kRelocationAttempts;) {
    if (cover[a].rows.count() > kRelocationMaxRows) {
      ++a;
      continue;
    }
    ++attempts;
    if (relocate_rect(cover, a)) {
      cover.erase(cover.begin() + static_cast<std::ptrdiff_t>(a));
      ++relocated;
    } else {
      ++a;
    }
  }
  return relocated;
}

/// Split a random rectangle with ≥ 2 rows into two half-row rectangles
/// (depth +1) — the stall perturbation.
bool split_perturbation(Partition& cover, std::size_t nrows, Rng& rng) {
  for (int tries = 0; tries < 8; ++tries) {
    const std::size_t i = rng.below(cover.size());
    const auto rows = cover[i].rows.ones();
    if (rows.size() < 2) continue;
    BitVec top(nrows);
    BitVec bottom(nrows);
    for (std::size_t k = 0; k < rows.size(); ++k)
      (k < rows.size() / 2 ? top : bottom).set(rows[k]);
    cover[i].rows = top;
    cover.push_back(Rectangle{std::move(bottom), cover[i].cols});
    return true;
  }
  return false;
}

}  // namespace

LocalSearchResult local_search_ebmf(const BinaryMatrix& m,
                                    const LocalSearchOptions& options,
                                    const IncumbentCallback& on_incumbent) {
  Stopwatch clock;
  LocalSearchResult out;
  LocalSearchStats& stats = out.stats;
  if (m.is_zero()) {
    out.seconds = clock.seconds();
    return out;
  }

  Rng rng(options.seed);
  std::uint64_t move_cap = options.max_moves;
  if (move_cap == 0 && !options.budget.limited()) move_cap = kDefaultMoveCap;
  const std::uint64_t tenure =
      options.tabu_tenure == 0 ? kDefaultTabuTenure : options.tabu_tenure;
  const std::uint64_t stall_limit = std::max<std::uint64_t>(options.stall_limit, 1);

  // Seed: multi-trial row packing (Algorithm 2, both orientations), then
  // squeeze.
  RowPackingOptions seeding;
  seeding.trials = std::max<std::size_t>(options.seed_trials, 1);
  seeding.seed = rng();
  seeding.stop_at = options.stop_at;
  seeding.budget = options.budget;
  Partition cover = row_packing_ebmf(m, seeding).partition;
  stats.seed_depth = cover.size();
  stats.merges += merge_pass(cover);
  stats.relocations += relocation_pass(cover);

  Partition best;
  const auto consider_best = [&](const Partition& cand) {
    if (!best.empty() && cand.size() >= best.size()) return;
    EBMF_ENSURES(static_cast<bool>(validate_partition(m, cand)));
    best = cand;
    stats.incumbents.push_back(
        Incumbent{best.size(), stats.moves, clock.seconds()});
    obs::emit_event(obs::EventCode::LocalIncumbent, best.size(), stats.moves);
    if (on_incumbent) on_incumbent(best, clock.seconds());
  };
  consider_best(cover);

  std::unordered_map<std::uint64_t, std::uint64_t> tabu;  // hash → expiry move
  std::uint64_t stall = 0;

  while (true) {
    if (options.budget.exhausted()) break;
    if (options.stop_at != 0 && best.size() <= options.stop_at) {
      out.reached_stop = true;
      break;
    }
    if (move_cap != 0 && stats.moves >= move_cap) break;
    if (cover.size() <= 1 || best.size() <= 1) break;

    if (stall >= 3 * stall_limit) {
      // Hard stall: reseed from a fresh shuffled packing pass (the best
      // incumbent is kept aside; the working cover diversifies).
      ++stats.restarts;
      stall = 0;
      tabu.clear();
      cover = row_packing_pass(m, rng.permutation(m.rows()));
      stats.merges += merge_pass(cover);
      stats.relocations += relocation_pass(cover);
      obs::emit_event(obs::EventCode::LocalPerturb, cover.size(), stall);
      consider_best(cover);
      continue;
    }
    if (stall != 0 && stall % stall_limit == 0 &&
        split_perturbation(cover, m.rows(), rng)) {
      ++stats.splits;
      obs::emit_event(obs::EventCode::LocalPerturb, cover.size(), stall);
    }

    // ---- one destroy-and-repair move --------------------------------
    ++stats.moves;
    const std::size_t kmax = std::max<std::size_t>(
        2, static_cast<std::size_t>(static_cast<double>(cover.size()) *
                                    options.destroy_fraction));
    std::size_t k = 1 + static_cast<std::size_t>(rng.below(kmax));
    k = std::min(k, cover.size() - 1);

    std::vector<std::size_t> chosen;
    std::vector<std::uint64_t> destroyed_hashes;
    std::vector<char> taken(cover.size(), 0);
    // Phase 1 honours the tabu list; phase 2 fills up regardless so the
    // move never starves when everything is tabu-active.
    for (int phase = 0; phase < 2 && chosen.size() < k; ++phase) {
      for (std::size_t attempt = 0;
           attempt < 4 * k + 16 && chosen.size() < k; ++attempt) {
        const std::size_t i = rng.below(cover.size());
        if (taken[i]) continue;
        if (phase == 0) {
          const auto it = tabu.find(rect_hash(cover[i]));
          if (it != tabu.end() && it->second > stats.moves) continue;
        }
        taken[i] = 1;
        chosen.push_back(i);
        destroyed_hashes.push_back(rect_hash(cover[i]));
      }
    }
    if (chosen.empty()) {
      ++stall;
      continue;
    }

    const Partition snapshot = cover;
    const std::size_t old_depth = cover.size();

    // Destroy: mark the chosen rectangles' cells uncovered, drop the rects.
    std::vector<std::size_t> dirty;
    std::vector<BitVec> uncov(m.rows());
    for (std::size_t i : chosen) {
      const Rectangle& r = cover[i];
      for (std::size_t row = r.rows.find_first(); row < m.rows();
           row = r.rows.find_next(row)) {
        if (uncov[row].empty()) {
          uncov[row] = BitVec(m.cols());
          dirty.push_back(row);
        }
        uncov[row] |= r.cols;
      }
    }
    std::sort(chosen.begin(), chosen.end(), std::greater<>());
    for (std::size_t i : chosen)
      cover.erase(cover.begin() + static_cast<std::ptrdiff_t>(i));

    // Repair 1 — absorption: grow surviving rectangles over hole rows whose
    // uncovered cells host the rectangle's full column set.
    bool aborted = false;
    for (std::size_t d = 0; d < dirty.size(); ++d) {
      if (d % kBudgetStride == 0 && options.budget.exhausted()) {
        aborted = true;
        break;
      }
      const std::size_t row = dirty[d];
      for (Rectangle& rect : cover) {
        if (uncov[row].none()) break;
        if (rect.rows.test(row)) continue;
        if (!rect.cols.subset_of(uncov[row])) continue;
        rect.rows.set(row);
        uncov[row] -= rect.cols;
        ++stats.absorptions;
      }
    }

    // Repair 2 — greedy extraction over the residual (shuffled seeds).
    if (!aborted) {
      rng.shuffle(dirty);
      for (std::size_t d = 0; d < dirty.size(); ++d) {
        if (d % kBudgetStride == 0 && options.budget.exhausted()) {
          aborted = true;
          break;
        }
        const std::size_t seed_row = dirty[d];
        if (uncov[seed_row].none()) continue;
        BitVec cols = uncov[seed_row];
        BitVec rows(m.rows());
        for (std::size_t r : dirty)
          if (cols.subset_of(uncov[r])) rows.set(r);
        for (std::size_t r = rows.find_first(); r < m.rows();
             r = rows.find_next(r))
          uncov[r] -= cols;
        cover.push_back(Rectangle{std::move(rows), std::move(cols)});
      }
    }

    if (aborted) {
      // Mid-move cancel/deadline: restore the last complete cover and stop
      // — `best` is already a validated incumbent.
      cover = snapshot;
      break;
    }

    if (cover.size() <= old_depth) {
      ++stats.accepted;
      for (std::uint64_t h : destroyed_hashes)
        tabu[h] = stats.moves + tenure;
      stats.merges += merge_pass(cover);
      stats.relocations += relocation_pass(cover);
      if (cover.size() < best.size()) {
        consider_best(cover);
        stall = 0;
      } else {
        ++stall;
      }
    } else {
      cover = snapshot;
      ++stats.rejected;
      ++stall;
    }
  }

  out.partition = std::move(best);
  out.seconds = clock.seconds();
  return out;
}

}  // namespace ebmf::local
