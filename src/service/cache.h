#pragma once
/// \file cache.h
/// \brief Thread-safe sharded LRU result cache (`ebmf::cache`).
///
/// Maps a canonical-pattern key (see canon.h) to the SolveReport produced by
/// solving that canonical pattern — partition certificate included. The
/// engine consults it inside run_checked, so one cache accelerates solve,
/// solve_batch, and solve_split alike, across every thread of the service.
///
/// Design:
///  * **Sharding.** The key space is split across independently locked
///    shards (default 16), so concurrent lookups from the request pool
///    rarely contend on one mutex.
///  * **Soundness.** An entry stores the full canonical pattern and the
///    strategy name; lookup() compares both, so a 128-bit hash collision or
///    an incomplete canonical fixpoint can only miss, never serve a wrong
///    partition. The engine additionally validates every lifted partition.
///  * **LRU by bytes.** Capacity is a byte budget (--cache-mb); each shard
///    evicts least-recently-used entries past its share. Entry cost is the
///    measured footprint of the pattern + partition + report strings.
///  * **Upgrade-only replacement.** Re-inserting an existing key keeps the
///    better report (stronger status, then smaller depth), so a later
///    budget-starved solve never downgrades a cached optimal certificate.
///
/// Counters (hits/misses/evictions/insertions) are atomics surfaced into
/// SolveReport telemetry by the engine's cache hook.

#include <cstdint>
#include <memory>
#include <optional>

#include "engine/engine.h"
#include "service/canon.h"

namespace ebmf::cache {

/// Aggregate cache counters (monotonic except entries/bytes).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t insertions = 0;
  std::size_t entries = 0;  ///< Current resident entries.
  std::size_t bytes = 0;    ///< Current estimated resident bytes.
};

/// A cached solve of one canonical pattern. The report's partition is in
/// canonical space; canon::lift maps it back through the requester's own
/// permutation record.
struct CachedResult {
  engine::SolveReport report;
};

/// The sharded LRU. All methods are safe to call concurrently.
class ResultCache {
 public:
  struct Options {
    std::size_t capacity_bytes = 64ull << 20;  ///< Total budget (~--cache-mb).
    std::size_t shards = 16;                   ///< Independent lock domains.
  };

  explicit ResultCache(Options options);
  ~ResultCache();

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Convenience: a shared cache with a megabyte budget (0 MB still caches
  /// a single small entry per shard; pass a null pointer to disable caching
  /// entirely at the engine).
  static std::shared_ptr<ResultCache> with_capacity_mb(double mb);

  /// The report cached under `key`, provided the stored canonical pattern
  /// and strategy match exactly (collision guard). Refreshes LRU recency.
  [[nodiscard]] std::optional<CachedResult> lookup(
      const canon::CacheKey& key, const std::string& strategy,
      const BinaryMatrix& canonical_pattern);

  /// Store `report` (partition in canonical space) under `key`. Keeps the
  /// better of old/new on re-insert; evicts LRU entries past the budget.
  void insert(const canon::CacheKey& key, const std::string& strategy,
              const BinaryMatrix& canonical_pattern,
              const engine::SolveReport& report);

  /// Point-in-time counters (sums across shards). Locks every shard to
  /// report resident entries/bytes — fine for drain summaries and tests,
  /// not for per-request telemetry; use counters() on hot paths.
  [[nodiscard]] CacheStats stats() const;

  /// Lock-free subset of stats(): just the atomic hit/miss/eviction/
  /// insertion counters (entries and bytes stay 0).
  [[nodiscard]] CacheStats counters() const noexcept;

  /// Drop every entry (counters are retained).
  void clear();

  [[nodiscard]] std::size_t capacity_bytes() const noexcept;

  // ---- persistence across restarts -------------------------------------
  //
  // Snapshot format: line 1 is the versioned header
  // `{"ebmf_cache":1}`; every further line is one entry,
  // `{"cache_key":"<32 hex>","strategy":"...","pattern":"rows;...",
  //   "report":{<wire response JSON, partition attached>}}`.
  // The pattern is the *canonical* pattern, so a reloaded entry serves the
  // same permuted repeats as the live one did, certificates intact.

  /// Write every resident entry (LRU order preserved: the snapshot replays
  /// oldest-first so reloaded recency matches). False + `error` on I/O
  /// failure.
  bool save_file(const std::string& path, std::string* error = nullptr) const;

  /// Reload a snapshot written by save_file. Returns the number of entries
  /// inserted. A missing file, a bad header, or a version mismatch ignores
  /// the whole file with a warning in `warning`; a corrupt entry line (bad
  /// JSON, invalid partition, depth mismatch) is skipped and noted there
  /// too — a damaged snapshot can cost hits, never correctness.
  std::size_t load_file(const std::string& path, std::string* warning);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The stats verb's cache block (`"cache"` on a server, `"l1"` on a
/// router): `{"hits":..,"misses":..,"evictions":..,"insertions":..,
/// "entries":..,"bytes":..,"capacity_bytes":..}`, or `null` without a
/// cache.
[[nodiscard]] std::string stats_json(const ResultCache* cache);

}  // namespace ebmf::cache
