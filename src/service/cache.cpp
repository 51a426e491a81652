// The sharded LRU: per-shard mutex + intrusive recency list + hash index,
// byte-budgeted eviction, and upgrade-only replacement.

#include "service/cache.h"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <list>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "io/json.h"
#include "io/request_io.h"
#include "obs/events.h"
#include "obs/metrics.h"

namespace ebmf::cache {

namespace {

/// Estimated resident footprint of one entry (pattern + partition words +
/// telemetry strings + container overhead). An estimate is fine: eviction
/// only needs proportionality, not byte-exact accounting.
std::size_t entry_bytes(const BinaryMatrix& pattern,
                        const engine::SolveReport& report) {
  const std::size_t row_words = (pattern.cols() + 63) / 64;
  const std::size_t col_words = (pattern.rows() + 63) / 64;
  std::size_t bytes = 256;  // fixed node/index overhead
  bytes += pattern.rows() * row_words * 8;
  bytes += report.partition.size() * (row_words + col_words) * 8 +
           report.partition.size() * sizeof(Rectangle);
  for (const auto& [key, value] : report.telemetry)
    bytes += key.size() + value.size() + 64;
  for (const auto& timing : report.timings) bytes += timing.phase.size() + 32;
  return bytes;
}

/// True when `fresh` is a strictly better answer than `stored` for the same
/// canonical pattern: an optimality certificate first, then smaller depth,
/// then tighter bound. Bounded and Heuristic answers are both brackets, so
/// they compare by the bracket alone.
bool improves(const engine::SolveReport& fresh,
              const engine::SolveReport& stored) {
  const bool fresh_optimal = fresh.status == engine::Status::Optimal;
  if (fresh_optimal != (stored.status == engine::Status::Optimal))
    return fresh_optimal;
  if (fresh.depth() != stored.depth()) return fresh.depth() < stored.depth();
  return fresh.lower_bound > stored.lower_bound;  // tighter bracket
}

struct Entry {
  canon::CacheKey key;
  std::string strategy;
  BinaryMatrix pattern;
  engine::SolveReport report;
  std::size_t bytes = 0;
};

struct Shard {
  std::mutex mutex;
  std::list<Entry> lru;  ///< Front = most recently used.
  std::unordered_map<canon::CacheKey, std::list<Entry>::iterator,
                     canon::CacheKeyHash>
      index;
  std::size_t bytes = 0;
};

}  // namespace

struct ResultCache::Impl {
  Options options;
  std::vector<Shard> shards;
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> evictions{0};
  std::atomic<std::uint64_t> insertions{0};

  // Process-wide registry mirrors (obs/metrics.h), resolved once so the
  // hot paths pay one relaxed atomic add, no name lookup. Counters sum
  // across every ResultCache in the process (backend cache + router L1).
  obs::Counter* obs_hits = obs::default_registry().counter("cache.hits");
  obs::Counter* obs_misses = obs::default_registry().counter("cache.misses");
  obs::Counter* obs_evictions =
      obs::default_registry().counter("cache.evictions");
  obs::Counter* obs_insertions =
      obs::default_registry().counter("cache.insertions");
  obs::Histogram* obs_lookup =
      obs::default_registry().histogram("cache.lookup.micros");

  explicit Impl(Options opt) : options(opt), shards(opt.shards) {}

  Shard& shard_for(const canon::CacheKey& key) {
    return shards[static_cast<std::size_t>(key.lo) % shards.size()];
  }

  std::size_t shard_budget() const {
    return options.capacity_bytes / shards.size();
  }

  /// Drop LRU entries until the shard fits its budget (caller holds lock).
  void evict_over_budget(Shard& shard) {
    const std::size_t budget = shard_budget();
    std::size_t freed = 0;
    while (shard.bytes > budget && shard.lru.size() > 1) {
      const Entry& victim = shard.lru.back();
      shard.bytes -= victim.bytes;
      freed += victim.bytes;
      shard.index.erase(victim.key);
      shard.lru.pop_back();
      evictions.fetch_add(1, std::memory_order_relaxed);
      obs_evictions->add();
    }
    if (freed != 0)
      obs::emit_event(obs::EventCode::CacheEvict, freed, shard.lru.size());
  }
};

ResultCache::ResultCache(Options options)
    : impl_(std::make_unique<Impl>(Options{
          options.capacity_bytes,
          options.shards == 0 ? std::size_t{1} : options.shards})) {}

ResultCache::~ResultCache() = default;

std::shared_ptr<ResultCache> ResultCache::with_capacity_mb(double mb) {
  Options options;
  if (mb < 0) mb = 0;
  options.capacity_bytes = static_cast<std::size_t>(mb * 1024.0 * 1024.0);
  return std::make_shared<ResultCache>(options);
}

std::optional<CachedResult> ResultCache::lookup(
    const canon::CacheKey& key, const std::string& strategy,
    const BinaryMatrix& canonical_pattern) {
  Shard& shard = impl_->shard_for(key);
  const std::uint64_t start_us = obs::steady_micros();
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end() && it->second->strategy == strategy &&
        it->second->pattern == canonical_pattern) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      impl_->hits.fetch_add(1, std::memory_order_relaxed);
      CachedResult result{it->second->report};
      impl_->obs_hits->add();
      impl_->obs_lookup->record(obs::steady_micros() - start_us);
      return result;
    }
  }
  impl_->misses.fetch_add(1, std::memory_order_relaxed);
  impl_->obs_misses->add();
  impl_->obs_lookup->record(obs::steady_micros() - start_us);
  return std::nullopt;
}

void ResultCache::insert(const canon::CacheKey& key,
                         const std::string& strategy,
                         const BinaryMatrix& canonical_pattern,
                         const engine::SolveReport& report) {
  Shard& shard = impl_->shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    Entry& entry = *it->second;
    const bool same_problem =
        entry.strategy == strategy && entry.pattern == canonical_pattern;
    if (same_problem && !improves(report, entry.report)) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;  // keep the stronger stored certificate
    }
    shard.bytes -= entry.bytes;
    entry.strategy = strategy;
    entry.pattern = canonical_pattern;
    entry.report = report;
    entry.bytes = entry_bytes(entry.pattern, entry.report);
    shard.bytes += entry.bytes;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    impl_->insertions.fetch_add(1, std::memory_order_relaxed);
    impl_->obs_insertions->add();
    impl_->evict_over_budget(shard);
    return;
  }
  Entry entry{key, strategy, canonical_pattern, report, 0};
  entry.bytes = entry_bytes(entry.pattern, entry.report);
  shard.lru.push_front(std::move(entry));
  shard.index[key] = shard.lru.begin();
  shard.bytes += shard.lru.front().bytes;
  impl_->insertions.fetch_add(1, std::memory_order_relaxed);
  impl_->obs_insertions->add();
  impl_->evict_over_budget(shard);
}

CacheStats ResultCache::counters() const noexcept {
  CacheStats out;
  out.hits = impl_->hits.load(std::memory_order_relaxed);
  out.misses = impl_->misses.load(std::memory_order_relaxed);
  out.evictions = impl_->evictions.load(std::memory_order_relaxed);
  out.insertions = impl_->insertions.load(std::memory_order_relaxed);
  return out;
}

CacheStats ResultCache::stats() const {
  CacheStats out = counters();
  for (auto& shard : impl_->shards) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    out.entries += shard.lru.size();
    out.bytes += shard.bytes;
  }
  return out;
}

void ResultCache::clear() {
  for (auto& shard : impl_->shards) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.lru.clear();
    shard.index.clear();
    shard.bytes = 0;
  }
}

std::size_t ResultCache::capacity_bytes() const noexcept {
  return impl_->options.capacity_bytes;
}

std::string stats_json(const ResultCache* cache) {
  if (cache == nullptr) return "null";
  const CacheStats stats = cache->stats();
  return "{\"hits\":" + std::to_string(stats.hits) +
         ",\"misses\":" + std::to_string(stats.misses) +
         ",\"evictions\":" + std::to_string(stats.evictions) +
         ",\"insertions\":" + std::to_string(stats.insertions) +
         ",\"entries\":" + std::to_string(stats.entries) +
         ",\"bytes\":" + std::to_string(stats.bytes) +
         ",\"capacity_bytes\":" + std::to_string(cache->capacity_bytes()) +
         "}";
}

// ---- persistence -----------------------------------------------------------

namespace {

constexpr int kSnapshotVersion = 1;

/// Parse the 32-hex-digit key rendering (hi then lo) back into a CacheKey.
bool key_from_hex(const std::string& hex, canon::CacheKey& key) {
  if (hex.size() != 32) return false;
  for (const char c : hex)
    if (!std::isxdigit(static_cast<unsigned char>(c))) return false;
  key.hi = std::strtoull(hex.substr(0, 16).c_str(), nullptr, 16);
  key.lo = std::strtoull(hex.substr(16, 16).c_str(), nullptr, 16);
  return true;
}

/// Rows joined with ';' — the dense pattern text BinaryMatrix::parse reads.
std::string pattern_text(const BinaryMatrix& m) {
  std::string text;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    if (i != 0) text += ';';
    text += m.row(i).to_string();
  }
  return text;
}

}  // namespace

bool ResultCache::save_file(const std::string& path,
                            std::string* error) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    if (error != nullptr) *error = "cannot write '" + path + "'";
    return false;
  }
  out << "{\"ebmf_cache\":" << kSnapshotVersion << "}\n";
  for (auto& shard : impl_->shards) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    // Back-to-front: LRU first, so reload (insert order = recency) ends
    // with the hottest entries freshest.
    for (auto it = shard.lru.rbegin(); it != shard.lru.rend(); ++it) {
      out << "{\"cache_key\":\"" << it->key.hex() << "\",\"strategy\":\""
          << io::json::escape(it->strategy) << "\",\"pattern\":\""
          << io::json::escape(pattern_text(it->pattern)) << "\",\"report\":"
          << io::wire_response_json(it->report, /*include_partition=*/true)
          << "}\n";
    }
  }
  out.flush();
  if (!out) {
    if (error != nullptr) *error = "short write to '" + path + "'";
    return false;
  }
  return true;
}

std::size_t ResultCache::load_file(const std::string& path,
                                   std::string* warning) {
  const auto warn = [&](const std::string& message) {
    if (warning != nullptr && warning->empty()) *warning = message;
  };
  std::ifstream in(path);
  if (!in) {
    warn("no snapshot at '" + path + "' (starting cold)");
    return 0;
  }
  std::string line;
  if (!std::getline(in, line)) {
    warn("empty snapshot '" + path + "' ignored");
    return 0;
  }
  try {
    const io::json::Value header = io::json::Value::parse(line);
    const io::json::Value* version = header.find("ebmf_cache");
    if (version == nullptr || !version->is_number() ||
        version->as_number() != kSnapshotVersion) {
      warn("snapshot '" + path + "' has an unsupported version; ignored");
      return 0;
    }
  } catch (const std::exception&) {
    warn("snapshot '" + path + "' is not an ebmf cache file; ignored");
    return 0;
  }

  std::size_t loaded = 0;
  std::size_t skipped = 0;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      const io::json::Value entry = io::json::Value::parse(line);
      const io::json::Value* key_field = entry.find("cache_key");
      const io::json::Value* strategy_field = entry.find("strategy");
      const io::json::Value* pattern_field = entry.find("pattern");
      const io::json::Value* report_field = entry.find("report");
      if (key_field == nullptr || !key_field->is_string() ||
          strategy_field == nullptr || !strategy_field->is_string() ||
          pattern_field == nullptr || !pattern_field->is_string() ||
          report_field == nullptr)
        throw std::runtime_error("missing entry fields");
      canon::CacheKey key;
      if (!key_from_hex(key_field->as_string(), key))
        throw std::runtime_error("bad cache_key");
      const BinaryMatrix pattern =
          BinaryMatrix::parse(pattern_field->as_string());
      engine::SolveReport report = io::parse_wire_response(
          *report_field, pattern.rows(), pattern.cols());
      // Soundness gate: a snapshot is untrusted input. The partition must
      // still be a valid witness of the stored pattern.
      if (!validate_partition(pattern, report.partition))
        throw std::runtime_error("invalid partition certificate");
      if (report.partition.empty() && pattern.ones_count() > 0)
        throw std::runtime_error("missing partition certificate");
      insert(key, strategy_field->as_string(), pattern, report);
      ++loaded;
    } catch (const std::exception&) {
      ++skipped;
    }
  }
  if (skipped > 0)
    warn("snapshot '" + path + "': skipped " + std::to_string(skipped) +
         " corrupt entries");
  return loaded;
}

}  // namespace ebmf::cache
