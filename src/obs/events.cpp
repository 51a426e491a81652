/// \file events.cpp
/// \brief Ring registration/recycling and the merged snapshot.

#include "obs/events.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "obs/trace.h"

namespace ebmf::obs {

const char* event_name(EventCode code) noexcept {
  switch (code) {
    case EventCode::None:
      return "none";
    case EventCode::SatRestart:
      return "sat.restart";
    case EventCode::SatConflicts:
      return "sat.conflicts";
    case EventCode::SatReduceDb:
      return "sat.reduce_db";
    case EventCode::SatArenaGc:
      return "sat.arena_gc";
    case EventCode::CacheEvict:
      return "cache.evict";
    case EventCode::PoolReconnect:
      return "pool.reconnect";
  }
  return "?";
}

void EventRing::emit(EventCode code, std::uint64_t a,
                     std::uint64_t b) noexcept {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  Slot& slot = slots_[head % kRingCapacity];
  // Publish the code last-ish so a racing reader of a fresh slot most often
  // sees a consistent record; a torn record is acceptable (diagnostics).
  slot.tick.store(steady_micros(), std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  slot.code.store(static_cast<std::uint32_t>(code), std::memory_order_relaxed);
  head_.store(head + 1, std::memory_order_release);
}

void EventRing::snapshot(std::vector<EventRecord>* out) const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t n = head < kRingCapacity ? head : kRingCapacity;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t pos = head - n + i;  // oldest retained first
    const Slot& slot = slots_[pos % kRingCapacity];
    EventRecord rec;
    rec.tick = slot.tick.load(std::memory_order_relaxed);
    rec.code = slot.code.load(std::memory_order_relaxed);
    rec.ring = id;
    rec.a = slot.a.load(std::memory_order_relaxed);
    rec.b = slot.b.load(std::memory_order_relaxed);
    if (rec.code != 0) out->push_back(rec);
  }
}

namespace {

/// All rings ever handed out (alive or parked). Guarded by ring_mutex; the
/// rings themselves are heap-allocated and never freed, so snapshots can
/// walk the list without holding thread-exit races.
struct RingDirectory {
  std::mutex mutex;
  std::vector<EventRing*> rings;  ///< Every registered ring.
  std::vector<EventRing*> parked; ///< Rings whose owner thread exited.
};

RingDirectory& directory() {
  static RingDirectory* dir = new RingDirectory;  // never destroyed
  return *dir;
}

EventRing* acquire_ring() {
  RingDirectory& dir = directory();
  const std::lock_guard<std::mutex> lock(dir.mutex);
  if (!dir.parked.empty()) {
    EventRing* ring = dir.parked.back();
    dir.parked.pop_back();
    return ring;
  }
  auto* ring = new EventRing;
  ring->id = static_cast<std::uint32_t>(dir.rings.size());
  dir.rings.push_back(ring);
  return ring;
}

void park_ring(EventRing* ring) {
  RingDirectory& dir = directory();
  const std::lock_guard<std::mutex> lock(dir.mutex);
  dir.parked.push_back(ring);
}

/// Thread-local ring owner: acquires on first use, parks the ring (records
/// intact — they stay snapshot-visible) when the thread exits.
struct RingOwner {
  EventRing* ring = acquire_ring();
  ~RingOwner() { park_ring(ring); }
};

}  // namespace

bool events_enabled() noexcept {
  static const bool enabled = [] {
    const char* env = std::getenv("EBMF_EVENTS");
    if (env == nullptr) return true;
    return std::strcmp(env, "0") != 0 && std::strcmp(env, "off") != 0;
  }();
  return enabled;
}

EventRing& thread_event_ring() {
  thread_local RingOwner owner;
  return *owner.ring;
}

std::vector<EventRecord> snapshot_events(std::size_t max) {
  std::vector<EventRecord> out;
  {
    RingDirectory& dir = directory();
    const std::lock_guard<std::mutex> lock(dir.mutex);
    for (const EventRing* ring : dir.rings) ring->snapshot(&out);
  }
  std::sort(out.begin(), out.end(),
            [](const EventRecord& x, const EventRecord& y) {
              return x.tick < y.tick;
            });
  if (max != 0 && out.size() > max) {
    out.erase(out.begin(), out.end() - static_cast<std::ptrdiff_t>(max));
  }
  return out;
}

std::string events_json(const std::vector<EventRecord>& records) {
  std::string out = "[";
  char buf[128];
  for (std::size_t i = 0; i < records.size(); ++i) {
    const EventRecord& r = records[i];
    if (i != 0) out += ",";
    out += "{\"tick\":";
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(r.tick));
    out += buf;
    out += ",\"event\":\"";
    out += event_name(static_cast<EventCode>(r.code));
    out += "\"";
    std::snprintf(buf, sizeof buf, ",\"ring\":%u,\"a\":%llu,\"b\":%llu}",
                  static_cast<unsigned>(r.ring),
                  static_cast<unsigned long long>(r.a),
                  static_cast<unsigned long long>(r.b));
    out += buf;
  }
  out += "]";
  return out;
}

}  // namespace ebmf::obs
