/// \file trace.cpp
/// \brief Span recording, the bounded trace ring, and wire JSON.

#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <random>
#include <unordered_map>

#include "io/json.h"
#include "support/logrotate.h"

namespace ebmf::obs {

std::uint64_t steady_micros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Per-process random salt so span/trace ids from a router and its
/// backends never collide within one trace.
std::uint64_t process_salt() {
  static const std::uint64_t salt = [] {
    std::random_device rd;
    return splitmix64((static_cast<std::uint64_t>(rd()) << 32) ^ rd() ^
                      steady_micros());
  }();
  return salt;
}

}  // namespace

TraceContext make_trace_context() {
  static std::atomic<std::uint64_t> sequence{0};
  const std::uint64_t n = sequence.fetch_add(1, std::memory_order_relaxed);
  TraceContext ctx;
  ctx.hi = splitmix64(process_salt() ^ n);
  ctx.lo = splitmix64(process_salt() + 2 * n + 1);
  if ((ctx.hi | ctx.lo) == 0) ctx.lo = 1;  // all-zero means "no trace"
  return ctx;
}

std::uint64_t new_span_id() {
  static std::atomic<std::uint64_t> sequence{0};
  const std::uint64_t id = splitmix64(
      process_salt() ^ (sequence.fetch_add(1, std::memory_order_relaxed) << 1));
  return id == 0 ? 1 : id;
}

std::string trace_id_hex(std::uint64_t hi, std::uint64_t lo) {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

std::string span_id_hex(std::uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

namespace {

bool parse_hex_u64(const char* s, std::size_t n, std::uint64_t* out) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const char c = s[i];
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a') + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<std::uint64_t>(c - 'A') + 10;
    } else {
      return false;
    }
    v = (v << 4) | digit;
  }
  *out = v;
  return true;
}

}  // namespace

bool parse_trace_id(const std::string& hex, std::uint64_t* hi,
                    std::uint64_t* lo) {
  if (hex.size() != 32) return false;
  return parse_hex_u64(hex.data(), 16, hi) &&
         parse_hex_u64(hex.data() + 16, 16, lo);
}

bool parse_span_id(const std::string& hex, std::uint64_t* id) {
  if (hex.empty() || hex.size() > 16) return false;
  return parse_hex_u64(hex.data(), hex.size(), id);
}

// ---------------------------------------------------------------------------
// TraceRecorder

struct TraceRecorder::Impl {
  mutable std::mutex mutex;
  std::vector<Span> spans;
};

TraceRecorder::TraceRecorder(const TraceContext& ctx)
    : impl_(std::make_shared<Impl>()), ctx_(ctx), created_(steady_micros()) {}

std::uint64_t TraceRecorder::record(const std::string& name,
                                    std::uint64_t span_id,
                                    std::uint64_t parent_id,
                                    std::uint64_t start_us,
                                    std::uint64_t end_us) {
  Span span;
  span.name = name;
  span.span_id = span_id;
  span.parent_id = parent_id;
  span.start_us = start_us;
  span.dur_us = end_us > start_us ? end_us - start_us : 0;
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->spans.push_back(std::move(span));
  return span_id;
}

void TraceRecorder::adopt(std::vector<Span> spans) {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  for (auto& s : spans) impl_->spans.push_back(std::move(s));
}

std::vector<Span> TraceRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->spans;
}

// ---------------------------------------------------------------------------
// TraceStore

struct TraceStore::Impl {
  mutable std::mutex mutex;
  std::size_t capacity;
  struct Entry {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
    std::vector<Span> spans;
  };
  std::vector<Entry> entries;  // oldest first
  RotatingFile file;  ///< Size-rotated --trace-file sink (keeps path.1).
};

TraceStore::TraceStore(std::size_t capacity) : impl_(new Impl) {
  impl_->capacity = capacity == 0 ? 1 : capacity;
}

TraceStore::~TraceStore() { delete impl_; }

bool TraceStore::set_file(const std::string& path, std::string* error) {
  return impl_->file.open(path, error);
}

void TraceStore::flush() { impl_->file.flush(); }

void TraceStore::add(std::uint64_t hi, std::uint64_t lo,
                     std::vector<Span> spans) {
  if ((hi | lo) == 0 || spans.empty()) return;
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  if (impl_->file.is_open()) {
    impl_->file.write_line("{\"trace\":\"" + trace_id_hex(hi, lo) +
                           "\",\"spans\":" + spans_json(spans) + "}");
  }
  for (auto& entry : impl_->entries) {
    if (entry.hi == hi && entry.lo == lo) {
      for (auto& s : spans) entry.spans.push_back(std::move(s));
      return;
    }
  }
  Impl::Entry entry;
  entry.hi = hi;
  entry.lo = lo;
  entry.spans = std::move(spans);
  impl_->entries.push_back(std::move(entry));
  if (impl_->entries.size() > impl_->capacity) {
    impl_->entries.erase(impl_->entries.begin());
  }
}

std::vector<Span> TraceStore::find(std::uint64_t hi, std::uint64_t lo) const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  for (const auto& entry : impl_->entries) {
    if (entry.hi == hi && entry.lo == lo) return entry.spans;
  }
  return {};
}

std::vector<TraceStore::Summary> TraceStore::recent(std::size_t n) const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<Summary> out;
  for (auto it = impl_->entries.rbegin();
       it != impl_->entries.rend() && out.size() < n; ++it) {
    Summary s;
    s.id = trace_id_hex(it->hi, it->lo);
    s.spans = it->spans.size();
    // The root is a span whose parent does not appear in the set; prefer
    // the longest such span (the request-level root).
    for (const auto& span : it->spans) {
      bool parent_present = false;
      for (const auto& other : it->spans) {
        if (other.span_id == span.parent_id) {
          parent_present = true;
          break;
        }
      }
      if (!parent_present && span.dur_us >= s.dur_us) {
        s.dur_us = span.dur_us;
        s.root = span.name;
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::size_t TraceStore::size() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->entries.size();
}

// ---------------------------------------------------------------------------
// Wire JSON

std::string trace_context_json(const TraceContext& ctx) {
  std::string out = "{\"id\":\"" + trace_id_hex(ctx.hi, ctx.lo) + "\"";
  if (ctx.parent_span != 0) {
    out += ",\"span\":\"" + span_id_hex(ctx.parent_span) + "\"";
  }
  out += "}";
  return out;
}

bool parse_trace_context(const io::json::Value& value, TraceContext* out) {
  if (!value.is_object()) return false;
  const io::json::Value* id = value.find("id");
  if (id == nullptr || !id->is_string()) return false;
  TraceContext ctx;
  if (!parse_trace_id(id->as_string(), &ctx.hi, &ctx.lo) || !ctx.valid()) {
    return false;
  }
  if (const io::json::Value* span = value.find("span");
      span != nullptr && span->is_string()) {
    if (!parse_span_id(span->as_string(), &ctx.parent_span)) return false;
  }
  *out = ctx;
  return true;
}

std::string spans_json(const std::vector<Span>& spans) {
  std::string out = "[";
  char buf[64];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i != 0) out += ",";
    out += "{\"name\":\"" + io::json::escape(s.name) + "\",\"span\":\"" +
           span_id_hex(s.span_id) + "\"";
    if (s.parent_id != 0) {
      out += ",\"parent\":\"" + span_id_hex(s.parent_id) + "\"";
    }
    std::snprintf(buf, sizeof buf, ",\"start_us\":%llu,\"dur_us\":%llu}",
                  static_cast<unsigned long long>(s.start_us),
                  static_cast<unsigned long long>(s.dur_us));
    out += buf;
  }
  out += "]";
  return out;
}

std::vector<Span> spans_from_json(const io::json::Value& array) {
  std::vector<Span> out;
  if (!array.is_array()) return out;
  for (std::size_t i = 0; i < array.size(); ++i) {
    const io::json::Value& item = array.at(i);
    if (!item.is_object()) continue;
    Span span;
    if (const auto* name = item.find("name");
        name != nullptr && name->is_string()) {
      span.name = name->as_string();
    }
    if (const auto* id = item.find("span");
        id == nullptr || !id->is_string() ||
        !parse_span_id(id->as_string(), &span.span_id)) {
      continue;  // a span without an id cannot be parented
    }
    if (const auto* parent = item.find("parent");
        parent != nullptr && parent->is_string()) {
      if (!parse_span_id(parent->as_string(), &span.parent_id)) {
        span.parent_id = 0;
      }
    }
    if (const auto* start = item.find("start_us"); start != nullptr)
      span.start_us = io::json::to_count(*start).value_or(span.start_us);
    if (const auto* dur = item.find("dur_us"); dur != nullptr)
      span.dur_us = io::json::to_count(*dur).value_or(span.dur_us);
    out.push_back(std::move(span));
  }
  return out;
}

namespace {

void render_span_node(const std::vector<Span>& spans,
                      const std::unordered_map<std::uint64_t,
                                               std::vector<std::size_t>>&
                          children,
                      std::size_t index, std::string* out) {
  const Span& s = spans[index];
  char buf[64];
  *out += "{\"name\":\"" + io::json::escape(s.name) + "\",\"span\":\"" +
          span_id_hex(s.span_id) + "\"";
  std::snprintf(buf, sizeof buf, ",\"start_us\":%llu,\"dur_us\":%llu",
                static_cast<unsigned long long>(s.start_us),
                static_cast<unsigned long long>(s.dur_us));
  *out += buf;
  if (const auto it = children.find(s.span_id);
      it != children.end() && !it->second.empty()) {
    *out += ",\"children\":[";
    for (std::size_t i = 0; i < it->second.size(); ++i) {
      if (i != 0) *out += ",";
      render_span_node(spans, children, it->second[i], out);
    }
    *out += "]";
  }
  *out += "}";
}

}  // namespace

std::string trace_tree_json(const std::string& id_hex,
                            const std::vector<Span>& spans) {
  // Index spans by id; children grouped under their parent, ordered by
  // start time (within-process ordering; cross-process starts are on
  // different clocks, but a parent and its remote children still render in
  // arrival order, which is what a reader wants).
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return spans[a].start_us < spans[b].start_us;
  });
  std::unordered_map<std::uint64_t, bool> known;
  for (const auto& s : spans) known[s.span_id] = true;
  std::vector<std::size_t> roots;
  for (const std::size_t i : order) {
    const Span& s = spans[i];
    if (s.parent_id != 0 && known.count(s.parent_id) != 0 &&
        s.parent_id != s.span_id) {
      children[s.parent_id].push_back(i);
    } else {
      roots.push_back(i);
    }
  }
  std::string out = "{\"trace\":true,\"id\":\"" + io::json::escape(id_hex) +
                    "\",\"spans\":" + spans_json(spans) + ",\"tree\":[";
  for (std::size_t i = 0; i < roots.size(); ++i) {
    if (i != 0) out += ",";
    render_span_node(spans, children, roots[i], &out);
  }
  out += "]}";
  return out;
}

}  // namespace ebmf::obs
