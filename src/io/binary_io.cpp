// The binary wire codec: frame payload encode/decode for solve requests,
// solve reports, and errors. See binary_io.h for the layouts.

#include "io/binary_io.h"

#include <cstring>
#include <stdexcept>
#include <vector>

#include "support/bitvec.h"

namespace ebmf::io {

namespace {

// Request flag bits (u32).
constexpr std::uint32_t kFlagIncludePartition = 1u << 0;
constexpr std::uint32_t kFlagSplit = 1u << 1;
constexpr std::uint32_t kFlagPreCanonical = 1u << 2;
constexpr std::uint32_t kFlagHasTrace = 1u << 3;
constexpr std::uint32_t kFlagNoSymmetry = 1u << 4;
constexpr std::uint32_t kFlagNoPreprocess = 1u << 5;

// Report flag bits (u32).
constexpr std::uint32_t kFlagHasPartition = 1u << 0;
constexpr std::uint32_t kFlagHasEvents = 1u << 1;
constexpr std::uint32_t kFlagHasSpans = 1u << 2;
constexpr std::uint32_t kFlagRenderPartition = 1u << 3;

// Decoder sanity bounds: a 4 MiB payload cannot legitimately exceed these,
// and checking before allocating keeps a hostile length field from turning
// into a giant allocation.
constexpr std::uint64_t kMaxDim = 1u << 20;
constexpr std::uint64_t kMaxListEntries = 1u << 20;

void put_u8(std::string& out, std::uint8_t value) {
  out.push_back(static_cast<char>(value));
}

void put_u32(std::string& out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8)
    out.push_back(static_cast<char>((value >> shift) & 0xff));
}

void put_u64(std::string& out, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8)
    out.push_back(static_cast<char>((value >> shift) & 0xff));
}

void put_i64(std::string& out, std::int64_t value) {
  put_u64(out, static_cast<std::uint64_t>(value));
}

void put_f64(std::string& out, double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof value);
  std::memcpy(&bits, &value, sizeof bits);
  put_u64(out, bits);
}

void put_string(std::string& out, const std::string& value) {
  put_u32(out, static_cast<std::uint32_t>(value.size()));
  out.append(value);
}

void put_bitvec_words(std::string& out, const BitVec& bits) {
  for (const std::uint64_t word : bits.words()) put_u64(out, word);
}

/// Bounds-checked little-endian reader over one payload.
class Reader {
 public:
  Reader(const std::string& payload, const char* what)
      : data_(payload.data()), size_(payload.size()), what_(what) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t value = 0;
    for (int shift = 0; shift < 32; shift += 8)
      value |= static_cast<std::uint32_t>(
                   static_cast<unsigned char>(data_[pos_++]))
               << shift;
    return value;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 8)
      value |= static_cast<std::uint64_t>(
                   static_cast<unsigned char>(data_[pos_++]))
               << shift;
    return value;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  double f64() {
    const std::uint64_t bits = u64();
    double value = 0;
    std::memcpy(&value, &bits, sizeof value);
    return value;
  }

  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string value(data_ + pos_, n);
    pos_ += n;
    return value;
  }

  BitVec bitvec(std::size_t nbits) {
    const std::size_t words = (nbits + 63) / 64;
    need(words * 8);
    std::vector<std::uint64_t> storage(words, 0);
    for (std::size_t i = 0; i < words; ++i) storage[i] = u64();
    return BitVec::from_words(nbits, storage);
  }

  void done() const {
    if (pos_ != size_)
      fail("trailing bytes (" + std::to_string(size_ - pos_) + ")");
  }

  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error(std::string(what_) + ": " + why);
  }

  std::size_t remaining() const { return size_ - pos_; }

 private:
  void need(std::uint64_t bytes) {
    if (bytes > size_ - pos_) fail("truncated payload");
  }

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  const char* what_;
};

}  // namespace

std::string binary_request_payload(const WireRequest& wire) {
  const engine::SolveRequest& request = wire.request;
  if (request.masked.has_value())
    throw std::runtime_error(
        "binary request: masked patterns ride JSON passthrough frames");
  std::string out;
  const BinaryMatrix& pattern = request.matrix;
  out.reserve(128 + request.strategy.size() + request.label.size() +
              pattern.rows() * ((pattern.cols() + 63) / 64) * 8);
  put_i64(out, wire.id);
  std::uint32_t flags = 0;
  if (wire.include_partition) flags |= kFlagIncludePartition;
  if (wire.split) flags |= kFlagSplit;
  if (request.pre_canonical) flags |= kFlagPreCanonical;
  if (wire.has_trace) flags |= kFlagHasTrace;
  if (!request.symmetry_breaking) flags |= kFlagNoSymmetry;
  if (!request.preprocess) flags |= kFlagNoPreprocess;
  put_u32(out, flags);
  put_string(out, request.strategy);
  put_string(out, request.label);
  put_f64(out, wire.budget_seconds);
  put_i64(out, request.budget.max_conflicts);
  put_u64(out, request.budget.max_nodes);
  put_u32(out, 1);  // retired bound-race width; the slot keeps the layout
  put_u64(out, request.trials);
  put_u64(out, request.seed);
  put_u64(out, request.stop_at);
  put_u32(out, static_cast<std::uint32_t>(wire.threads));
  put_u8(out, request.encoding == smt::LabelEncoding::Binary ? 1 : 0);
  put_u8(out,
         request.semantics == completion::DontCareSemantics::AtMostOnce ? 1
                                                                        : 0);
  if (request.pre_canonical) {
    put_u64(out, request.canon_hi);
    put_u64(out, request.canon_lo);
  }
  if (wire.has_trace) {
    put_u64(out, wire.trace.hi);
    put_u64(out, wire.trace.lo);
    put_u64(out, wire.trace.parent_span);
  }
  put_u32(out, static_cast<std::uint32_t>(pattern.rows()));
  put_u32(out, static_cast<std::uint32_t>(pattern.cols()));
  for (std::size_t i = 0; i < pattern.rows(); ++i)
    put_bitvec_words(out, pattern.row(i));
  return out;
}

WireRequest parse_binary_request(const std::string& payload) {
  Reader in(payload, "binary request");
  WireRequest wire;
  engine::SolveRequest& request = wire.request;
  wire.op = WireOp::Solve;
  wire.id = in.i64();
  if (wire.id < -1 || wire.id > static_cast<std::int64_t>(9e15))
    in.fail("field 'id' out of range");
  const std::uint32_t flags = in.u32();
  wire.include_partition = (flags & kFlagIncludePartition) != 0;
  wire.split = (flags & kFlagSplit) != 0;
  request.pre_canonical = (flags & kFlagPreCanonical) != 0;
  wire.has_trace = (flags & kFlagHasTrace) != 0;
  request.symmetry_breaking = (flags & kFlagNoSymmetry) == 0;
  request.preprocess = (flags & kFlagNoPreprocess) == 0;
  request.strategy = in.str();
  if (request.strategy.empty()) request.strategy = "auto";
  request.label = in.str();
  wire.budget_seconds = in.f64();
  if (!(wire.budget_seconds >= 0.0 && wire.budget_seconds <= 86400.0 * 365))
    in.fail("field 'budget' out of range");
  if (wire.budget_seconds > 0)
    request.budget.deadline = Deadline::after(wire.budget_seconds);
  request.budget.max_conflicts = in.i64();
  if (request.budget.max_conflicts < -1 ||
      request.budget.max_conflicts > static_cast<std::int64_t>(9e15))
    in.fail("field 'conflicts' out of range");
  request.budget.max_nodes = in.u64();
  // Retired bound-race width: still range-checked, then ignored.
  if (in.u32() > 4096) in.fail("field 'probes' out of range");
  request.trials = static_cast<std::size_t>(in.u64());
  if (request.trials < 1 || request.trials > 1000000000)
    in.fail("field 'trials' out of range");
  request.seed = in.u64();
  request.stop_at = static_cast<std::size_t>(in.u64());
  const std::uint32_t threads = in.u32();
  if (threads > 4096) in.fail("field 'threads' out of range");
  wire.threads = threads;
  const std::uint8_t encoding = in.u8();
  if (encoding > 1) in.fail("field 'encoding' out of range");
  request.encoding =
      encoding == 1 ? smt::LabelEncoding::Binary : smt::LabelEncoding::OneHot;
  const std::uint8_t semantics = in.u8();
  if (semantics > 1) in.fail("field 'semantics' out of range");
  request.semantics = semantics == 1
                          ? completion::DontCareSemantics::AtMostOnce
                          : completion::DontCareSemantics::Free;
  if (request.pre_canonical) {
    request.canon_hi = in.u64();
    request.canon_lo = in.u64();
  }
  if (wire.has_trace) {
    wire.trace.hi = in.u64();
    wire.trace.lo = in.u64();
    wire.trace.parent_span = in.u64();
    if (!wire.trace.valid()) in.fail("zero trace id");
  }
  const std::uint64_t rows = in.u32();
  const std::uint64_t cols = in.u32();
  if (rows == 0 || cols == 0 || rows > kMaxDim || cols > kMaxDim)
    in.fail("bad pattern shape");
  const std::uint64_t words = rows * ((cols + 63) / 64);
  if (words * 8 > in.remaining()) in.fail("truncated pattern");
  std::vector<BitVec> pattern_rows;
  pattern_rows.reserve(rows);
  for (std::uint64_t i = 0; i < rows; ++i)
    pattern_rows.push_back(in.bitvec(static_cast<std::size_t>(cols)));
  request.matrix = BinaryMatrix::from_rows(std::move(pattern_rows),
                                           static_cast<std::size_t>(cols));
  in.done();
  return wire;
}

std::string binary_report_payload(const engine::SolveReport& report,
                                  bool include_partition, std::int64_t id,
                                  std::size_t rows, std::size_t cols,
                                  const std::string& events_json,
                                  const std::string& spans_json) {
  std::string out;
  out.reserve(160 + report.telemetry.size() * 32 + events_json.size() +
              spans_json.size());
  put_i64(out, id);
  std::uint32_t flags = 0;
  // The partition always rides when the report has one: its bitset
  // encoding is compact (unlike the JSON splice), and report.depth()
  // derives from it — dropping it would decode as depth 0.
  // `include_partition` only controls the render flag, i.e. whether a
  // normalized JSON reply should splice the partition in.
  const bool with_partition =
      !report.partition.empty() && rows > 0 && cols > 0;
  if (with_partition) flags |= kFlagHasPartition;
  if (include_partition) flags |= kFlagRenderPartition;
  if (!events_json.empty()) flags |= kFlagHasEvents;
  if (!spans_json.empty()) flags |= kFlagHasSpans;
  put_u32(out, flags);
  put_string(out, report.label);
  put_string(out, report.strategy);
  put_u8(out, report.status == engine::Status::Optimal   ? 0
              : report.status == engine::Status::Bounded ? 1
                                                         : 2);
  put_u64(out, report.lower_bound);
  put_u64(out, report.upper_bound);
  put_u64(out, report.upper_bound);  // the retired incumbent_depth slot
  put_u64(out, report.gap);
  put_f64(out, report.total_seconds);
  put_u32(out, static_cast<std::uint32_t>(report.timings.size()));
  for (const engine::PhaseTiming& timing : report.timings) {
    put_string(out, timing.phase);
    put_f64(out, timing.seconds);
  }
  put_u32(out, static_cast<std::uint32_t>(report.telemetry.size()));
  for (const auto& [key, value] : report.telemetry) {
    put_string(out, key);
    put_string(out, value);
  }
  put_u32(out, with_partition ? static_cast<std::uint32_t>(rows) : 0);
  put_u32(out, with_partition ? static_cast<std::uint32_t>(cols) : 0);
  if (with_partition) {
    put_u32(out, static_cast<std::uint32_t>(report.partition.size()));
    for (const Rectangle& rect : report.partition) {
      put_bitvec_words(out, rect.rows);
      put_bitvec_words(out, rect.cols);
    }
  }
  if (!events_json.empty()) put_string(out, events_json);
  if (!spans_json.empty()) put_string(out, spans_json);
  return out;
}

BinaryReply parse_binary_report(const std::string& payload) {
  Reader in(payload, "binary report");
  BinaryReply reply;
  engine::SolveReport& report = reply.report;
  reply.id = in.i64();
  const std::uint32_t flags = in.u32();
  reply.render_partition = (flags & kFlagRenderPartition) != 0;
  report.label = in.str();
  report.strategy = in.str();
  const std::uint8_t status = in.u8();
  if (status > 2) in.fail("bad status");
  report.status = status == 0   ? engine::Status::Optimal
                  : status == 1 ? engine::Status::Bounded
                                : engine::Status::Heuristic;
  report.lower_bound = static_cast<std::size_t>(in.u64());
  report.upper_bound = static_cast<std::size_t>(in.u64());
  // The retired incumbent_depth slot: range-checked, then dropped.
  if (in.u64() > kMaxDim) in.fail("field 'incumbent_depth' out of range");
  report.gap = static_cast<std::size_t>(in.u64());
  report.total_seconds = in.f64();
  const std::uint32_t n_timings = in.u32();
  if (n_timings > kMaxListEntries) in.fail("bad timing count");
  for (std::uint32_t i = 0; i < n_timings; ++i) {
    std::string phase = in.str();
    const double seconds = in.f64();
    report.add_timing(phase, seconds);
  }
  const std::uint32_t n_telemetry = in.u32();
  if (n_telemetry > kMaxListEntries) in.fail("bad telemetry count");
  for (std::uint32_t i = 0; i < n_telemetry; ++i) {
    std::string key = in.str();
    std::string value = in.str();
    report.add_telemetry(std::move(key), std::move(value));
  }
  const std::uint64_t rows = in.u32();
  const std::uint64_t cols = in.u32();
  if (rows > kMaxDim || cols > kMaxDim) in.fail("bad pattern shape");
  reply.rows = static_cast<std::size_t>(rows);
  reply.cols = static_cast<std::size_t>(cols);
  if ((flags & kFlagHasPartition) != 0) {
    if (rows == 0 || cols == 0) in.fail("partition without a pattern shape");
    const std::uint32_t n_rects = in.u32();
    if (n_rects > kMaxListEntries) in.fail("bad partition size");
    const std::uint64_t rect_bytes =
        (((rows + 63) / 64) + ((cols + 63) / 64)) * 8;
    if (n_rects * rect_bytes > in.remaining()) in.fail("truncated partition");
    report.partition.reserve(n_rects);
    for (std::uint32_t t = 0; t < n_rects; ++t) {
      BitVec rect_rows = in.bitvec(static_cast<std::size_t>(rows));
      BitVec rect_cols = in.bitvec(static_cast<std::size_t>(cols));
      report.partition.push_back(
          Rectangle{std::move(rect_rows), std::move(rect_cols)});
    }
  }
  if ((flags & kFlagHasEvents) != 0) reply.events_json = in.str();
  if ((flags & kFlagHasSpans) != 0) reply.spans_json = in.str();
  in.done();
  return reply;
}

std::int64_t binary_salvage_id(const std::string& payload) noexcept {
  if (payload.size() < 8) return -1;
  std::uint64_t raw = 0;
  for (int i = 7; i >= 0; --i)
    raw = (raw << 8) |
          static_cast<unsigned char>(payload[static_cast<std::size_t>(i)]);
  const std::int64_t id = static_cast<std::int64_t>(raw);
  return id >= 0 ? id : -1;
}

std::string binary_error_payload(std::int64_t id, const std::string& message,
                                 const std::string& label) {
  std::string out;
  out.reserve(24 + message.size() + label.size());
  put_i64(out, id);
  put_string(out, message);
  put_string(out, label);
  return out;
}

BinaryError parse_binary_error(const std::string& payload) {
  Reader in(payload, "binary error");
  BinaryError error;
  error.id = in.i64();
  error.message = in.str();
  error.label = in.str();
  in.done();
  return error;
}

}  // namespace ebmf::io
