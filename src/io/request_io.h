#pragma once
/// \file request_io.h
/// \brief The line-JSON solve-request format — one request per line —
/// shared by the `ebmf::service` wire protocol, the `ebmf client`
/// subcommand, and `ebmf solve --requests=FILE` batch files.
///
/// Request schema (all fields except "pattern" optional):
///
/// ```json
/// {"pattern": "110;011;111",        // rows joined by ';' — or an array
///                                   // of row strings; '*'/'x' cells make
///                                   // the request masked (don't-cares)
///  "strategy": "auto",              // registry name
///  "label": "patch-17",             // echoed into the report
///  "budget": 2.5,                   // per-request deadline, seconds
///  "conflicts": 20000,              // SAT conflict cap per decision call
///  "nodes": 0,                      // search-node cap (0 = unlimited)
///  "probes": 1,                     // accepted (0..4096) and ignored: the
///                                   // retired SMT bound-race width
///  "trials": 100, "seed": 1, "stop_at": 0,
///  "encoding": "onehot",            // or "binary"
///  "symmetry_breaking": true,
///  "preprocess": true,
///  "semantics": "free",             // or "at-most-once" (masked requests)
///  "split": false,                  // route through Engine::solve_split
///  "threads": 0,                    // split worker count (0 = hardware)
///  "include_partition": false}      // append the partition to the reply
/// ```
///
/// The response is one line of engine::to_json output; with
/// "include_partition" it gains a "partition" array of
/// {"rows": [...], "cols": [...]} index lists.
///
/// Cluster verbs (PR 5): backends announce themselves to a dynamic router
/// with `{"op":"join","endpoint":"host:port"}`, then send periodic
/// `{"op":"heartbeat","endpoint":...}` lines (reply `{"ok":true,"epoch":E}`;
/// `{"ok":false,"rejoin":true}` after an eviction) and a final
/// `{"op":"leave","endpoint":...}` on drain. The router replicates promoted
/// hot keys by fanning `{"op":"put","pattern":"<canonical>","strategy":...,
/// "report":{<wire response with partition>}}` writes to replica backends,
/// which validate the certificate and insert it into their result cache.

#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "io/json.h"
#include "obs/trace.h"

namespace ebmf::io {

/// What a request line asks for: a solve, the admin `stats` snapshot
/// (`{"op":"stats"}` — cache counters, in-flight, per-backend health), one
/// of the cluster membership verbs backends send to a dynamic router
/// (`{"op":"join"|"leave"|"heartbeat","endpoint":"host:port"}`), a
/// replica cache write the router fans to backends
/// (`{"op":"put","pattern":...,"strategy":...,"report":{...}}`), one of
/// the router-fleet peer verbs (PR 8) — `{"op":"peer.hello"}` endpoint
/// introduction/probe, `{"op":"peer.lease"}` leader-lease claim, and
/// `{"op":"peer.sync"}` the leaseholder's state replication carrying the
/// member table, epoch, and promoted hot-key set — or one of
/// the observability verbs: `{"op":"trace","id":"<32 hex>"}` returns one
/// completed trace's span tree, `{"op":"traces"}` lists recent traces,
/// `{"op":"metrics"}` returns the Prometheus text exposition (a router
/// additionally accepts `"scope":"fleet"` and answers with the federated
/// exposition of every backend and peer — obs/federate.h),
/// `{"op":"watch","id":N}` subscribes the connection to the live progress
/// frames of the in-flight request with that correlation id (one JSONL
/// frame per publish, then a final `{"done":true}` line), and
/// `{"op":"events"}` snapshots the flight recorder (obs/events.h).
enum class WireOp { Solve, Stats, Join, Leave, Heartbeat, Put, Trace, Traces,
                    Metrics, Watch, Events, PeerHello, PeerLease, PeerSync };

/// One member entry in a `peer.sync` snapshot (kept local to the wire
/// layer; the router converts to/from cluster::Member).
struct WirePeerMember {
  std::string endpoint;
  bool is_static = false;
};

/// One parsed wire request: the facade request plus routing options that
/// live outside SolveRequest.
struct WireRequest {
  WireOp op = WireOp::Solve;  ///< `"op"` field; "solve" when absent.
  engine::SolveRequest request;
  /// Join/Leave/Heartbeat: the announcing backend's own "host:port" (the
  /// address the router should dial and the ring id it shards under).
  std::string endpoint;
  /// Put: the report to insert into the receiving backend's cache, its
  /// partition witnessing request.matrix (which carries the canonical
  /// pattern) under request.strategy.
  engine::SolveReport put_report;
  /// Correlation id echoed as the *first* member of the response line
  /// (absent when < 0). The router assigns these to match pipelined
  /// backend replies to their requests; clients may use them too.
  std::int64_t id = -1;
  /// The requested deadline in seconds (0 = none). Mirrored into
  /// request.budget.deadline by the parser; kept here as well because a
  /// Deadline is an absolute time point and cannot be re-serialized.
  double budget_seconds = 0.0;
  bool split = false;              ///< Use Engine::solve_split.
  std::size_t threads = 0;         ///< solve_split worker count.
  bool include_partition = false;  ///< Attach the partition to the reply.
  /// Solve: the propagated trace context when the request carried a
  /// `"trace"` member (`{"id":"<32 hex>","span":"<16 hex>"}`); `has_trace`
  /// distinguishes "absent" from an all-zero context. Legacy requests
  /// without the member parse with has_trace == false and behave exactly
  /// as before.
  obs::TraceContext trace;
  bool has_trace = false;
  /// Trace query (`op == Trace`): the requested 32-hex trace id.
  std::string trace_id;
  /// Metrics: the requested scope — "" (the instance's own registry, the
  /// default) or "fleet" (router only: federate every backend + peer).
  /// Anything else is rejected by the serving side, not the parser, so the
  /// error can say which scopes *this* instance supports.
  std::string scope;
  /// Peer verbs: the sender's lease term (hello/lease) or the term the
  /// sync was replicated under.
  std::uint64_t term = 0;
  /// PeerSync: the leaseholder's membership epoch.
  std::uint64_t peer_epoch = 0;
  /// PeerSync: the full member table (small; replicated wholesale).
  std::vector<WirePeerMember> peer_members;
  /// PeerSync: promoted hot keys as route-key values (16-hex on the wire —
  /// JSON numbers cannot carry 64 bits).
  std::vector<std::uint64_t> promoted_keys;
};

/// Parse one line of the request format. Throws std::runtime_error with a
/// protocol-level message on malformed JSON, a missing/ill-formed pattern,
/// or out-of-range numeric fields (strategy names are resolved later by the
/// engine, where the registry lives).
WireRequest parse_wire_request(const std::string& line);

/// Render a request back to one protocol line (client side; defaults are
/// omitted). parse_wire_request(wire_request_json(r)) round-trips.
std::string wire_request_json(const WireRequest& wire);

/// The request's pattern as the wire text: rows joined by ';', '*' for
/// don't-care cells. The router keys masked (pass-through) requests by
/// exactly this text so repeats share one backend.
std::string render_pattern_text(const engine::SolveRequest& request);

/// Best-effort extraction of the "id" field from a (possibly malformed)
/// request line: -1 when absent, mistyped, out of range, or the line is
/// not JSON. Lets error replies echo the correlation id even for lines
/// parse_wire_request rejects.
std::int64_t salvage_request_id(const std::string& line) noexcept;

/// Render a report reply, optionally with the partition attached — the
/// exact line the server writes back. `id` >= 0 is echoed as the first
/// member (`{"id":N,...}`), the shape net::strip_id_prefix matches.
std::string wire_response_json(const engine::SolveReport& report,
                               bool include_partition, std::int64_t id = -1);

/// Parse a wire response line back into a SolveReport: label, strategy,
/// status, bounds, total_seconds, timings, telemetry — and, when the line
/// carries a "partition" array and `rows`/`cols` give the pattern shape,
/// the partition itself (index lists -> bit sets). The router uses this to
/// re-own backend replies (lift + re-render + L1 insert); the cache
/// snapshot loader and bench_service --connect share it. Throws
/// std::runtime_error on malformed input or an `{"error": ...}` line.
engine::SolveReport parse_wire_response(const std::string& line,
                                        std::size_t rows = 0,
                                        std::size_t cols = 0);

/// Same, from an already-parsed document (cache snapshot entries embed the
/// response object inside a larger line).
engine::SolveReport parse_wire_response(const json::Value& document,
                                        std::size_t rows = 0,
                                        std::size_t cols = 0);

/// Recognize a follower's epoch-stamped redirect reply:
/// `{"redirect":"host:port","epoch":E,"term":T,...}` (an optional leading
/// `"id"` member is fine). Returns true and fills the out-params when the
/// line is one; false (never throws) otherwise — callers check this
/// *before* parse_wire_response, which treats unknown shapes as errors.
bool parse_wire_redirect(const std::string& line, std::string* endpoint,
                         std::uint64_t* epoch, std::uint64_t* term) noexcept;

}  // namespace ebmf::io
