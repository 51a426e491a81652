#pragma once
/// \file client.h
/// \brief The blocking client for both wires: dial a serve/route tier from
/// an address list, optionally upgrade to the binary frame protocol, and
/// exchange requests for replies normalized back to JSON lines. Used by
/// `ebmf client`, `bench_service`, the tests and the CI drills.
///
/// It deliberately stays synchronous — one socket at a time, caller-driven
/// pipelining — because its job is to *exercise* the tiers' reactor, not
/// to be one.
///
///  * **Wires.** A connection starts in the line protocol: send_line()
///    writes one `write_line` per request and read_line() pops the next
///    line off a LineBuffer. After upgrade(), plain solves sent with
///    send_request() go out as type-1 frames and every other request as a
///    type-4 JSON frame; replies are decoded with a FrameBuffer.
///  * **Reply normalization.** Whatever the wire carried (a JSON line, a
///    type-4 JSON frame, a type-2 binary report, a type-3 binary error),
///    read_line() returns the JSON text the line protocol would have
///    produced for the same exchange, so callers diff replies across wire
///    modes byte-for-byte. (One deviation: a binary report's trace member
///    carries spans only — the trace id travels in the request, so the
///    caller already has it.)
///  * **Connect/reset failover.** A refused dial or mid-flight reset
///    rotates to the next address; full rotations back off exponentially
///    (capped, jittered) so a briefly-dark fleet is ridden out rather than
///    hammered. round_trip() re-sends its line over the fresh connection.
///    An upgraded client upgrades again on every connection it fails over
///    or is redirected to.
///  * **Redirect chasing.** A follower's epoch-stamped
///    `{"redirect":"host:port",...}` reply makes the client reconnect to
///    the named leaseholder and re-send — bounded hops, so a redirect loop
///    during an election degrades into ordinary failover. A stale-epoch
///    redirect is harmless: the target answers or resets, and either way
///    the client converges on the live leaseholder.
///  * **Request-id dedupe.** Replies are deduped by `"id"` plus the
///    request line itself (an id reused for a *different* request is not a
///    retry and still reaches the server): a retried request whose first
///    send actually landed is answered exactly once — a re-sent
///    already-answered id returns the cached reply instead of dialing
///    again. Solve requests are idempotent, which is what makes the
///    re-send safe in the first place; the dedupe makes it *counted* safe
///    for callers tallying replies.

#include <cstdint>
#include <string>
#include <vector>

#include "io/request_io.h"
#include "net/frame.h"
#include "net/net.h"

namespace ebmf::net {

class Client {
 public:
  /// Connect to the first reachable address of the list (throws
  /// std::runtime_error when every address refuses). The connection
  /// starts in line mode; call upgrade() to negotiate frames.
  explicit Client(const std::vector<std::string>& endpoints);

  /// Single-address convenience.
  Client(const std::string& host, std::uint16_t port);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Negotiate the binary frame protocol, now and on every later
  /// connection. True when the server answered `"upgraded":true`; false
  /// when it declined (an old server — the line connection remains
  /// perfectly usable). A connection that dies mid-negotiation fails over.
  bool upgrade();

  /// True while the current connection speaks frames.
  [[nodiscard]] bool binary() const noexcept { return binary_; }

  /// Send one request line (a type-4 frame on an upgraded connection).
  /// Fails over to the next address when the send hits a reset/refused
  /// peer.
  void send_line(const std::string& line);

  /// Send one request in the connection's wire mode: a type-1 solve frame
  /// for a plain solve on an upgraded connection, JSON otherwise (masked
  /// requests and admin verbs have no binary encoding). Fails over like
  /// send_line().
  void send_request(const io::WireRequest& wire);

  /// Block for the next reply, normalized to a JSON line (see file
  /// comment). Throws on server EOF or a malformed frame.
  std::string read_line();

  /// send_line + read_line with failover, redirect chasing, and
  /// request-id dedupe (see file comment).
  std::string round_trip(const std::string& line);

  /// The address currently connected ("host:port") — who answered last.
  [[nodiscard]] const std::string& endpoint() const noexcept;

  /// Tear down the connection.
  void close();

 private:
  /// Tear down and re-establish a connection, rotating through the
  /// address list with capped jittered backoff between full rotations.
  /// False when every address refuses for `rounds` rotations.
  bool reconnect(std::size_t rounds = 3);

  /// Dial one specific address (a redirect target) and, when upgraded,
  /// negotiate frames on it. False on refusal or a failed negotiation.
  bool connect_to(const std::string& endpoint);

  /// Upgrade the current connection; false when it died first.
  bool negotiate();

  /// Send `line` (or `wire` when `line` is null) once, in this
  /// connection's wire mode. False when the peer is gone.
  bool write_request(const std::string* line, const io::WireRequest* wire);

  /// write_request with reset failover.
  void send(const std::string* line, const io::WireRequest* wire);

  /// One answered request: the id alone is not the cache key — a retry
  /// must carry the *same line* to be served from cache, so an id reused
  /// for a different request still reaches the server.
  struct Answered {
    std::int64_t id;
    std::size_t line_hash;
    std::string reply;
  };

  /// Record an answered id (bounded) and say whether it was new.
  bool record_answered(std::int64_t id, std::size_t line_hash,
                       const std::string& reply);

  std::vector<std::string> endpoints_;
  std::size_t cursor_ = 0;     ///< Index of the connected address.
  std::string connected_;      ///< Text of the connected address.
  double backoff_ms_ = 50.0;   ///< Next inter-rotation pause.
  std::uint64_t jitter_state_; ///< Cheap xorshift state for jitter.
  int fd_ = -1;
  bool upgraded_ = false;  ///< upgrade() was called: negotiate every dial.
  bool binary_ = false;    ///< The current connection speaks frames.
  LineBuffer buffer_;      ///< Line-mode replies (and the upgrade ack).
  FrameBuffer frames_;     ///< Frame-mode replies.
  /// Answered-id cache (insertion-ordered, bounded).
  std::vector<Answered> answered_;
};

}  // namespace ebmf::net
