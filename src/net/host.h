#pragma once
/// \file host.h
/// \brief `net::Host` — the front-end host both tiers run on: `ebmf serve`
/// (service::Server) and `ebmf route` (router::Router) are each a Handler
/// plugged into one.
///
/// What the two tiers share lives here, once:
///
///  * **The reactor** (net/reactor.h) and its callbacks: the host builds
///    the ReactorServer from HostOptions, counts connections, renders the
///    fatal protocol-error reply in the connection's framing, and hands
///    each micro-batch to the Handler.
///  * **Admission control**: one in-flight gauge checked against
///    `max_inflight`; a refused request bumps `<tier>.rejected`.
///  * **Sinks**: the TraceStore behind `{"op":"trace"}`/`{"op":"traces"}`
///    (plus `--trace-file`) and the rotating `--slow-log` (stderr when
///    unset).
///  * **Watch threads**: streams that outlive a batch run on tracked
///    threads, reaped as they finish and joined by the drain.
///  * **The drain skeleton** of stop(): stop reading, let the Handler
///    cancel per-connection work, answer what was accepted, join, flush.
///  * **The signal loop**: run_until_signal() is `serve_forever` and
///    `route_forever` minus their banners and reports.
///
/// **One counter store per instance.** Every tier counter, gauge and
/// histogram lives in the host's own obs::Registry, exactly once: the
/// stats verb, ServerStats/RouterStats, the stats `metrics` block and the
/// Prometheus exposition all read it. Two servers in one process count
/// apart. The process registry (obs::default_registry) keeps the solver
/// and cache series; the exposition renders it first, then the instance
/// series, and the two sets share no name.

#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/reactor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/logrotate.h"

namespace ebmf::io {
struct WireRequest;
}
namespace ebmf::cache {
class ResultCache;
}

namespace ebmf::net {

/// The settings both tiers share; ServerOptions and RouterOptions derive
/// from it (CLI flags map 1:1).
struct HostOptions {
  std::uint16_t port = 0;          ///< 0 = pick an ephemeral port.
  std::string host = "127.0.0.1";  ///< Bind address.
  std::size_t max_inflight = 256;  ///< Global admission limit.
  std::size_t max_batch = 32;      ///< Pipelined messages per batch.
  std::size_t max_line_bytes = 4u << 20;  ///< Oversized line/frame guard.
  std::size_t io_threads = 2;      ///< Reactor event-loop threads.
  /// Reactor handler threads. 0 = auto: the reactor's default on `serve`,
  /// 64 on `route`, whose handlers block in a backend round trip (pool
  /// reader threads complete replies independently, so a full worker pool
  /// delays new work and never deadlocks).
  std::size_t io_workers = 0;
  /// Reap connections with no traffic, no queued output, and no work in
  /// flight for this long (half-open peers). 0 = never.
  double idle_timeout_seconds = 0.0;
  /// Result-cache snapshot (`--cache-file`): run_until_signal reloads it
  /// before serving (a corrupt or version-mismatched file is ignored with
  /// a warning) and rewrites it after the drain. "" = no persistence.
  std::string cache_file;
  /// Slow-request log (`--slow-ms`): any request slower than this many
  /// milliseconds is appended as one JSON line to `slow_log` (stderr when
  /// empty). 0 = off.
  double slow_ms = 0.0;
  std::string slow_log;  ///< `--slow-log=PATH`; empty = stderr.
  /// Completed traces additionally append to this JSON-lines file
  /// (`--trace-file=PATH`); empty = ring only.
  std::string trace_file;
};

/// Wrap one JSON reply line in the framing `mode` uses: '\n'-terminated on
/// a line connection, a type-4 JSON frame after the upgrade.
[[nodiscard]] std::string framed_json(WireMode mode, const std::string& line);

/// The `{"op":"upgrade"}` acknowledgement (`id` < 0 omits the id): the
/// extractor already flipped the input framing, so this is the
/// connection's last line-framed reply.
[[nodiscard]] std::string upgrade_ack(std::int64_t id);

/// A tier's request handling, driven by a Host. on_batch runs on a reactor
/// worker and may block; the other hooks run on a loop thread and must
/// not.
class Handler {
 public:
  virtual ~Handler() = default;
  /// One micro-batch, in arrival order, at most one in flight per
  /// connection.
  virtual void on_batch(const ConnPtr& conn, std::vector<Message> messages) = 0;
  virtual void on_open(const ConnPtr& /*conn*/) {}
  /// `aborted` = death with work possibly in flight (RST, EPOLLERR, write
  /// overflow); an orderly close reports false.
  virtual void on_close(const ConnPtr& /*conn*/, bool /*aborted*/) {}
  /// Called for each live connection once the drain has stopped reading,
  /// before the reactor answers what was accepted.
  virtual void on_drain(const ConnPtr& /*conn*/) {}
};

class Host {
  /// Declared first: the series pointers below resolve into it.
  obs::Registry registry_;

 public:
  /// `tier` prefixes the instance series ("server" → `server.requests`).
  /// `auto_workers` is what `io_workers` = 0 means (0 = the reactor's own
  /// default). The handler must outlive the host.
  Host(const HostOptions& options, std::string tier, std::size_t auto_workers,
       Handler& handler);
  ~Host();

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  /// Bind and serve. Throws std::runtime_error when the address is
  /// unusable.
  void start();

  /// Flag the host stopping (tier threads poll stopping()). False when it
  /// already was or never started: the tier's stop() then returns.
  bool begin_stop();

  /// The drain after begin_stop(): stop accepting and reading, call
  /// Handler::on_drain per live connection, let the reactor answer what
  /// was accepted, flush and join; then join the watch threads and flush
  /// the trace and slow-log sinks (their tail must survive the SIGTERM).
  void drain();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool stopping() const noexcept {
    return stopping_.load(std::memory_order_relaxed);
  }
  /// The bound port (resolves port 0 after start(); stays answerable after
  /// the drain). 0 before start().
  [[nodiscard]] std::uint16_t port() const noexcept;

  // ---- admission ---------------------------------------------------------

  /// Reserve one in-flight slot; false (and `<tier>.rejected` counted)
  /// when the host is at `max_inflight`.
  bool try_admit();
  void release_admitted(std::size_t count);
  /// The error text a refused request is answered with.
  [[nodiscard]] std::string overloaded_message() const;

  // ---- the instance registry ---------------------------------------------

  [[nodiscard]] obs::Registry& registry() noexcept { return registry_; }
  /// `<tier>.<name>` in the instance registry.
  [[nodiscard]] obs::Counter* counter(const std::string& name);

  /// The series every tier keeps: replies with a report, replies with an
  /// error, refused admissions, the in-flight count, and request latency.
  obs::Counter* const connections;
  obs::Counter* const requests;
  obs::Counter* const errors;
  obs::Counter* const rejected;
  obs::Gauge* const inflight;
  obs::Histogram* const request_micros;

  /// `{"id":N,"stats":true,"role":"<tier>","<tier>":{connections, requests,
  /// errors, rejected, <extra...>, inflight, max_inflight}` — the stats
  /// reply's head, without its closing brace.
  [[nodiscard]] std::string stats_head(
      std::int64_t id,
      std::initializer_list<std::pair<const char*, const obs::Counter*>>
          extra) const;

  /// The stats `metrics` block: the process registry's series, then this
  /// instance's, as one JSON object.
  [[nodiscard]] std::string metrics_json() const;
  /// The Prometheus exposition, process series first.
  [[nodiscard]] std::string prometheus_text() const;

  /// The admin verbs both tiers answer alike: `metrics` in the instance's
  /// own scope ("", "self", "local"), `events`, `trace` and `traces`.
  /// nullopt for any other verb or metrics scope. `*is_error` is set for
  /// an unknown trace id.
  [[nodiscard]] std::optional<std::string> admin_reply(
      const io::WireRequest& wire, bool* is_error) const;

  // ---- sinks and watch threads -------------------------------------------

  [[nodiscard]] obs::TraceStore& traces() noexcept { return traces_; }

  /// True when `elapsed_us` crosses `--slow-ms` (never when it is off).
  [[nodiscard]] bool is_slow(std::uint64_t elapsed_us) const noexcept;
  /// Append the flight recorder's recent tail to `line` (a JSON object
  /// without its closing brace) and write it to the slow log.
  void log_slow(std::string line);

  /// Run `body` on a tracked thread (watch streams). Finished threads are
  /// reaped on the next spawn; drain() joins the rest, so `body` must
  /// return promptly once stopping() is set.
  void spawn_watch(std::function<void()> body);

 private:
  void reap_watch_threads(bool join_all);

  HostOptions options_;
  std::string tier_;
  std::size_t auto_workers_;
  Handler& handler_;

  obs::TraceStore traces_{128};
  RotatingFile slow_file_;
  std::mutex slow_mutex_;

  /// Created in start(); shut down (not destroyed) by drain().
  std::unique_ptr<ReactorServer> reactor_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  struct WatchThread {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::mutex watch_mutex_;
  std::vector<WatchThread> watch_threads_;
};

/// The `ebmf serve` / `ebmf route` main loop: reload `cache` (may be null)
/// from `cache_file`, install the SIGTERM/SIGINT handlers, run `start` (a
/// throw is logged, exit 1), block until a signal, log it, run `drain`,
/// then save the drained cache. Returns the process exit code.
int run_until_signal(const std::string& cache_file, cache::ResultCache* cache,
                     std::ostream& log, const std::function<void()>& start,
                     const std::function<void()>& drain);

}  // namespace ebmf::net
