// The front-end host both tiers run on: reactor wiring, admission, the
// trace and slow-log sinks, watch threads, the drain skeleton, the signal
// loop, and the instance registry every tier series lives in.

#include "net/host.h"

#include <csignal>
#include <cstdio>
#include <ctime>
#include <ostream>
#include <sstream>

#include "io/binary_io.h"
#include "io/json.h"
#include "io/request_io.h"
#include "net/frame.h"
#include "net/net.h"
#include "obs/events.h"
#include "service/cache.h"

namespace ebmf::net {

std::string framed_json(WireMode mode, const std::string& line) {
  if (mode == WireMode::Line) return line + "\n";
  return encode_frame(kFrameJson, line);
}

std::string upgrade_ack(std::int64_t id) {
  return id >= 0 ? "{\"id\":" + std::to_string(id) + ",\"upgraded\":true}"
                 : "{\"upgraded\":true}";
}

Host::Host(const HostOptions& options, std::string tier,
           std::size_t auto_workers, Handler& handler)
    : connections(registry_.counter(tier + ".connections")),
      requests(registry_.counter(tier + ".requests")),
      errors(registry_.counter(tier + ".errors")),
      rejected(registry_.counter(tier + ".rejected")),
      inflight(registry_.gauge(tier + ".inflight")),
      request_micros(registry_.histogram(tier + ".request.micros")),
      options_(options),
      tier_(std::move(tier)),
      auto_workers_(auto_workers),
      handler_(handler) {
  if (options_.max_batch == 0) options_.max_batch = 1;
  if (!options_.trace_file.empty()) {
    std::string error;
    if (!traces_.set_file(options_.trace_file, &error))
      std::fprintf(stderr, "trace-file: %s\n", error.c_str());
  }
  if (!options_.slow_log.empty()) {
    std::string error;
    if (!slow_file_.open(options_.slow_log, &error))
      std::fprintf(stderr, "slow-log: %s, logging to stderr\n",
                   error.c_str());
  }
}

Host::~Host() { reap_watch_threads(true); }

void Host::start() {
  ReactorOptions reactor_options;
  reactor_options.host = options_.host;
  reactor_options.port = options_.port;
  reactor_options.event_loops = options_.io_threads;
  reactor_options.workers =
      options_.io_workers > 0 ? options_.io_workers : auto_workers_;
  reactor_options.max_batch = options_.max_batch;
  reactor_options.max_message_bytes = options_.max_line_bytes;
  reactor_options.idle_timeout_seconds = options_.idle_timeout_seconds;

  ReactorCallbacks callbacks;
  callbacks.on_open = [this](const ConnPtr& conn) {
    connections->add(1);
    handler_.on_open(conn);
  };
  callbacks.on_batch = [this](const ConnPtr& conn,
                              std::vector<Message> messages) {
    handler_.on_batch(conn, std::move(messages));
  };
  callbacks.protocol_error_reply = [](WireMode mode,
                                      const std::string& message) {
    if (mode == WireMode::Line) return error_json(message, "") + "\n";
    return encode_frame(kFrameError,
                        io::binary_error_payload(-1, message, ""));
  };
  callbacks.on_close = [this](const ConnPtr& conn, bool aborted) {
    handler_.on_close(conn, aborted);
  };
  reactor_ = std::make_unique<ReactorServer>(std::move(reactor_options),
                                             std::move(callbacks));
  reactor_->start();
  stopping_ = false;
  running_ = true;
}

bool Host::begin_stop() {
  if (stopping_.exchange(true)) return false;
  return running_.load();
}

void Host::drain() {
  if (reactor_) {
    reactor_->begin_drain();
    for (const ConnPtr& conn : reactor_->connections()) handler_.on_drain(conn);
    reactor_->shutdown();
  }
  reap_watch_threads(true);
  slow_file_.flush();
  traces_.flush();
  running_ = false;
}

std::uint16_t Host::port() const noexcept {
  return reactor_ ? reactor_->port() : 0;
}

bool Host::try_admit() {
  const std::int64_t now = inflight->add(1);
  if (options_.max_inflight != 0 &&
      now > static_cast<std::int64_t>(options_.max_inflight)) {
    inflight->add(-1);
    rejected->add(1);
    return false;
  }
  return true;
}

void Host::release_admitted(std::size_t count) {
  if (count > 0) inflight->add(-static_cast<std::int64_t>(count));
}

std::string Host::overloaded_message() const {
  return "overloaded: " + std::to_string(options_.max_inflight) +
         " requests already in flight";
}

obs::Counter* Host::counter(const std::string& name) {
  return registry_.counter(tier_ + "." + name);
}

std::string Host::stats_head(
    std::int64_t id,
    std::initializer_list<std::pair<const char*, const obs::Counter*>> extra)
    const {
  std::ostringstream out;
  out << "{";
  if (id >= 0) out << "\"id\":" << id << ",";
  out << "\"stats\":true,\"role\":\"" << tier_ << "\",\"" << tier_
      << "\":{\"connections\":" << connections->value()
      << ",\"requests\":" << requests->value()
      << ",\"errors\":" << errors->value()
      << ",\"rejected\":" << rejected->value();
  for (const auto& [key, series] : extra)
    out << ",\"" << key << "\":" << series->value();
  out << ",\"inflight\":" << inflight->value()
      << ",\"max_inflight\":" << options_.max_inflight << "}";
  return out.str();
}

std::string Host::metrics_json() const {
  std::string process = obs::metrics_json(obs::default_registry());
  const std::string instance = obs::metrics_json(registry_);
  if (instance.size() <= 2) return process;
  if (process.size() <= 2) return instance;
  process.back() = ',';
  return process + instance.substr(1);
}

std::string Host::prometheus_text() const {
  return obs::prometheus_text(obs::default_registry()) +
         obs::prometheus_text(registry_);
}

std::optional<std::string> Host::admin_reply(const io::WireRequest& wire,
                                             bool* is_error) const {
  *is_error = false;
  // Solves pass through here on every request: decide before rendering.
  const bool own_metrics =
      wire.op == io::WireOp::Metrics &&
      (wire.scope.empty() || wire.scope == "self" || wire.scope == "local");
  if (!own_metrics && wire.op != io::WireOp::Events &&
      wire.op != io::WireOp::Trace && wire.op != io::WireOp::Traces)
    return std::nullopt;
  std::ostringstream reply;
  reply << "{";
  if (wire.id >= 0) reply << "\"id\":" << wire.id << ",";
  switch (wire.op) {
    case io::WireOp::Metrics:
      // Prometheus text, wrapped in one JSON line (the protocol is
      // line-framed); `ebmf client --metrics` unwraps the body.
      reply << "\"metrics\":true,\"content_type\":\"text/plain; "
               "version=0.0.4\",\"body\":\""
            << io::json::escape(prometheus_text()) << "\"}";
      return reply.str();
    case io::WireOp::Events:
      // The flight recorder on demand: the merged, tick-ordered tail of
      // every thread's event ring.
      reply << "\"events\":" << obs::events_json(obs::snapshot_events())
            << "}";
      return reply.str();
    case io::WireOp::Trace: {
      std::uint64_t hi = 0;
      std::uint64_t lo = 0;
      obs::parse_trace_id(wire.trace_id, &hi, &lo);
      const std::vector<obs::Span> spans = traces_.find(hi, lo);
      if (spans.empty()) {
        *is_error = true;
        return error_json("unknown trace id", "", wire.id);
      }
      return obs::trace_tree_json(wire.trace_id, spans);
    }
    case io::WireOp::Traces: {
      reply << "\"traces\":[";
      const auto recent = traces_.recent(32);
      for (std::size_t t = 0; t < recent.size(); ++t) {
        if (t != 0) reply << ",";
        reply << "{\"id\":\"" << recent[t].id << "\",\"root\":\""
              << io::json::escape(recent[t].root)
              << "\",\"dur_us\":" << recent[t].dur_us
              << ",\"spans\":" << recent[t].spans << "}";
      }
      reply << "]}";
      return reply.str();
    }
    default:
      return std::nullopt;
  }
}

bool Host::is_slow(std::uint64_t elapsed_us) const noexcept {
  return options_.slow_ms > 0 &&
         static_cast<double>(elapsed_us) / 1000.0 >= options_.slow_ms;
}

void Host::log_slow(std::string line) {
  // The flight recorder's tail: what the process was doing in the run-up
  // to this slow reply (restarts, incumbents, pool reconnects, GCs).
  line += ",\"events\":" + obs::events_json(obs::snapshot_events(32)) + "}";
  if (slow_file_.is_open()) {
    slow_file_.write_line(line);
    return;
  }
  const std::lock_guard<std::mutex> lock(slow_mutex_);
  std::fprintf(stderr, "%s\n", line.c_str());
  std::fflush(stderr);
}

void Host::spawn_watch(std::function<void()> body) {
  reap_watch_threads(false);
  auto done = std::make_shared<std::atomic<bool>>(false);
  WatchThread watcher;
  watcher.done = done;
  watcher.thread = std::thread([body = std::move(body), done]() {
    body();
    done->store(true, std::memory_order_release);
  });
  const std::lock_guard<std::mutex> lock(watch_mutex_);
  watch_threads_.push_back(std::move(watcher));
}

void Host::reap_watch_threads(bool join_all) {
  std::vector<std::thread> joinable;
  {
    const std::lock_guard<std::mutex> lock(watch_mutex_);
    for (std::size_t i = 0; i < watch_threads_.size();) {
      if (join_all || watch_threads_[i].done->load(std::memory_order_acquire)) {
        joinable.push_back(std::move(watch_threads_[i].thread));
        watch_threads_.erase(watch_threads_.begin() +
                             static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }
  for (std::thread& thread : joinable)
    if (thread.joinable()) thread.join();
}

// ---- run_until_signal -------------------------------------------------------

namespace {

volatile std::sig_atomic_t g_signal = 0;

void on_signal(int sig) { g_signal = sig; }

}  // namespace

int run_until_signal(const std::string& cache_file, cache::ResultCache* cache,
                     std::ostream& log, const std::function<void()>& start,
                     const std::function<void()>& drain) {
  const bool persist = !cache_file.empty() && cache != nullptr;
  if (persist) {
    std::string warning;
    const std::size_t loaded = cache->load_file(cache_file, &warning);
    if (!warning.empty()) log << "cache-file: " << warning << std::endl;
    if (loaded > 0)
      log << "cache-file: reloaded " << loaded << " entries from "
          << cache_file << std::endl;
  }

  g_signal = 0;
  struct sigaction action{};
  action.sa_handler = on_signal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  ::signal(SIGPIPE, SIG_IGN);  // all writers already use MSG_NOSIGNAL

  try {
    start();
  } catch (const std::exception& e) {
    log << "error: " << e.what() << "\n";
    return 1;
  }

  while (g_signal == 0) {
    timespec nap{0, 100 * 1000 * 1000};
    ::nanosleep(&nap, nullptr);
  }
  log << "signal " << static_cast<int>(g_signal) << " received, draining"
      << std::endl;
  drain();

  // Snapshot the drained cache so the next start answers warm.
  if (persist) {
    std::string error;
    if (cache->save_file(cache_file, &error)) {
      log << "cache-file: saved " << cache->stats().entries << " entries to "
          << cache_file << std::endl;
    } else {
      log << "cache-file: " << error << std::endl;
    }
  }
  return 0;
}

}  // namespace ebmf::net
