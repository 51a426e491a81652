#pragma once
/// \file fault.h
/// \brief Process-wide fault injection for the net path (`ebmf::fault`).
///
/// The HA drills need to prove the fleet survives the failures that happen
/// in production — half-open connections, slow replies, writes torn mid-line
/// — not just clean kill -9s. This layer compiles the failure modes straight
/// into `net/net.h` so every tier (client, router pools, peer sync,
/// backend announce) exercises the same degraded transport.
///
/// Faults are off by default and cost one relaxed atomic load on the hot
/// path. They are enabled either programmatically (tests call `configure`)
/// or via the `EBMF_FAULT` environment variable (CI drills), a
/// comma-separated `key=value` list:
///
///   EBMF_FAULT="drop_connect=0.05,drop_write=0.02,torn_write=0.02,
///               delay_p=0.1,delay_ms=5,seed=42"
///
///  * `drop_connect` — probability a `tcp_connect` fails with ECONNREFUSED.
///  * `drop_write`   — probability a `write_line` aborts before sending.
///  * `torn_write`   — probability a `write_line` sends only a prefix and
///                     then shuts the socket down (a torn line: the peer
///                     sees bytes but never a newline).
///  * `delay_p` / `delay_ms` — probability and duration of an injected
///                     stall before a write (slow-reply simulation).
///  * `seed`         — deterministic stream for the Bernoulli draws.
///
/// Injection decisions are counted so tests can assert the drill actually
/// drilled something (a fault config that never fires proves nothing).

#include <cstddef>
#include <cstdint>
#include <string>

namespace ebmf::fault {

/// Probabilities in [0,1]; all zero means the layer is inert.
struct Config {
  double drop_connect = 0.0;
  double drop_write = 0.0;
  double torn_write = 0.0;
  double delay_p = 0.0;
  std::uint32_t delay_ms = 0;
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;

  [[nodiscard]] bool any() const noexcept {
    return drop_connect > 0.0 || drop_write > 0.0 || torn_write > 0.0 ||
           (delay_p > 0.0 && delay_ms > 0);
  }
};

/// Counts of faults actually injected since process start.
struct Stats {
  std::uint64_t connect_drops = 0;
  std::uint64_t write_drops = 0;
  std::uint64_t torn_writes = 0;
  std::uint64_t delays = 0;
};

/// Install a fault plan (tests). Replaces any previous plan and reseeds the
/// decision stream. Thread-safe.
void configure(const Config& config);

/// Parse `spec` (the EBMF_FAULT format above) and install it. Returns false
/// (and installs nothing) on a malformed spec. An empty spec disables
/// injection.
bool configure_from_spec(const std::string& spec);

/// Disable all injection.
void reset();

/// The currently installed plan.
[[nodiscard]] Config current();

/// Injection counts so far.
[[nodiscard]] Stats stats();

// ---- hooks called from net/net.cpp (cheap no-ops when inert) -------------

/// True if this connect attempt should fail artificially.
bool should_drop_connect();

/// True if this write should be dropped without sending.
bool should_drop_write();

/// Returns `full` normally; a smaller value when this write should be torn
/// after that many bytes. Precondition: full > 0.
std::size_t maybe_tear(std::size_t full);

/// Sleeps for the injected delay (if one fires) before a write.
void maybe_delay();

/// Reads EBMF_FAULT from the environment (once per process) and installs it.
/// Called lazily by the hooks; exposed for tests and early CLI setup.
void ensure_env_loaded();

}  // namespace ebmf::fault
