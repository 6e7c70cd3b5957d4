// Metric containers filled by the agents during a scenario run. Everything
// the paper's Figures 6-15 plot comes out of these.
//
// The paper's time plots sum over a role, never one host, so RoleSeries is
// per role (clients and fluid populations add into Result::legit, each bot
// into its group's AttackGroupReport::series); HostReport is per host, and
// ServerReport per server.
//
// Field lists are single-sourced as X-macro tables (like
// TCPZ_LISTENER_COUNTER_FIELDS in tcp/counters.hpp): the golden-trace digest
// (tests/trace_digest.hpp) and the metrics registry (obs/registry.cpp) both
// expand the same tables, so a new series or total can never silently go
// un-digested or un-serialized. Table order is load-bearing — the digests
// fold in table order; append, don't reorder.
#pragma once

#include <cstdint>
#include <string>

#include "tcp/listener.hpp"
#include "util/stats.hpp"
#include "util/timeseries.hpp"

namespace tcpz::sim {

/// Per-role TimeSeries fields. X(name, help).
#define TCPZ_ROLE_SERIES_FIELDS(X)                                          \
  X(rx_bytes, "bytes received per second")                                  \
  X(tx_bytes, "bytes sent per second")                                      \
  X(attempts, "connection attempts started per second")                     \
  X(established, "handshakes completed per second (our view)")              \
  X(completions, "full request/response cycles per second")                 \
  X(failures, "connection attempts failed per second")                      \
  X(refusals, "attempts abandoned pre-wire: backlogged solver or price refusal")

/// One role's time series, summed bin by bin over its hosts.
struct RoleSeries {
#define TCPZ_X(name, help) TimeSeries name;
  TCPZ_ROLE_SERIES_FIELDS(TCPZ_X)
#undef TCPZ_X

  /// Bin-wise sum of another ledger of the same role (shard merge).
  RoleSeries& operator+=(const RoleSeries& o) {
#define TCPZ_X(name, help) name += o.name;
    TCPZ_ROLE_SERIES_FIELDS(TCPZ_X)
#undef TCPZ_X
    return *this;
  }

  /// Mean goodput in Mbps over bins [from, to).
  [[nodiscard]] double rx_mbps(std::size_t from, std::size_t to) const {
    return rx_bytes.mean_rate(from, to) * 8.0 / 1e6;
  }
};

/// Per-host cumulative totals. X(name, help).
#define TCPZ_HOST_REPORT_TOTAL_FIELDS(X)                                    \
  X(total_attempts, "connection attempts started")                          \
  X(total_established, "handshakes completed")                              \
  X(total_completions, "full request/response cycles")                      \
  X(total_failures, "connection attempts failed")                           \
  X(total_rsts, "RSTs received")                                            \
  X(challenges_seen, "puzzle challenges received")                          \
  X(solves_refused, "solves refused: backlogged solver or price refusal")

/// Per-host (client, bot or fluid population) measurements.
struct HostReport {
  SampleSet conn_time_ms;  ///< SYN sent -> established (includes solve time)
  GaugeSeries cpu;

#define TCPZ_X(name, help) std::uint64_t name = 0;
  TCPZ_HOST_REPORT_TOTAL_FIELDS(TCPZ_X)
#undef TCPZ_X
};

/// Server-side TimeSeries fields. X(name, help).
#define TCPZ_SERVER_REPORT_SERIES_FIELDS(X)                                 \
  X(rx_bytes, "bytes received per second")                                  \
  X(tx_bytes, "bytes sent per second")                                      \
  X(challenge_synacks, "challenge SYN-ACKs per second (Fig. 8 sparkline)")  \
  X(plain_synacks, "plain SYN-ACKs per second")                             \
  X(established_client, "legitimate-client establishments per second")      \
  X(established_attacker, "botnet establishments per second")               \
  X(responses, "responses served per second")

/// Server-side gauge fields. X(name, help).
#define TCPZ_SERVER_REPORT_GAUGE_FIELDS(X)                                  \
  X(listen_queue, "listen (SYN) queue depth")                               \
  X(accept_queue, "accept queue depth")                                     \
  X(cpu, "server CPU utilization")                                          \
  X(difficulty_m, "puzzle difficulty bits m over time")

/// Server-side measurements. The established_* split relies on the
/// simulator knowing which addresses belong to the botnet.
struct ServerReport {
#define TCPZ_X(name, help) TimeSeries name;
  TCPZ_SERVER_REPORT_SERIES_FIELDS(TCPZ_X)
#undef TCPZ_X
#define TCPZ_X(name, help) GaugeSeries name;
  TCPZ_SERVER_REPORT_GAUGE_FIELDS(TCPZ_X)
#undef TCPZ_X

  tcp::ListenerCounters counters;  ///< final listener counters
  /// DefensePolicy::name() of the listener that produced this report, so
  /// result files identify the policy (e.g. "adaptive+puzzles") instead of
  /// a bare enum value.
  std::string policy;
  /// Difficulty bits m at the end of the run — the adaptive policy's final
  /// setting (equals the configured m when the difficulty never moved).
  double final_difficulty_m = 0;

  [[nodiscard]] double tx_mbps(std::size_t from, std::size_t to) const {
    return tx_bytes.mean_rate(from, to) * 8.0 / 1e6;
  }
  /// Mean attacker established-connection rate (Fig. 11) over [from, to).
  [[nodiscard]] double attacker_cps(std::size_t from, std::size_t to) const {
    return established_attacker.mean_rate(from, to);
  }
};

}  // namespace tcpz::sim
