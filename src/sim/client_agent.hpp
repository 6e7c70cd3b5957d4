// A legitimate client: a request generator where each request opens a fresh
// TCP connection, sends a gettext request and waits for the response. The
// demand comes from a workload::ModelSpec: the paper's §6 open-loop Poisson
// arrivals at rate r_c (one Exp(λ) draw per arrival — the golden traces pin
// that draw order), fixed request/response sizes, and a solver backlog cap.
// Solving is serial through the CPU model's solver lanes — the in-kernel
// search of the patch — and challenges beyond the backlog cap are refused
// (connect() backpressure).
//
// Periodic work runs on two shared net::Cadences the scenario engine owns:
// the tick cadence polls the connectors and expires overdue attempts, and
// calls this client only while it has attempts in flight; the sample
// cadence records a CPU gauge point for every client.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "net/cadence.hpp"
#include "net/node.hpp"
#include "net/simulator.hpp"
#include "puzzle/engine.hpp"
#include "sim/cpu.hpp"
#include "sim/metrics.hpp"
#include "tcp/connector.hpp"
#include "util/rng.hpp"
#include "workload/spec.hpp"

namespace tcpz::sim {

struct ClientAgentConfig {
  std::uint32_t server_addr = 0;
  std::uint16_t server_port = 80;
  bool solve_puzzles = true;  ///< patched kernel?
  /// Shared puzzle engine (the oracle in simulations); required when the
  /// client is patched and the server may challenge it. Oracle solutions
  /// derive from the challenge bytes alone, so one engine instance solves
  /// challenges from any server secret epoch (see DESIGN.md, Substitutions).
  std::shared_ptr<const puzzle::PuzzleEngine> engine;
  /// The Fig. 3a desktop client; hash_rate is the resolved solve rate.
  CpuSpec cpu;
  /// Demand: arrival rate, request sizing and the solver backlog cap.
  workload::ModelSpec model;
  SimTime response_timeout = SimTime::seconds(10);
};

class ClientAgent {
 public:
  /// `ticks` paces connector polling and attempt expiry; `samples` paces
  /// the CPU gauge (its period is the utilization window).
  ClientAgent(net::Simulator& sim, net::Host& host, ClientAgentConfig cfg,
              std::uint64_t seed, net::Cadence& ticks, net::Cadence& samples);

  /// Schedules the first request and joins both cadences.
  void start(SimTime until);

  [[nodiscard]] HostReport& report() { return report_; }
  [[nodiscard]] const HostReport& report() const { return report_; }
  [[nodiscard]] CpuModel& cpu() { return cpu_; }

 private:
  struct Attempt {
    tcp::Connector connector;
    SimTime started;
    SimTime deadline;
    bool request_sent = false;
    std::uint64_t rx_payload = 0;
    /// Guards stale solve completions. Unlike the attacker's solve timers,
    /// the client's completion events are NOT descheduled when an attempt
    /// dies: the in-kernel search keeps a solver lane busy until it finishes
    /// even when connect() has given up, and pending_solves_ (which gates
    /// max_pending_solves backpressure) must stay elevated until then. The
    /// completion event carries that accounting, so it is not a tombstone.
    std::uint64_t solve_token = 0;
  };

  void on_segment(SimTime now, const tcp::Segment& seg);
  void request_loop();
  void tick(SimTime now);
  void sample(SimTime now);
  void start_attempt(SimTime now);
  void apply(SimTime now, std::uint16_t sport, Attempt& attempt,
             tcp::ConnectorOutput out);
  void finish_attempt(SimTime now, std::uint16_t sport, bool success);
  void send_all(const std::vector<tcp::Segment>& segs);

  net::Simulator& sim_;
  net::Host& host_;
  net::Cadence& ticks_;
  net::Cadence& samples_;
  std::size_t tick_id_ = 0;
  ClientAgentConfig cfg_;
  CpuModel cpu_;
  Rng rng_;
  HostReport report_;
  SimTime until_;

  /// Non-empty exactly while this client is active on the tick cadence.
  std::unordered_map<std::uint16_t, Attempt> attempts_;
  std::uint16_t next_sport_ = 1024;
  int pending_solves_ = 0;
  std::uint64_t next_solve_token_ = 1;
};

}  // namespace tcpz::sim
