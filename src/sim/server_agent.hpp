// The victim server: a Listener wired to a Host, plus the application model.
//
// Application model (apache2-style, per the §6 workload): a bounded worker
// pool accepts connections; a worker serves its connection's request at
// exponential rate µ in aggregate (the M/M/1 abstraction of §4.1, measured
// as ~1100 req/s in Fig. 3b) and is then freed. A connection that never
// sends a request — a connection-flood bot — pins its worker until the idle
// timeout. Under a flood the effective accept-queue drain is therefore
// workers/idle_timeout, which is what actually collapses an unprotected
// server even though its nominal µ is high.
// Request service is the agent's own Exp(µ) timer; its ticks (listener,
// reaper, accept) and gauge samples run on the engine's shared cadences.
#pragma once

#include <deque>
#include <functional>
#include <memory>

#include "net/cadence.hpp"
#include "net/node.hpp"
#include "net/simulator.hpp"
#include "sim/cpu.hpp"
#include "sim/metrics.hpp"
#include "tcp/listener.hpp"
#include "util/flat_table.hpp"
#include "util/rng.hpp"
#include "workload/profiles.hpp"

namespace tcpz::sim {

struct ServerAgentConfig {
  tcp::ListenerConfig listener;
  /// µ: request completions/s (Fig. 3b).
  double service_rate = workload::profiles::kServiceRateMu;
  int n_workers = 1024;  ///< apache worker/thread pool size
  std::uint32_t response_bytes = workload::profiles::kResponseBytes;
  SimTime app_idle_timeout = SimTime::seconds(5);
  CpuSpec cpu = server_cpu();  ///< §7: 10.8 Mhash/s
  /// Classifier for the established-by-source-class metric.
  std::function<bool(std::uint32_t addr)> is_attacker;
};

class ServerAgent {
 public:
  ServerAgent(net::Simulator& sim, net::Host& host, ServerAgentConfig cfg,
              crypto::SecretKey secret, std::uint64_t seed,
              std::shared_ptr<const puzzle::PuzzleEngine> engine);

  /// Installs the host handler, starts the service loop (bounded by
  /// `until`) and joins `ticks` and `samples` (whose period is the CPU
  /// utilization window).
  void start(SimTime until, net::Cadence& ticks, net::Cadence& samples);

  [[nodiscard]] ServerReport& report() { return report_; }
  [[nodiscard]] const ServerReport& report() const { return report_; }
  [[nodiscard]] tcp::Listener& listener() { return listener_; }
  [[nodiscard]] CpuModel& cpu() { return cpu_; }
  [[nodiscard]] int busy_workers() const {
    return static_cast<int>(workers_.size());
  }

 private:
  struct WorkerState {
    SimTime accepted_at;
    bool has_request = false;
  };

  /// A worker that was accepted without a request, in accept order.
  struct IdleWorker {
    tcp::FlowKey flow;
    SimTime accepted_at;
  };

  void on_segment(SimTime now, const tcp::Segment& seg);
  void on_request(SimTime now, const tcp::FlowKey& flow, const tcp::Segment& seg);
  void service_loop();
  void tick(SimTime now);
  void sample(SimTime now, SimTime window);
  void drain_accept_queue(SimTime now);
  void send_all(const std::vector<tcp::Segment>& segs);
  void respond_and_close(SimTime now, const tcp::FlowKey& flow);

  net::Simulator& sim_;
  net::Host& host_;
  ServerAgentConfig cfg_;
  tcp::Listener listener_;
  CpuModel cpu_;
  Rng rng_;
  ServerReport report_;
  SimTime until_;

  /// Connections holding a worker (accepted, not yet responded/reaped).
  FlatMap<tcp::FlowKey, WorkerState, tcp::FlowKeyHash> workers_;
  /// Workers whose request has arrived, FIFO for the service loop.
  std::deque<tcp::FlowKey> ready_;
  /// Workers accepted without a request, oldest first: the reaper's only
  /// candidates. A record whose worker has since been served (or whose flow
  /// was re-accepted later) is skipped when it comes due.
  std::deque<IdleWorker> idle_;
  /// Requests that arrived before accept() got to the connection.
  FlatMap<tcp::FlowKey, std::uint32_t, tcp::FlowKeyHash> early_requests_;
};

}  // namespace tcpz::sim
