// Botnet members. The agent owns the mechanics every attack shares — the
// constant-rate emission slots, the bounded in-flight attempt table, the
// serial in-kernel solver admission, timeouts, the CPU model and metric
// accounting — and consults a pluggable offense::AttackStrategy at each
// decision point (emission slot, received segment, challenge, verdict).
// The paper's three behaviours (SYN flood, connection flood, bogus-solution
// flood) and the extended attacker models (pulsed, game-adaptive,
// multi-target) all live in src/offense/; the agent itself never branches
// on what kind of attack it is running. Slots, ticks and samples run on
// engine-owned net::Cadences; a group's bots share one slot grid.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "net/cadence.hpp"
#include "net/node.hpp"
#include "net/simulator.hpp"
#include "offense/spec.hpp"
#include "offense/strategy.hpp"
#include "puzzle/engine.hpp"
#include "sim/cpu.hpp"
#include "sim/metrics.hpp"
#include "tcp/connector.hpp"
#include "util/rng.hpp"
#include "workload/profiles.hpp"

namespace tcpz::sim {

/// One server a bot can aim at. Most scenarios have exactly one; the
/// multi-server topology hands every bot the full replica list so
/// fleet-aware strategies can spread their attempts.
struct AttackTarget {
  std::uint32_t addr = 0;
  std::uint16_t port = 80;
};

struct AttackerAgentConfig {
  /// Servers this bot can attack; strategies pick per-slot by index.
  std::vector<AttackTarget> targets;
  /// The behaviour behind the flood; every bot builds its own instance.
  offense::StrategySpec strategy;
  SimTime attack_start = SimTime::seconds(120);
  SimTime attack_end = SimTime::seconds(480);  ///< no slot emits from here on
  std::shared_ptr<const puzzle::PuzzleEngine> engine;
  /// Commodity zombie: equal-or-better hash rate than clients (§6), fewer
  /// spare cores. hash_rate is the resolved solve rate.
  CpuSpec cpu{workload::profiles::kClientHashRate, 2, 1};
  /// Finite tool concurrency: new attempts are skipped while this many are
  /// in flight (this is what caps the "measured attack rate" of Figs 13–14).
  int max_inflight = 250;
  /// Flight-recorder track this bot's offense events report under (one
  /// track per agent in the Chrome-trace export; see src/obs/).
  std::uint16_t trace_track = 0;
};

class AttackerAgent {
 public:
  /// `series` is the attack group's ledger, owned by the caller.
  AttackerAgent(net::Simulator& sim, net::Host& host, AttackerAgentConfig cfg,
                std::uint64_t seed, RoleSeries& series);

  /// Joins `samples` (its period is the CPU utilization window) now, and
  /// `slots` and `ticks` (both ending at attack_end) at attack_start.
  void start(net::Cadence& slots, net::Cadence& ticks, net::Cadence& samples);

  [[nodiscard]] HostReport& report() { return report_; }
  [[nodiscard]] const HostReport& report() const { return report_; }
  [[nodiscard]] CpuModel& cpu() { return cpu_; }
  [[nodiscard]] const offense::AttackStrategy& strategy() const {
    return *strategy_;
  }

 private:
  struct Attempt {
    tcp::Connector connector;
    SimTime started;
    /// Pending (or spent) solve-completion timer. Erasing an attempt cancels
    /// it, so a completion never fires for a dead or recycled source port.
    net::TimerHandle solve_timer;
  };

  using AttemptMap = std::unordered_map<std::uint16_t, Attempt>;

  /// One launch, stamped with its start time in whole milliseconds (the
  /// 32-bit wrapping clock; compared by unsigned difference).
  struct Launch {
    std::uint32_t at_ms;
    std::uint16_t sport;
  };

  [[nodiscard]] offense::BotView view(SimTime now);
  void on_segment(SimTime now, const tcp::Segment& seg);
  void slot(SimTime now);
  void tick(SimTime now);
  void sample(SimTime now, SimTime window);
  void launch_attempt(SimTime now, bool patched, std::size_t target);
  void send_spoofed_syn(SimTime now, std::size_t target);
  void apply(SimTime now, std::uint16_t sport, tcp::ConnectorOutput out);
  void send_all(const std::vector<tcp::Segment>& segs);
  /// Erases an attempt, descheduling any in-flight solve completion.
  void erase_attempt(AttemptMap::iterator it);
  /// Times out the attempt on `sport` if the tool has given up on it. True
  /// when the port needs no more watching: timed out, or no attempt there.
  bool settle(SimTime now, std::uint16_t sport);

  net::Simulator& sim_;
  net::Host& host_;
  AttackerAgentConfig cfg_;
  CpuModel cpu_;
  Rng rng_;
  HostReport report_;
  RoleSeries& series_;
  std::unique_ptr<offense::AttackStrategy> strategy_;

  AttemptMap attempts_;
  /// Launches not yet kAttemptTimeout old, oldest first (attempts are started
  /// in time order). A due record whose port is free by then is dropped.
  std::deque<Launch> launches_;
  /// Ports whose launch came due but whose attempt was not: it was solving,
  /// or the whole-ms stamp rounded down. Re-checked every tick.
  std::vector<std::uint16_t> grace_;
  std::uint16_t next_sport_ = 1024;
};

}  // namespace tcpz::sim
