#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "net/cadence.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/simulator.hpp"
#include "puzzle/engine.hpp"
#include "sim/attacker_agent.hpp"
#include "sim/client_agent.hpp"
#include "sim/cpu.hpp"
#include "sim/devices.hpp"
#include "sim/server_agent.hpp"
#include "defense/spec.hpp"
#include "offense/spec.hpp"
#include "scenario/spec.hpp"
#include "util/timeseries.hpp"
#include "workload/profiles.hpp"
#include "workload/spec.hpp"

namespace tcpz::sim {
namespace {

// ---------------------------------------------------------------------------
// CpuModel
// ---------------------------------------------------------------------------

TEST(CpuModel, SolveDurationIsOpsOverRate) {
  CpuModel cpu({100'000.0, 4, 1});
  EXPECT_NEAR(cpu.solve_duration(50'000).to_seconds(), 0.5, 1e-9);
}

TEST(CpuModel, SerialLaneQueuesJobs) {
  CpuModel cpu({100'000.0, 4, 1});
  const SimTime t0 = SimTime::seconds(1);
  const SimTime e1 = cpu.submit_solve(t0, 100'000);  // 1 s
  const SimTime e2 = cpu.submit_solve(t0, 100'000);  // queued behind
  EXPECT_EQ(e1, SimTime::seconds(2));
  EXPECT_EQ(e2, SimTime::seconds(3));
  EXPECT_EQ(cpu.busy_lanes(SimTime::seconds(1)), 1);
  EXPECT_EQ(cpu.pending_jobs(SimTime::milliseconds(1500)), 2);
  EXPECT_EQ(cpu.pending_jobs(SimTime::milliseconds(2500)), 1);
}

TEST(CpuModel, ParallelLanesRunConcurrently) {
  CpuModel cpu({100'000.0, 4, 2});
  const SimTime t0 = SimTime::zero();
  const SimTime e1 = cpu.submit_solve(t0, 100'000);
  const SimTime e2 = cpu.submit_solve(t0, 100'000);
  EXPECT_EQ(e1, SimTime::seconds(1));
  EXPECT_EQ(e2, SimTime::seconds(1));
}

TEST(CpuModel, LanesClampToCores) {
  CpuModel cpu({1000.0, 2, 8});
  EXPECT_EQ(cpu.spec().solver_lanes, 2);
}

TEST(CpuModel, UtilizationReflectsSolving) {
  // One lane fully busy on a 4-core host = 25%.
  CpuModel cpu({100'000.0, 4, 1});
  (void)cpu.submit_solve(SimTime::zero(), 400'000);  // busy 0..4 s
  const double util =
      cpu.sample_utilization(SimTime::seconds(1), SimTime::seconds(1));
  EXPECT_NEAR(util, 0.25, 1e-9);
}

TEST(CpuModel, UtilizationIncludesChargedWork) {
  CpuModel cpu({1'000'000.0, 2, 1});
  cpu.charge_hash_ops(500'000);  // 0.5 core-seconds
  const double util =
      cpu.sample_utilization(SimTime::seconds(1), SimTime::seconds(1));
  EXPECT_NEAR(util, 0.25, 1e-9);  // 0.5 / (1 s * 2 cores)
  // Charge accumulator drains.
  EXPECT_NEAR(cpu.sample_utilization(SimTime::seconds(2), SimTime::seconds(1)),
              0.0, 1e-9);
}

TEST(CpuModel, UtilizationClampedToOne) {
  CpuModel cpu({1000.0, 1, 1});
  cpu.charge_seconds(50.0);
  EXPECT_DOUBLE_EQ(cpu.sample_utilization(SimTime::seconds(1), SimTime::seconds(1)),
                   1.0);
}

TEST(CpuModel, RejectsBadSpec) {
  EXPECT_THROW(CpuModel({0.0, 4, 1}), std::invalid_argument);
  EXPECT_THROW(CpuModel({100.0, 0, 1}), std::invalid_argument);
}

TEST(Devices, FleetAverageMatchesPaperWav) {
  double sum = 0;
  for (const auto& d : kClientCpus) sum += d.hash_rate;
  EXPECT_NEAR(sum / 3.0 * 0.4, 140'630.0, 1.0);
}

TEST(Devices, IotDevicesAreWeaker) {
  for (const auto& iot : kIotDevices) {
    EXPECT_LT(iot.hash_rate, workload::profiles::kClientHashRate / 4);
  }
}

// ---------------------------------------------------------------------------
// End-to-end scenarios (small timelines; assert dynamics, not absolutes)
// ---------------------------------------------------------------------------

using defense::PolicySpec;
using offense::StrategySpec;
using scenario::Result;
using scenario::Spec;

Spec tiny_scenario() {
  Spec s;
  s.seed = 7;
  s.duration = SimTime::seconds(30);
  s.attack_start = SimTime::seconds(10);
  s.attack_end = SimTime::seconds(20);
  s.workload.n_clients = 4;
  s.workload.request_rate = 10.0;
  s.workload.response_bytes = 20'000;
  s.servers.listen_backlog = 256;
  s.servers.accept_backlog = 256;
  s.servers.service_rate = 300.0;
  scenario::AttackSpec a;
  a.count = 4;
  a.rate = 800.0;  // ~10x the accept drain, like the paper's 5000 vs 1100
  s.attacks = {a};
  return s;
}

/// tiny_scenario() under one defense and one attack strategy.
Spec tiny_scenario(const PolicySpec& policy, const StrategySpec& attack) {
  Spec s = tiny_scenario();
  s.servers.policies = {policy};
  s.attacks[0].strategy = attack;
  return s;
}

TEST(Scenario, NoAttackBaselineServesEveryone) {
  Spec s = tiny_scenario();
  s.attacks.clear();
  s.servers.policies = {PolicySpec::none()};
  const Result res = scenario::run(s);

  EXPECT_GT(res.client_success_ratio(), 0.98);
  EXPECT_EQ(res.server().counters.challenges_sent, 0u);
  // ~4 clients * 10 req/s * 20 KB * 8 = ~6.4 Mbps aggregate.
  const double mbps = res.client_rx_mbps(5, 10);
  EXPECT_GT(mbps, 4.0);
  EXPECT_LT(mbps, 9.0);
  // Connection times are sub-5ms without puzzles on this topology.
  EXPECT_LT(res.clients[0].conn_time_ms.quantile(0.9), 5.0);
}

TEST(Scenario, SynFloodKillsUndefendedServer) {
  const Spec s = tiny_scenario(PolicySpec::none(), StrategySpec::syn_flood());
  const Result res = scenario::run(s);

  const double before = res.client_rx_mbps(5, 10);
  const double during = res.client_rx_mbps(13, 20);
  EXPECT_LT(during, before * 0.2) << "SYN flood should deny service";
  EXPECT_GT(res.server().counters.drops_listen_full(), 100u);
  // No defense installed, so every drop is a queue overflow.
  EXPECT_EQ(res.server().counters.drops_policy, 0u);
  // Listen queue saturated during the attack window.
  EXPECT_GE(res.server().listen_queue.max_in(SimTime::seconds(12),
                                             SimTime::seconds(20)),
            static_cast<double>(s.servers.listen_backlog));
}

TEST(Scenario, SynCookiesSurviveSynFlood) {
  const Result res = scenario::run(
      tiny_scenario(PolicySpec::syn_cookies(), StrategySpec::syn_flood()));

  const double before = res.client_rx_mbps(5, 10);
  const double during = res.client_rx_mbps(13, 20);
  EXPECT_GT(during, before * 0.7) << "cookies should absorb a SYN flood";
  EXPECT_GT(res.server().counters.established_cookie, 0u);
}

TEST(Scenario, PuzzlesSurviveSynFlood) {
  Spec s = tiny_scenario(PolicySpec::puzzles(), StrategySpec::syn_flood());
  s.servers.difficulty = {1, 8};  // easy puzzles suffice for SYN floods (§6.2)
  const Result res = scenario::run(s);

  const double before = res.client_rx_mbps(5, 10);
  const double during = res.client_rx_mbps(13, 20);
  EXPECT_GT(during, before * 0.6);
  EXPECT_GT(res.server().counters.challenges_sent, 0u);
  EXPECT_GT(res.server().counters.established_puzzle, 0u);
  // Spoofed sources never answer challenges: no bogus solutions verified.
  EXPECT_EQ(res.server().counters.solutions_invalid, 0u);
}

TEST(Scenario, ConnFloodDefeatsCookiesButNotPuzzles) {
  const Spec cookies =
      tiny_scenario(PolicySpec::syn_cookies(), StrategySpec::conn_flood());
  const Result with_cookies = scenario::run(cookies);

  Spec puzzles = tiny_scenario(PolicySpec::puzzles(), StrategySpec::conn_flood());
  puzzles.servers.difficulty = {2, 17};
  const Result with_puzzles = scenario::run(puzzles);

  const double cookie_during = with_cookies.client_rx_mbps(13, 20);
  const double puzzle_during = with_puzzles.client_rx_mbps(13, 20);
  const double puzzle_before = with_puzzles.client_rx_mbps(5, 10);

  // Cookies collapse; puzzles retain a sizeable fraction of nominal (the
  // clients are solve-limited to ~28% of demand at the Nash difficulty).
  EXPECT_LT(cookie_during, puzzle_during);
  EXPECT_GT(puzzle_during, puzzle_before * 0.15);

  // Accept queue: saturated under cookies, mostly drained under puzzles
  // (Fig. 10).
  const SimTime w0 = SimTime::seconds(14), w1 = SimTime::seconds(20);
  const auto accept_backlog = static_cast<double>(cookies.servers.accept_backlog);
  EXPECT_GE(with_cookies.server().accept_queue.max_in(w0, w1), accept_backlog);
  EXPECT_LT(with_puzzles.server().accept_queue.mean_in(w0, w1),
            accept_backlog * 0.5);

  // Attackers' established-connection rate is rate-limited by solving
  // (Fig. 11).
  const double cookie_cps = with_cookies.server().attacker_cps(13, 20);
  const double puzzle_cps = with_puzzles.server().attacker_cps(13, 20);
  EXPECT_GT(cookie_cps, puzzle_cps * 5.0);
}

TEST(Scenario, PuzzleCpuCostLandsOnAttackers) {
  Spec s = tiny_scenario(PolicySpec::puzzles(), StrategySpec::conn_flood());
  s.servers.difficulty = {2, 17};
  const Result res = scenario::run(s);

  const SimTime w0 = SimTime::seconds(12), w1 = SimTime::seconds(20);
  const double server_cpu = res.server().cpu.mean_in(w0, w1);
  const double client_cpu = res.mean_client_cpu(w0, w1);
  const double bot_cpu = res.mean_bot_cpu(w0, w1);
  // Fig. 9 ordering: server negligible < clients moderate < attackers high.
  EXPECT_LT(server_cpu, 0.05);
  EXPECT_GT(bot_cpu, client_cpu);
  EXPECT_GT(bot_cpu, 0.2);
}

TEST(Scenario, SolvingClientsKeepServiceUnderNonSolvingAttack) {
  // Fig. 15 (*A, SC): solving clients vs a non-solving flood.
  Spec s = tiny_scenario(PolicySpec::puzzles(),
                         StrategySpec::conn_flood(/*patched=*/false));
  s.servers.difficulty = {2, 17};
  const Result res = scenario::run(s);

  // Clients are limited by their serial solver (~2.7 conn/s each of a
  // 10 req/s demand), so "keeping service" means a solid non-zero fraction.
  const double during = res.client_rx_mbps(13, 20);
  const double before = res.client_rx_mbps(5, 10);
  EXPECT_GT(during, before * 0.15);
  // Non-solving bots establish almost nothing once protection engages.
  EXPECT_LT(res.server().attacker_cps(14, 20), 30.0);
}

TEST(Scenario, BogusSolutionFloodIsRejectedCheaply) {
  Spec s = tiny_scenario(PolicySpec::puzzles(),
                         StrategySpec::bogus_solution_flood());
  s.servers.difficulty = {2, 17};
  const Result res = scenario::run(s);
  const auto& c = res.server().counters;

  EXPECT_GT(c.solutions_invalid + c.solutions_bad_ackno +
                c.acks_ignored_accept_full,
            100u);
  EXPECT_EQ(c.established_puzzle + c.established_cookie, c.solutions_valid);
  // §7: verification overhead stays negligible on the server.
  EXPECT_LT(
      res.server().cpu.mean_in(SimTime::seconds(12), SimTime::seconds(20)),
      0.05);
}

TEST(Scenario, DeterministicForSeed) {
  Spec s = tiny_scenario();
  s.duration = SimTime::seconds(15);
  s.attack_start = SimTime::seconds(5);
  s.attack_end = SimTime::seconds(12);
  const Result a = scenario::run(s);
  const Result b = scenario::run(s);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.server().counters.established_total,
            b.server().counters.established_total);
  EXPECT_EQ(a.clients[0].total_completions, b.clients[0].total_completions);
}

TEST(Scenario, SeedChangesTrace) {
  Spec s = tiny_scenario();
  s.duration = SimTime::seconds(15);
  s.attack_start = SimTime::seconds(5);
  s.attack_end = SimTime::seconds(12);
  const Result a = scenario::run(s);
  s.seed = 8;
  const Result b = scenario::run(s);
  EXPECT_NE(a.events_processed, b.events_processed);
}

TEST(Scenario, IdleClientsCostNoEvents) {
  // Two runs that differ only in the number of clients, none of which has
  // a request due before the end: the client tick and sample timers are
  // shared cadences, so an idle client adds at most its first request-loop
  // event instead of one event per tick and per sample.
  Spec s;
  s.duration = SimTime::seconds(20);
  s.workload.request_rate = 1e-9;  // mean gap ~32 years
  s.workload.n_clients = 50;
  const Result few = scenario::run(s);
  s.workload.n_clients = 2000;
  const Result many = scenario::run(s);
  for (const Result* r : {&few, &many}) {
    for (const auto& c : r->clients) ASSERT_EQ(c.total_attempts, 0u);
  }
  ASSERT_GT(many.events_processed, few.events_processed);
  EXPECT_LE(many.events_processed - few.events_processed, 2u * (2000 - 50));
  // Every client still records one CPU gauge point per sample instant.
  EXPECT_EQ(many.clients.back().cpu.size(), few.clients.front().cpu.size());
  EXPECT_EQ(few.clients.front().cpu.size(), 80u);
}

TEST(Scenario, SilentBotsCostOneStartEventEach) {
  // Two runs that differ only in the size of a connection flood whose bots
  // may hold no attempt in flight, so no slot ever sends. A group's slot
  // and tick timers and every bot's sample timer are shared cadences, so
  // each extra bot adds only its start event, which joins its group's
  // cadences, instead of one event per slot, tick and sample.
  Spec s;
  s.duration = SimTime::seconds(20);
  s.attack_start = SimTime::seconds(5);
  s.attack_end = SimTime::seconds(15);
  s.workload.request_rate = 1e-9;  // mean gap ~32 years
  s.workload.n_clients = 4;
  scenario::AttackSpec a;
  a.count = 1;
  a.rate = 500.0;
  a.strategy = StrategySpec::conn_flood();
  a.max_inflight = 0;
  s.attacks = {a};
  const Result one = scenario::run(s);
  s.attacks[0].count = 40;
  const Result many = scenario::run(s);
  for (const Result* r : {&one, &many}) {
    ASSERT_EQ(r->groups[0].total_attempts(), 0u);
  }
  ASSERT_GE(many.events_processed, one.events_processed);
  EXPECT_LE(many.events_processed - one.events_processed, 40u - 1u);
  // Every bot still records one CPU gauge point per sample instant.
  EXPECT_EQ(many.groups[0].bots.back().cpu.size(), 80u);
}

// ---------------------------------------------------------------------------
// Agent timers: bot attempt timeouts and the idle-worker reaper. Both ticks
// run every 100 ms from t = 0; the events under test sit off that grid.
// ---------------------------------------------------------------------------

SimTime at_s(double s) { return SimTime::from_seconds(s); }

/// Every solve costs the same number of hash ops, so a solve takes exactly
/// cost / hash_rate seconds.
class FixedCostEngine final : public puzzle::PuzzleEngine {
 public:
  explicit FixedCostEngine(std::uint64_t cost)
      : PuzzleEngine(crypto::SecretKey::from_seed(1), {}), cost_(cost) {}

  /// Called on every solve, right before the solver's submit_solve.
  std::function<void()> on_solve;

  [[nodiscard]] puzzle::Solution solve(const puzzle::Challenge& ch,
                                       const puzzle::FlowBinding& /*flow*/,
                                       Rng& /*rng*/,
                                       std::uint64_t& hash_ops) const override {
    hash_ops = cost_;
    if (on_solve) on_solve();
    puzzle::Solution sol;
    sol.timestamp = ch.timestamp;
    return sol;
  }

 private:
  [[nodiscard]] std::size_t first_bad_value(
      const puzzle::Preimage& /*preimage*/, const puzzle::Solution& sol,
      unsigned /*m_bits*/) const override {
    return sol.values.size();
  }
  std::uint64_t cost_;
};

/// A challenge SYN-ACK answering `syn`.
tcp::Segment challenge_for(const tcp::Segment& syn) {
  tcp::Segment out;
  out.saddr = syn.daddr;
  out.daddr = syn.saddr;
  out.sport = syn.dport;
  out.dport = syn.sport;
  out.seq = 1;
  out.ack = syn.seq + 1;
  out.flags = tcp::kSyn | tcp::kAck;
  tcp::ChallengeOption ch;
  ch.k = 1;
  ch.m = 4;
  ch.sol_len = 8;
  ch.embedded_ts = 0;
  ch.preimage = std::vector<std::uint8_t>(8, 0);
  out.options.challenge = ch;
  return out;
}

/// One patched conn-flood bot against a scripted server that challenges
/// every SYN and counts the solution ACKs. A slot every 350 ms launches the
/// first attempt at 0.35 s; each solve takes `solve_s` on one lane.
struct BotRig {
  static constexpr SimTime kEnd = SimTime::seconds(60);

  net::Simulator sim;
  net::Host bot{sim, tcp::ipv4(10, 9, 0, 1)};
  net::Host server{sim, tcp::ipv4(10, 1, 0, 1)};
  net::Link up{sim, server, 1e9, SimTime::zero(), 1 << 20};
  net::Link down{sim, bot, 1e9, SimTime::zero(), 1 << 20};
  net::Cadence slots{sim, SimTime::milliseconds(350), kEnd};
  net::Cadence ticks{sim, SimTime::milliseconds(100), kEnd};
  net::Cadence samples{sim, SimTime::milliseconds(250), kEnd};
  RoleSeries series;
  std::unique_ptr<AttackerAgent> agent;
  int solution_acks = 0;

  BotRig(double solve_s, int max_inflight) {
    bot.set_default_route(&up);
    server.set_default_route(&down);
    server.set_handler([this](SimTime, const tcp::Segment& in) {
      if (!in.is_syn()) {
        if (in.options.solution) ++solution_acks;
        return;
      }
      server.send(challenge_for(in));
    });
    AttackerAgentConfig cfg;
    cfg.targets = {{server.addr(), 80}};
    cfg.strategy = offense::StrategySpec::conn_flood(/*patched=*/true);
    cfg.attack_start = SimTime::zero();
    cfg.attack_end = kEnd;
    cfg.engine = std::make_shared<FixedCostEngine>(1000);
    cfg.cpu = CpuSpec{1000.0 / solve_s, 1, 1};
    cfg.max_inflight = max_inflight;
    agent = std::make_unique<AttackerAgent>(sim, bot, cfg, 1, series);
    agent->start(slots, ticks, samples);
  }
  const HostReport& report() const { return agent->report(); }
};

// The 1 s attempt timeout does not apply while an admitted solve runs: the
// attempt launched at 0.35 s is still solving at 1.35 s and is kept until
// the first tick past 3.35 s. Timing it out abandons the solve.
TEST(AgentTimers, SolvingAttemptIsKeptUntilThreeSeconds) {
  BotRig rig(/*solve_s=*/5.0, /*max_inflight=*/1);
  rig.sim.run_until(at_s(3.39));
  EXPECT_EQ(rig.report().total_attempts, 1u);
  EXPECT_EQ(rig.report().total_failures, 0u);
  rig.sim.run_until(at_s(3.41));
  EXPECT_EQ(rig.report().total_failures, 1u);
  rig.sim.run_until(at_s(6.0));
  EXPECT_EQ(rig.solution_acks, 0) << "a timed-out attempt's solve fired";
}

// An attempt whose solve would only end past the tool's 1 s patience is
// refused a lane. Still "solving" but with no solve running, it times out
// at the first tick past its 1 s mark (1.8 s), not at 3 s.
TEST(AgentTimers, RefusedSolveTimesOutAtFirstTickPastOneSecond) {
  BotRig rig(/*solve_s=*/5.0, /*max_inflight=*/2);
  rig.sim.run_until(at_s(1.79));
  EXPECT_EQ(rig.report().total_attempts, 2u);
  EXPECT_EQ(rig.report().solves_refused, 1u);
  EXPECT_EQ(rig.report().total_failures, 0u);
  rig.sim.run_until(at_s(1.81));
  EXPECT_EQ(rig.report().total_failures, 1u);
}

// A solve that ends after the 1 s mark, inside the grace period,
// establishes the attempt; the grace re-check never counts it as failed.
TEST(AgentTimers, SolveEndingInGraceEstablishes) {
  BotRig rig(/*solve_s=*/1.5, /*max_inflight=*/1);
  rig.sim.run_until(at_s(3.5));
  EXPECT_EQ(rig.report().total_established, 1u);
  EXPECT_EQ(rig.solution_acks, 1);
  EXPECT_EQ(rig.report().total_failures, 0u);
}

// Attempts that complete well inside 1 s leave launch records behind; those
// records coming due later never turn into failures.
TEST(AgentTimers, EarlyCompletionIsNeverCountedAsFailure) {
  BotRig rig(/*solve_s=*/0.2, /*max_inflight=*/1);
  rig.sim.run_until(at_s(10.0));
  EXPECT_GE(rig.report().total_attempts, 10u);
  EXPECT_GE(rig.report().total_established + 1, rig.report().total_attempts);
  EXPECT_EQ(rig.report().total_failures, 0u);
}

// ---------------------------------------------------------------------------
// The client CPU gauge: a client is called by the sample cadence only while
// a solve can show in its gauge, and pads the skipped instants with +0.0.
// ---------------------------------------------------------------------------

/// One patched client against a scripted server that challenges every new
/// flow. Segments cross each link in exactly its delay (serialization rounds
/// to 0 ns at this bandwidth): the SYN arrives when it is sent, the
/// challenge one period after the server sends it. The server sends the
/// challenge to its n-th flow
///   n % 3 == 0: at once, so it arrives between sample instants;
///   n % 3 == 1: at the next sample instant t, after that instant's sweep
///               (the cadence event for t was scheduled first), so it
///               arrives at t + period after that instant's sweep;
///   n % 3 == 2: at the second sample instant t' from now, before that
///               instant's sweep, so the delivery is scheduled before the
///               cadence re-arms and arrives at t' + period before its sweep.
struct GaugeRig {
  static constexpr SimTime kPeriod = SimTime::milliseconds(250);
  static constexpr SimTime kUntil = SimTime::seconds(20);
  static constexpr std::uint64_t kCost = 1000;

  net::Simulator sim;
  net::Host client{sim, tcp::ipv4(10, 2, 0, 1)};
  net::Host server{sim, tcp::ipv4(10, 1, 0, 1)};
  net::Link up{sim, server, 1e15, SimTime::zero(), 1 << 20};
  net::Link down{sim, client, 1e15, kPeriod, 1 << 20};
  net::Cadence ticks{sim, SimTime::milliseconds(100), kUntil};
  net::Cadence samples{sim, kPeriod, kUntil};
  CpuSpec cpu;
  HostReport report;
  RoleSeries series;
  std::unique_ptr<ClientAgent> agent;

  /// One solve: when it was submitted, and how many sample sweeps had
  /// started by then.
  struct Submit {
    SimTime at;
    std::size_t fired;
  };
  std::vector<Submit> submits;
  std::unordered_set<std::uint16_t> flows;

  GaugeRig(double solve_s, double request_rate, int lanes) {
    client.set_default_route(&up);
    server.set_default_route(&down);
    server.set_handler([this](SimTime now, const tcp::Segment& in) {
      if (!in.is_syn() || !flows.insert(in.sport).second) return;
      const std::size_t mode = (flows.size() - 1) % 3;
      const tcp::Segment out = challenge_for(in);
      if (mode == 0) {
        server.send(out);
        return;
      }
      const std::int64_t k = now.nanos() / kPeriod.nanos();
      sim.schedule_at(kPeriod * (k + static_cast<std::int64_t>(mode)),
                      [this, out] { server.send(out); });
    });
    auto engine = std::make_shared<FixedCostEngine>(kCost);
    engine->on_solve = [this] {
      submits.push_back({sim.now(), samples.fired()});
    };
    ClientAgentConfig cfg;
    cfg.server_addr = server.addr();
    cfg.engine = engine;
    cpu = CpuSpec{static_cast<double>(kCost) / solve_s, 4, lanes};
    cfg.cpu = cpu;
    cfg.model.request_rate = request_rate;
    cfg.model.max_pending_solves = 8;
    cfg.response_timeout = SimTime::seconds(2);
    agent = std::make_unique<ClientAgent>(sim, client, cfg, 7, ticks, samples,
                                          report, series);
    agent->start(kUntil);
    sim.run();
  }

  /// The gauge of a CpuModel that gets the same solves and is sampled at
  /// every firing of the cadence; `ends` receives each job's end.
  GaugeSeries reference(std::vector<SimTime>& ends) const {
    CpuModel ref(cpu);
    GaugeSeries want;
    std::size_t next = 0;
    for (std::size_t k = 1; k <= samples.fired(); ++k) {
      while (next < submits.size() && submits[next].fired < k) {
        ends.push_back(ref.submit_solve(submits[next].at, kCost));
        ++next;
      }
      const SimTime t = kPeriod * static_cast<std::int64_t>(k);
      want.record(t, ref.sample_utilization(t, kPeriod));
    }
    for (; next < submits.size(); ++next) {
      ends.push_back(ref.submit_solve(submits[next].at, kCost));
    }
    return want;
  }
};

void expect_same_gauge(const GaugeSeries& got, const GaugeSeries& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.time_at(i), want.time_at(i)) << "sample " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.value_at(i)),
              std::bit_cast<std::uint64_t>(want.value_at(i)))
        << "sample " << i << " at " << want.time_at(i).to_string();
  }
}

// Sparse solves on one lane: the client goes idle for several periods
// between solves and rejoins, and solves land between, exactly on, and
// (grid instant, sweep) both ways around the sample instants.
TEST(ClientCpuGauge, LeavesAndRejoinsBitExact) {
  GaugeRig rig(/*solve_s=*/0.3, /*request_rate=*/0.8, /*lanes=*/1);
  std::vector<SimTime> ends;
  const GaugeSeries want = rig.reference(ends);
  EXPECT_EQ(rig.samples.fired(), 80u);
  expect_same_gauge(rig.agent->report().cpu, want);

  bool before_sweep = false, after_sweep = false, rejoin_after_gap = false;
  SimTime busy_until = SimTime::zero();
  for (std::size_t i = 0; i < rig.submits.size(); ++i) {
    const auto& [at, fired] = rig.submits[i];
    if (at.nanos() % GaugeRig::kPeriod.nanos() == 0) {
      const auto k = static_cast<std::size_t>(at.nanos() /
                                              GaugeRig::kPeriod.nanos());
      before_sweep |= fired + 1 == k;
      after_sweep |= fired == k;
    }
    rejoin_after_gap |= i > 0 && at > busy_until + GaugeRig::kPeriod * 4;
    busy_until = std::max(busy_until, ends[i]);
  }
  EXPECT_TRUE(before_sweep);
  EXPECT_TRUE(after_sweep);
  EXPECT_TRUE(rejoin_after_gap);
  double peak = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    peak = std::max(peak, want.value_at(i));
  }
  EXPECT_GT(peak, 0.0);
}

// Long solves at a high rate queue behind the busy lane: a job submitted in
// one sampling window starts after the next sample instant, and the client
// must stay sampled while it waits.
TEST(ClientCpuGauge, QueuedJobKeepsTheClientSampled) {
  GaugeRig rig(/*solve_s=*/0.7, /*request_rate=*/3.0, /*lanes=*/1);
  std::vector<SimTime> ends;
  const GaugeSeries want = rig.reference(ends);
  expect_same_gauge(rig.agent->report().cpu, want);

  bool queued_past_next_instant = false;
  const SimTime solve = SimTime::from_seconds(0.7);
  for (std::size_t i = 0; i < rig.submits.size(); ++i) {
    const SimTime at = rig.submits[i].at;
    const std::int64_t k = at.nanos() / GaugeRig::kPeriod.nanos();
    queued_past_next_instant |= ends[i] - solve > GaugeRig::kPeriod * (k + 1);
  }
  EXPECT_TRUE(queued_past_next_instant);
}

/// A stock server agent (5 s idle timeout) and a client host whose
/// connections the test opens, feeds requests into and watches.
struct ServerRig {
  net::Simulator sim;
  net::Host server{sim, tcp::ipv4(10, 1, 0, 1)};
  net::Host client{sim, tcp::ipv4(10, 2, 0, 1)};
  net::Link up{sim, server, 1e9, SimTime::zero(), 1 << 20};
  net::Link down{sim, client, 1e9, SimTime::zero(), 1 << 20};
  net::Cadence ticks{sim, SimTime::milliseconds(100), SimTime::seconds(60)};
  net::Cadence samples{sim, SimTime::milliseconds(250), SimTime::seconds(60)};
  std::unique_ptr<ServerAgent> agent;

  explicit ServerRig(double service_rate) {
    client.set_default_route(&up);
    server.set_default_route(&down);
    client.set_handler([this](SimTime, const tcp::Segment& in) {
      if (!in.is_syn_ack()) return;
      send(in.dport, tcp::kAck, in.ack, in.seq + 1, 0);
    });
    ServerAgentConfig cfg;
    cfg.listener.local_addr = server.addr();
    cfg.listener.local_port = 80;
    cfg.service_rate = service_rate;
    agent = std::make_unique<ServerAgent>(sim, server, cfg,
                                          crypto::SecretKey::from_seed(3), 3,
                                          nullptr);
    agent->start(SimTime::seconds(60), ticks, samples);
  }

  void send(std::uint16_t port, std::uint8_t flags, std::uint32_t seq,
            std::uint32_t ack, std::uint32_t payload) {
    tcp::Segment s;
    s.saddr = client.addr();
    s.sport = port;
    s.daddr = server.addr();
    s.dport = 80;
    s.flags = flags;
    s.seq = seq;
    s.ack = ack;
    s.payload_bytes = payload;
    client.send(s);
  }
  /// Handshake on `port` at `t` (the client's ISN is `port`).
  void connect_at(double t, std::uint16_t port) {
    sim.schedule_at(at_s(t),
                    [this, port] { send(port, tcp::kSyn, port, 0, 0); });
  }
  /// A request on an established `port`, at `t`.
  void request_at(double t, std::uint16_t port) {
    sim.schedule_at(at_s(t), [this, port] {
      send(port, tcp::kAck | tcp::kPsh, port + 1u, 0, 100);
    });
  }
  int busy_at(double t) {
    sim.run_until(at_s(t));
    return agent->busy_workers();
  }
};

// Both connections are accepted by the 1.1 s tick. The one whose request
// arrives at 6.0 s (4.9 s after accept) is never reaped; the request-less
// one is, at the first tick past 6.1 s.
TEST(AgentTimers, LateRequestWorkerIsNeverReaped) {
  ServerRig rig(/*service_rate=*/1e-9);  // requests are never served
  rig.connect_at(1.03, 4000);
  rig.connect_at(1.03, 4001);
  EXPECT_EQ(rig.busy_at(1.15), 2);
  rig.request_at(6.0, 4000);
  EXPECT_EQ(rig.busy_at(6.15), 2);
  EXPECT_EQ(rig.busy_at(6.25), 1);
  EXPECT_EQ(rig.busy_at(30.0), 1);
}

// A flow served and then accepted again is reaped 5 s after its second
// accept, not when its first accept comes due.
TEST(AgentTimers, ReacceptedFlowIsReapedOnItsOwnClock) {
  ServerRig rig(/*service_rate=*/200.0);
  rig.connect_at(1.03, 4000);
  rig.request_at(1.5, 4000);
  EXPECT_EQ(rig.busy_at(1.45), 1);
  EXPECT_EQ(rig.busy_at(2.5), 0);  // served and closed
  rig.connect_at(3.03, 4000);
  EXPECT_EQ(rig.busy_at(3.2), 1);
  EXPECT_EQ(rig.busy_at(7.9), 1);  // the first accept's record came due
  EXPECT_EQ(rig.busy_at(8.4), 0);
}

}  // namespace
}  // namespace tcpz::sim
