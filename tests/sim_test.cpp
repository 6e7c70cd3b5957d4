#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/cpu.hpp"
#include "sim/devices.hpp"
#include "defense/spec.hpp"
#include "offense/spec.hpp"
#include "scenario/spec.hpp"
#include "workload/profiles.hpp"

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
  EXPECT_EQ(many.clients.back().cpu.points().size(),
            few.clients.front().cpu.points().size());
  EXPECT_EQ(few.clients.front().cpu.points().size(), 80u);
}

}  // namespace
}  // namespace tcpz::sim
