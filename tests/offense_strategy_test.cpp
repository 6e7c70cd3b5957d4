// Tests for the offense::AttackStrategy layer and the scenario-engine
// features it rides on: pulsed duty cycles against the opportunistic latch
// hysteresis, the game-aware adaptive attacker's best-response planning,
// mixed heterogeneous botnets, and the fleet-aware multi-target spread.
#include <gtest/gtest.h>

#include <algorithm>

#include "game/model.hpp"
#include "offense/spec.hpp"
#include "offense/strategies.hpp"
#include "policy_fixtures.hpp"
#include "scenario/spec.hpp"
#include "sim/devices.hpp"

namespace tcpz {
namespace {

// ---------------------------------------------------------------------------
// Strategy units
// ---------------------------------------------------------------------------

offense::BotView view_at(SimTime now, Rng* rng = nullptr) {
  offense::BotView v;
  v.now = now;
  v.attack_start = SimTime::seconds(10);
  v.rng = rng;
  return v;
}

TEST(PulsedStrategy, DutyCycleGatesSlots) {
  // period 20 s, duty 0.25: on for 5 s from each period boundary (anchored
  // at attack_start).
  offense::PulsedStrategy strat(
      offense::StrategySpec::pulsed(SimTime::seconds(20), 0.25));
  auto action_at = [&](double t) {
    return strat.on_slot(view_at(SimTime::from_seconds(t))).action;
  };
  EXPECT_EQ(action_at(10.0), offense::SlotAction::kConnect);   // phase 0
  EXPECT_EQ(action_at(14.9), offense::SlotAction::kConnect);   // phase 4.9
  EXPECT_EQ(action_at(15.1), offense::SlotAction::kIdle);      // phase 5.1
  EXPECT_EQ(action_at(29.9), offense::SlotAction::kIdle);      // phase 19.9
  EXPECT_EQ(action_at(30.1), offense::SlotAction::kConnect);   // next period
  EXPECT_EQ(action_at(34.0), offense::SlotAction::kConnect);
  EXPECT_EQ(action_at(40.0), offense::SlotAction::kIdle);
}

TEST(PulsedStrategy, DegenerateDutyCycles) {
  offense::PulsedStrategy always(
      offense::StrategySpec::pulsed(SimTime::seconds(20), 1.0));
  EXPECT_EQ(always.on_slot(view_at(SimTime::seconds(42))).action,
            offense::SlotAction::kConnect);
  offense::PulsedStrategy never(
      offense::StrategySpec::pulsed(SimTime::seconds(20), 0.0));
  EXPECT_EQ(never.on_slot(view_at(SimTime::seconds(42))).action,
            offense::SlotAction::kIdle);
  offense::PulsedStrategy spoofed(offense::StrategySpec::pulsed(
      SimTime::seconds(20), 0.25, /*spoofed=*/true));
  EXPECT_EQ(spoofed.on_slot(view_at(SimTime::seconds(10))).action,
            offense::SlotAction::kSpoofedSyn);
}

TEST(GameAdaptiveStrategy, ReplansToBestResponseOnObservedDifficulty) {
  offense::StrategySpec cfg =
      offense::StrategySpec::game_adaptive(/*valuation=*/3e5, /*mu=*/1100.0);
  cfg.assumed = {1, 8};  // cheap assumed price until a challenge arrives
  cfg.slot_rate = 500.0;
  offense::GameAdaptiveStrategy strat(cfg);
  EXPECT_EQ(strat.replans(), 0u);
  EXPECT_GT(strat.planned_solve_rate(), 0.0);

  // Observe the §4.4 Nash difficulty: the plan must drop to the single-user
  // equilibrium rate of the paper's own game at price ℓ = k·2^(m-1).
  puzzle::Challenge nash;
  nash.diff = {2, 17};
  const auto act = strat.on_challenge(view_at(SimTime::seconds(20)), nash);
  EXPECT_EQ(act, offense::ChallengeAction::kSolve);
  EXPECT_EQ(strat.replans(), 1u);
  EXPECT_EQ(strat.observed_price(), nash.diff.expected_solve_hashes());

  game::GameConfig g;
  g.valuations = {cfg.valuation};
  g.mu = cfg.mu;
  const game::Equilibrium eq =
      game::solve_equilibrium(g, nash.diff.expected_solve_hashes());
  ASSERT_TRUE(eq.exists);
  EXPECT_DOUBLE_EQ(strat.planned_solve_rate(), eq.total_rate);
  // Sanity: near the first-order best response x* ≈ w/ℓ − 1 (the congestion
  // term is negligible at µ = 1100).
  const double first_order =
      cfg.valuation / nash.diff.expected_solve_hashes() - 1.0;
  EXPECT_NEAR(strat.planned_solve_rate(), first_order,
              0.2 * first_order + 0.05);

  // Same difficulty again: no re-plan.
  EXPECT_EQ(strat.on_challenge(view_at(SimTime::seconds(21)), nash),
            offense::ChallengeAction::kSolve);
  EXPECT_EQ(strat.replans(), 1u);
}

TEST(GameAdaptiveStrategy, AbandonsWhenPriceExceedsValuationButKeepsProbing) {
  offense::StrategySpec cfg = offense::StrategySpec::game_adaptive(5e4);
  cfg.slot_rate = 500.0;
  offense::GameAdaptiveStrategy strat(cfg);
  puzzle::Challenge hard;
  hard.diff = {2, 20};  // ℓ = 2^20 ≈ 1.05 M hashes > w
  EXPECT_EQ(strat.on_challenge(view_at(SimTime::seconds(20)), hard),
            offense::ChallengeAction::kAbandon);
  EXPECT_EQ(strat.planned_solve_rate(), 0.0);
  // Priced out, almost every slot is a spray — but a trickle of patched
  // probe connects survives, so the state is not absorbing.
  Rng rng(7);
  int probes = 0;
  for (int i = 0; i < 1000; ++i) {
    if (strat.on_slot(view_at(SimTime::seconds(21), &rng)).action ==
        offense::SlotAction::kConnect) {
      ++probes;
    }
  }
  EXPECT_GT(probes, 0);
  EXPECT_LT(probes, 100);  // ~2% of slots
  // A probe observes the defense easing off (e.g. the §7 adaptive loop
  // stepping m back down) and the plan recovers to solving.
  puzzle::Challenge eased;
  eased.diff = {2, 14};  // ℓ = 2^15 hashes < w
  EXPECT_EQ(strat.on_challenge(view_at(SimTime::seconds(30)), eased),
            offense::ChallengeAction::kSolve);
  EXPECT_GT(strat.planned_solve_rate(), 0.0);
}

TEST(GameAdaptiveStrategy, InfersFreeRideFromUnchallengedEstablishments) {
  offense::StrategySpec cfg = offense::StrategySpec::game_adaptive(3e5);
  cfg.slot_rate = 300.0;
  offense::GameAdaptiveStrategy strat(cfg);
  ASSERT_GT(strat.observed_price(), 0.0);

  // Eight unchallenged establishments: the server must be posting no price;
  // the best response becomes "take every slot".
  for (int i = 0; i < 8; ++i) {
    strat.on_outcome(view_at(SimTime::seconds(12)),
                     offense::Outcome::kEstablished);
  }
  EXPECT_EQ(strat.observed_price(), 0.0);
  EXPECT_DOUBLE_EQ(strat.planned_solve_rate(), 300.0);
  Rng rng(3);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(strat.on_slot(view_at(SimTime::seconds(13), &rng)).action,
              offense::SlotAction::kConnect);
  }

  // The first challenge re-posts a price and forces a re-plan.
  puzzle::Challenge nash;
  nash.diff = {2, 17};
  EXPECT_EQ(strat.on_challenge(view_at(SimTime::seconds(14)), nash),
            offense::ChallengeAction::kSolve);
  EXPECT_EQ(strat.observed_price(), nash.diff.expected_solve_hashes());
  EXPECT_LT(strat.planned_solve_rate(), 3.0);
}

TEST(MultiTargetStrategy, RoundRobinsAcrossTargets) {
  offense::MultiTargetStrategy strat(offense::StrategySpec::multi_target());
  offense::BotView v = view_at(SimTime::seconds(12));
  v.n_targets = 3;
  EXPECT_EQ(strat.on_slot(v).target, 0u);
  EXPECT_EQ(strat.on_slot(v).target, 1u);
  EXPECT_EQ(strat.on_slot(v).target, 2u);
  EXPECT_EQ(strat.on_slot(v).target, 0u);
}

// ---------------------------------------------------------------------------
// End to end through the scenario engine
// ---------------------------------------------------------------------------

scenario::Spec small_base() {
  scenario::Spec s;
  s.duration = SimTime::seconds(80);
  s.attack_start = SimTime::seconds(10);
  s.attack_end = SimTime::seconds(70);
  s.workload.n_clients = 6;
  s.workload.request_rate = 10.0;
  s.workload.response_bytes = 20'000;
  return s;
}

/// Pulsed attack, bursts [10,15) [30,35) [50,55). With a protection hold
/// shorter than the off phase the latch disengages between bursts (plain
/// SYN-ACKs return); with a hold longer than the off phase the pulse rides
/// the hysteresis and clients stay challenged throughout.
scenario::Spec pulsed_spec(SimTime hold) {
  scenario::Spec s = small_base();
  defense::PolicySpec pol = defense::PolicySpec::puzzles();
  pol.protection_hold = hold;
  s.servers.policies = {pol};
  scenario::AttackSpec a;
  a.count = 5;
  a.rate = 500.0;
  a.strategy = offense::StrategySpec::pulsed(SimTime::seconds(20), 0.25,
                                             /*spoofed=*/false,
                                             /*patched=*/false);
  s.attacks = {a};
  return s;
}

TEST(PulsedScenario, AttemptsOnlyInOnWindows) {
  const scenario::Result r = scenario::run(pulsed_spec(SimTime::seconds(5)));
  ASSERT_EQ(r.groups.size(), 1u);
  const auto& g = r.groups[0];
  EXPECT_EQ(g.name, "pulsed");
  // On-windows emit; off-windows are silent (bin edges excluded).
  EXPECT_GT(g.measured_rate(11, 14), 1000.0);
  EXPECT_GT(g.measured_rate(31, 34), 1000.0);
  EXPECT_EQ(g.measured_rate(16, 29), 0.0);
  EXPECT_EQ(g.measured_rate(36, 49), 0.0);
  EXPECT_EQ(g.measured_rate(56, 69), 0.0);
}

TEST(PulsedScenario, ShortHoldDisengagesBetweenBursts) {
  const scenario::Result r = scenario::run(pulsed_spec(SimTime::seconds(5)));
  const auto& srv = r.server();
  // Each burst latches protection (challenges minted)...
  EXPECT_GT(srv.counters.challenges_sent, 0u);
  EXPECT_GT(srv.challenge_synacks.mean_rate(11, 15), 0.0);
  // ...and the 15 s off phase outlives the 5 s hold: clients see plain
  // SYN-ACKs again well before the next burst.
  EXPECT_GT(srv.plain_synacks.mean_rate(24, 29), 0.0);
  EXPECT_EQ(srv.challenge_synacks.mean_rate(24, 29), 0.0);
}

TEST(PulsedScenario, LongHoldRidesThroughOffPhase) {
  const scenario::Result r = scenario::run(pulsed_spec(SimTime::seconds(25)));
  const auto& srv = r.server();
  // hold(25) > off(15): protection never disengages between bursts, so the
  // same off-phase window that went plain under the short hold stays
  // challenged — every fresh client SYN keeps paying the puzzle price.
  // (plain_synacks is not asserted zero here: the queue entries parked by
  // the burst ramp retransmit plain SYN-ACKs regardless of the latch.)
  EXPECT_GT(srv.challenge_synacks.mean_rate(24, 29), 5.0);
}

TEST(GameAdaptiveScenario, EstablishmentTracksPlannedBestResponse) {
  scenario::Spec s = small_base();
  // always_challenge: every attempt sees the posted price, so the attacker
  // observes the difficulty from its first patched attempt on.
  s.servers.policies = {fixtures::always_puzzles()};
  scenario::AttackSpec a;
  a.count = 3;
  a.rate = 300.0;
  a.strategy = offense::StrategySpec::game_adaptive(/*valuation=*/3e5);
  s.attacks = {a};
  const scenario::Result r = scenario::run(s);

  game::GameConfig g;
  g.valuations = {3e5};
  g.mu = 1100.0;
  const double x_star =
      game::solve_equilibrium(g, puzzle::Difficulty{2, 17}
                                     .expected_solve_hashes())
          .total_rate;
  ASSERT_GT(x_star, 0.5);
  // Per-bot establishment over the attack window converges near x*(ℓ): the
  // strategy only pays for the slots its best response says to.
  const double window =
      (s.attack_end - s.attack_start).to_seconds();
  for (const auto& bot : r.groups[0].bots) {
    const double rate = static_cast<double>(bot.total_established) / window;
    EXPECT_GT(rate, 0.5 * x_star);
    EXPECT_LT(rate, 1.6 * x_star);
  }
  // The spray half of the split really happened: spoofed SYNs from unowned
  // sources never become connections, so attempts far exceed handshakes.
  EXPECT_GT(r.groups[0].total_attempts(),
            4 * r.groups[0].total_established());
}

TEST(MixedBotnetScenario, PerStrategyCountersSumToAggregate) {
  scenario::Spec s = small_base();
  s.servers.policies = {defense::PolicySpec::puzzles()};
  scenario::AttackSpec xeon;
  xeon.name = "xeon-conn";
  xeon.count = 3;
  xeon.rate = 300.0;
  xeon.strategy = offense::StrategySpec::conn_flood();
  scenario::AttackSpec iot;
  iot.name = "iot-syn";
  iot.count = 2;
  iot.rate = 200.0;
  iot.strategy = offense::StrategySpec::syn_flood();
  iot.cpu = {sim::kIotDevices[0].hash_rate, sim::kIotDevices[0].cores, 1};
  scenario::AttackSpec bogus;
  bogus.name = "bogus";
  bogus.count = 2;
  bogus.rate = 100.0;
  bogus.strategy = offense::StrategySpec::bogus_solution_flood();
  s.attacks = {xeon, iot, bogus};

  const scenario::Result r = scenario::run(s);
  ASSERT_EQ(r.groups.size(), 3u);
  EXPECT_EQ(r.groups[0].bots.size(), 3u);
  EXPECT_EQ(r.groups[1].bots.size(), 2u);
  EXPECT_EQ(r.groups[2].bots.size(), 2u);

  // Group profiles: the SYN flood never completes a handshake; the bogus
  // flood forced verification work (invalid solutions at the server).
  EXPECT_GT(r.groups[0].total_attempts(), 0u);
  EXPECT_EQ(r.groups[1].total_established(), 0u);
  EXPECT_GT(r.groups[1].total_attempts(), 0u);
  EXPECT_GT(r.server().counters.solutions_invalid, 0u);

  // Aggregate helpers are exactly the per-group sums.
  const std::size_t lo = s.attack_start_bin() + 1, hi = s.attack_end_bin();
  double group_rate = 0;
  std::uint64_t attempts = 0, established = 0;
  for (const auto& g : r.groups) {
    group_rate += g.measured_rate(lo, hi);
    attempts += g.total_attempts();
    established += g.total_established();
  }
  EXPECT_DOUBLE_EQ(r.bot_measured_rate(lo, hi), group_rate);
  std::uint64_t flat_attempts = 0, flat_established = 0;
  for (const auto& g : r.groups) {
    for (const auto& b : g.bots) {
      flat_attempts += b.total_attempts;
      flat_established += b.total_established;
    }
  }
  EXPECT_EQ(attempts, flat_attempts);
  EXPECT_EQ(established, flat_established);
  EXPECT_GT(attempts, 0u);
}

TEST(MultiTargetScenario, SpreadsAcrossAddressableServers) {
  scenario::Spec s = small_base();
  s.servers.count = 3;
  s.servers.policies = {defense::PolicySpec::puzzles()};  // everywhere
  scenario::AttackSpec a;
  a.count = 4;
  a.rate = 300.0;
  a.strategy = offense::StrategySpec::multi_target();
  s.attacks = {a};
  const scenario::Result r = scenario::run(s);

  ASSERT_EQ(r.servers.size(), 3u);
  std::uint64_t lo = ~0ull, hi = 0;
  for (const auto& srv : r.servers) {
    lo = std::min(lo, srv.counters.syns_received);
    hi = std::max(hi, srv.counters.syns_received);
  }
  EXPECT_GT(lo, 0u);  // every replica got its share of the flood
  // Round-robin spread: server 0 additionally carries the whole client
  // workload, so compare the attacker-only replicas for evenness.
  EXPECT_GT(r.servers[1].counters.syns_received, 0u);
  EXPECT_GT(r.servers[2].counters.syns_received, 0u);
  const double s1 =
      static_cast<double>(r.servers[1].counters.syns_received);
  const double s2 =
      static_cast<double>(r.servers[2].counters.syns_received);
  EXPECT_LT(std::max(s1, s2) / std::min(s1, s2), 1.25);
  // Cluster counters really aggregate all three listeners.
  EXPECT_EQ(r.cluster.syns_received,
            r.servers[0].counters.syns_received +
                r.servers[1].counters.syns_received +
                r.servers[2].counters.syns_received);
}

}  // namespace
}  // namespace tcpz
