// Tests for the §7 closed-loop difficulty controller, both in isolation
// (driving counters by hand) and end to end in the simulator.
#include <gtest/gtest.h>

#include "defense/adaptive.hpp"
#include "defense/spec.hpp"
#include "scenario/spec.hpp"

namespace tcpz {
namespace {

tcp::ListenerCounters counters_at(std::uint64_t challenges,
                                  std::uint64_t valid) {
  tcp::ListenerCounters c;
  c.challenges_sent = challenges;
  c.solutions_valid = valid;
  return c;
}

TEST(AdaptiveController, StartsAtBase) {
  AdaptiveDifficultyController ctl({puzzle::Difficulty{2, 17}});
  EXPECT_EQ(ctl.current(), (puzzle::Difficulty{2, 17}));
}

TEST(AdaptiveController, RejectsBadConfig) {
  AdaptiveConfig cfg;
  cfg.patience = 0;
  EXPECT_THROW(AdaptiveDifficultyController{cfg}, std::invalid_argument);
  cfg = {};
  cfg.high_demand = 10.0;
  cfg.low_demand = 20.0;  // inverted band
  EXPECT_THROW(AdaptiveDifficultyController{cfg}, std::invalid_argument);
}

TEST(AdaptiveController, StepsUpUnderSustainedDemand) {
  AdaptiveConfig cfg;
  cfg.base = {2, 17};
  cfg.m_max = 20;
  cfg.high_demand = 1000.0;
  cfg.patience = 2;
  AdaptiveDifficultyController ctl(cfg);

  std::uint64_t challenges = 0;
  SimTime t = SimTime::zero();
  (void)ctl.update(t, counters_at(challenges, 0));  // prime
  // 4 periods at 5000 challenges/s: two full patience windows -> m 17 -> 19.
  for (int i = 0; i < 4; ++i) {
    t += SimTime::seconds(1);
    challenges += 5000;
    (void)ctl.update(t, counters_at(challenges, 0));
  }
  EXPECT_EQ(ctl.current().m, 19);
  EXPECT_EQ(ctl.steps_up(), 2u);
  EXPECT_NEAR(ctl.last_demand(), 5000.0, 1.0);
}

TEST(AdaptiveController, SaturatesAtMMax) {
  AdaptiveConfig cfg;
  cfg.base = {2, 17};
  cfg.m_max = 18;
  cfg.patience = 1;
  AdaptiveDifficultyController ctl(cfg);
  std::uint64_t challenges = 0;
  SimTime t = SimTime::zero();
  (void)ctl.update(t, counters_at(0, 0));
  for (int i = 0; i < 10; ++i) {
    t += SimTime::seconds(1);
    challenges += 10'000;
    (void)ctl.update(t, counters_at(challenges, 0));
  }
  EXPECT_EQ(ctl.current().m, 18);  // never beyond m_max
}

TEST(AdaptiveController, RelaxesBackToBaseWhenQuiet) {
  AdaptiveConfig cfg;
  cfg.base = {2, 17};
  cfg.m_max = 20;
  cfg.patience = 1;
  AdaptiveDifficultyController ctl(cfg);
  std::uint64_t challenges = 0;
  SimTime t = SimTime::zero();
  (void)ctl.update(t, counters_at(0, 0));
  // Attack: push to 20.
  for (int i = 0; i < 3; ++i) {
    t += SimTime::seconds(1);
    challenges += 10'000;
    (void)ctl.update(t, counters_at(challenges, 0));
  }
  ASSERT_EQ(ctl.current().m, 20);
  // Quiet: relax one step per patience window, stopping at base.
  for (int i = 0; i < 10; ++i) {
    t += SimTime::seconds(1);
    challenges += 5;  // below low_demand
    (void)ctl.update(t, counters_at(challenges, 0));
  }
  EXPECT_EQ(ctl.current().m, 17);  // back to base, never below
  EXPECT_EQ(ctl.steps_down(), 3u);
}

TEST(AdaptiveController, DeadBandHolds) {
  AdaptiveConfig cfg;
  cfg.base = {2, 17};
  cfg.high_demand = 2000.0;
  cfg.low_demand = 200.0;
  cfg.patience = 1;
  AdaptiveDifficultyController ctl(cfg);
  std::uint64_t challenges = 0;
  SimTime t = SimTime::zero();
  (void)ctl.update(t, counters_at(0, 0));
  for (int i = 0; i < 5; ++i) {
    t += SimTime::seconds(1);
    challenges += 1000;  // inside the dead band
    (void)ctl.update(t, counters_at(challenges, 0));
  }
  EXPECT_EQ(ctl.current().m, 17);
  EXPECT_EQ(ctl.steps_up(), 0u);
  EXPECT_EQ(ctl.steps_down(), 0u);
}

TEST(AdaptiveController, SubPeriodCallsIgnored) {
  AdaptiveConfig cfg;
  cfg.patience = 1;
  AdaptiveDifficultyController ctl(cfg);
  (void)ctl.update(SimTime::zero(), counters_at(0, 0));
  // 10 calls within one period must not consume the counter deltas.
  for (int i = 1; i <= 10; ++i) {
    (void)ctl.update(SimTime::milliseconds(i * 50),
                     counters_at(static_cast<std::uint64_t>(i) * 1000, 0));
  }
  EXPECT_EQ(ctl.current().m, cfg.base.m);
  (void)ctl.update(SimTime::milliseconds(1100), counters_at(11'000, 0));
  EXPECT_NEAR(ctl.last_demand(), 10'000.0, 100.0);
}

TEST(AdaptiveController, ReportsYield) {
  AdaptiveConfig cfg;
  AdaptiveDifficultyController ctl(cfg);
  (void)ctl.update(SimTime::zero(), counters_at(0, 0));
  (void)ctl.update(SimTime::seconds(1), counters_at(1000, 400));
  EXPECT_NEAR(ctl.last_yield(), 0.4, 1e-9);
}

// ---------------------------------------------------------------------------
// End to end: the controller hardens during a flood and relaxes afterwards.
// ---------------------------------------------------------------------------

TEST(AdaptiveController, EndToEndHardensAndRelaxes) {
  scenario::Spec s;
  s.seed = 11;
  s.duration = SimTime::seconds(60);
  s.attack_start = SimTime::seconds(10);
  s.attack_end = SimTime::seconds(30);
  s.workload.n_clients = 4;
  s.workload.request_rate = 10.0;
  s.workload.response_bytes = 20'000;
  s.servers.listen_backlog = 256;
  s.servers.accept_backlog = 256;
  s.servers.service_rate = 300.0;
  s.servers.difficulty = {2, 15};
  scenario::AttackSpec a;
  a.count = 4;
  a.rate = 800.0;
  s.attacks = {a};  // patched conn flood

  AdaptiveConfig actl;
  actl.base = {2, 15};
  actl.m_max = 20;
  actl.high_demand = 1000.0;
  actl.low_demand = 100.0;
  actl.patience = 2;
  defense::PolicySpec policy =
      defense::PolicySpec::puzzles().with_adaptive(actl);
  policy.protection_hold = SimTime::seconds(10);  // let demand fall post-attack
  s.servers.policies = {policy};

  const scenario::Result res = scenario::run(s);
  const auto& m = res.server().difficulty_m;

  const double m_before = m.mean_in(SimTime::seconds(1), SimTime::seconds(9));
  const double m_during =
      m.max_in(SimTime::seconds(15), SimTime::seconds(30));
  const double m_end = m.mean_in(SimTime::seconds(55), SimTime::seconds(60));
  EXPECT_DOUBLE_EQ(m_before, 15.0) << "no hardening without an attack";
  EXPECT_GT(m_during, 15.0) << "controller must harden under the flood";
  EXPECT_LT(m_end, m_during) << "controller must relax after the flood";
}

}  // namespace
}  // namespace tcpz
