// Golden-trace regression tests for the offense layer and the scenario
// engine. The digest here folds every client and bot HostReport (CPU
// samples, connection times and totals) and every bin of the role ledgers
// on top of the listener counters, so a single re-ordered RNG draw or a
// perturbed event anywhere in the attack path shows up. A second digest
// pins every sample of the servers' gauges (queue depths, CPU, difficulty),
// which neither folds.
//
// If a digest changes, you changed workload/offense semantics. Decide
// explicitly whether that is intended; if so re-record (the tests print the
// computed digests on failure in hex).
#include <gtest/gtest.h>

#include <cstdio>

#include "defense/spec.hpp"
#include "offense/spec.hpp"
#include "scenario/spec.hpp"
#include "trace_digest.hpp"

namespace tcpz {
namespace {

using tracedigest::digest;
using tracedigest::full_digest;
using tracedigest::server_gauge_digest;
using tracedigest::sim_digest;

// Golden values for the trace_digest.hpp fixtures under puzzles, and the
// server_gauge_digest of the same two runs.
struct Golden {
  const char* name;
  offense::StrategySpec attack;
  std::uint64_t sim_digest;
  std::uint64_t fleet_digest;
  std::uint64_t sim_gauges;
  std::uint64_t fleet_gauges;
};

const Golden kGolden[] = {
    {"SynFlood", offense::StrategySpec::syn_flood(), 0x6508677ba1211f5bull,
     0xf8635397f8617113ull, 0xf32f1801dd237232ull, 0xd2f4051823a6d465ull},
    {"ConnFlood", offense::StrategySpec::conn_flood(),
     tracedigest::kScaledConnFloodDigest, 0x534afde2b337c6afull,
     0x076e5a28c4f450dbull, 0x045181c35f68bd00ull},
    {"BogusSolutionFlood", offense::StrategySpec::bogus_solution_flood(),
     0x0327c1ff59370d3bull, 0xa091aafd3ac45eabull, 0x746c577c775682e3ull,
     0x568be730a85e370dull},
};

class ScenarioTrace : public ::testing::TestWithParam<Golden> {};

TEST_P(ScenarioTrace, ScaledScenarioMatchesGoldenTrace) {
  const Golden& g = GetParam();
  const scenario::Result r = scenario::run(
      tracedigest::scaled_fixture(defense::PolicySpec::puzzles(), g.attack));
  const std::uint64_t d = sim_digest(r);
  EXPECT_EQ(d, g.sim_digest) << "sim trace drifted for attack " << g.name
                             << "; computed 0x" << std::hex << d;
  const std::uint64_t gauges = server_gauge_digest(r);
  EXPECT_EQ(gauges, g.sim_gauges)
      << "server gauges drifted for attack " << g.name << "; computed 0x"
      << std::hex << gauges;
  for (const tracedigest::LedgerSum& c : tracedigest::ledger_sums(r)) {
    EXPECT_EQ(c.ledger, c.hosts) << c.what << " ledger does not conserve the "
                                 << "per-host totals under " << g.name;
  }
}

TEST_P(ScenarioTrace, FleetScenarioMatchesGoldenTrace) {
  const Golden& g = GetParam();
  const scenario::Result r = scenario::run(
      tracedigest::fleet_fixture(defense::PolicySpec::puzzles(), g.attack));
  const std::uint64_t d = full_digest(r);
  EXPECT_EQ(d, g.fleet_digest) << "fleet trace drifted for attack " << g.name
                               << "; computed 0x" << std::hex << d;
  const std::uint64_t gauges = server_gauge_digest(r);
  EXPECT_EQ(gauges, g.fleet_gauges)
      << "fleet server gauges drifted for attack " << g.name
      << "; computed 0x" << std::hex << gauges;
}

INSTANTIATE_TEST_SUITE_P(AllAttacks, ScenarioTrace,
                         ::testing::ValuesIn(kGolden),
                         [](const auto& info) { return info.param.name; });

// A "no attack" baseline — an empty attack group with rate 0 — still runs:
// the empty group's rate is irrelevant.
TEST(ScenarioTrace, NoAttackBaselineWithEmptyGroupRuns) {
  scenario::Spec s;
  s.duration = SimTime::seconds(30);
  s.attack_start = SimTime::seconds(10);
  s.attack_end = SimTime::seconds(20);
  s.workload.n_clients = 3;
  s.workload.request_rate = 5.0;
  s.workload.response_bytes = 10'000;
  scenario::AttackSpec none;
  none.count = 0;
  none.rate = 0.0;
  s.attacks = {none};
  const scenario::Result r = scenario::run(s);
  ASSERT_EQ(r.groups.size(), 1u);
  EXPECT_TRUE(r.groups[0].bots.empty());
  EXPECT_GT(r.server().counters.established_total, 0u);
}

// Per-bot RNG stream hygiene: under derived-stream seeding, every agent's
// stream is a pure function of (spec seed, stable agent id), so appending
// an attack group — here one that never emits a packet — leaves every other
// agent's metrics byte-identical.
TEST(ScenarioTrace, InsertingIdleBotLeavesOtherStreamsByteIdentical) {
  scenario::Spec s;
  s.duration = SimTime::seconds(40);
  s.attack_start = SimTime::seconds(10);
  s.attack_end = SimTime::seconds(30);
  s.workload.n_clients = 5;
  s.workload.request_rate = 10.0;
  s.workload.response_bytes = 20'000;
  s.servers.policies = {defense::PolicySpec::puzzles()};
  scenario::AttackSpec a;
  a.count = 3;
  a.rate = 200.0;
  a.strategy = offense::StrategySpec::conn_flood();
  s.attacks = {a};
  const scenario::Result base = scenario::run(s);

  scenario::Spec s2 = s;
  scenario::AttackSpec idle;
  idle.name = "idle";
  idle.count = 1;
  idle.rate = 100.0;
  idle.strategy = offense::StrategySpec::syn_flood();
  idle.start = s.duration;  // empty attack window: never sends a packet
  idle.end = s.duration;
  s2.attacks.push_back(idle);
  const scenario::Result with_idle = scenario::run(s2);

  ASSERT_EQ(with_idle.groups.size(), 2u);
  EXPECT_EQ(with_idle.groups[1].total_attempts(), 0u);
  ASSERT_EQ(base.clients.size(), with_idle.clients.size());
  for (std::size_t i = 0; i < base.clients.size(); ++i) {
    EXPECT_EQ(digest(base.clients[i]), digest(with_idle.clients[i]))
        << "client " << i << " stream perturbed by an idle bot";
  }
  ASSERT_EQ(base.groups[0].bots.size(), with_idle.groups[0].bots.size());
  for (std::size_t i = 0; i < base.groups[0].bots.size(); ++i) {
    EXPECT_EQ(digest(base.groups[0].bots[i]),
              digest(with_idle.groups[0].bots[i]))
        << "bot " << i << " stream perturbed by an idle bot";
  }
  EXPECT_EQ(digest(base.legit), digest(with_idle.legit))
      << "client ledger perturbed by an idle bot";
  EXPECT_EQ(digest(base.groups[0].series), digest(with_idle.groups[0].series))
      << "group ledger perturbed by an idle bot";
  EXPECT_EQ(digest(with_idle.groups[1].series), digest(sim::RoleSeries{}));
  EXPECT_EQ(digest(base.server().counters), digest(with_idle.server().counters));
}

}  // namespace
}  // namespace tcpz
