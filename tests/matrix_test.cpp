// Defence x attack matrix: every combination must run to completion without
// tripping any invariant, and the qualitative outcome table of §6 must hold
// — which defences survive which attack.
#include <gtest/gtest.h>

#include <tuple>

#include "defense/spec.hpp"
#include "offense/spec.hpp"
#include "scenario/spec.hpp"
#include "trace_digest.hpp"

namespace tcpz {
namespace {

using Defense = defense::PolicySpec::Kind;
using Attack = offense::StrategySpec::Kind;
using MatrixParam = std::tuple<Defense, Attack, bool /*bots solve*/>;

class DefenseAttackMatrix : public ::testing::TestWithParam<MatrixParam> {};

scenario::Spec matrix_spec(Defense defense, Attack attack, bool bots_solve) {
  scenario::Spec s;
  s.seed = 13;
  s.duration = SimTime::seconds(24);
  s.attack_start = SimTime::seconds(8);
  s.attack_end = SimTime::seconds(18);
  s.workload.n_clients = 3;
  s.workload.request_rate = 8.0;
  s.workload.response_bytes = 10'000;
  s.servers.listen_backlog = 128;
  s.servers.accept_backlog = 128;
  s.servers.service_rate = 200.0;
  s.servers.policies = {defense::PolicySpec::of(defense)};
  s.servers.difficulty = {2, 16};
  scenario::AttackSpec a;
  a.count = 3;
  a.rate = 500.0;
  a.strategy = offense::StrategySpec::of(attack);
  a.strategy.patched = bots_solve;  // only the conn flood connects
  s.attacks = {a};
  return s;
}

TEST_P(DefenseAttackMatrix, RunsCleanAndMatchesOutcomeTable) {
  const auto [defense, attack, bots_solve] = GetParam();
  const scenario::Spec s = matrix_spec(defense, attack, bots_solve);
  const scenario::Result res = scenario::run(s);

  // Universal invariants.
  const auto& c = res.server().counters;
  EXPECT_EQ(c.established_total,
            c.established_queue + c.established_cookie + c.established_puzzle);
  EXPECT_LE(res.server().listen_queue.max_in(SimTime::zero(), s.duration),
            static_cast<double>(s.servers.listen_backlog));
  EXPECT_LE(res.server().accept_queue.max_in(SimTime::zero(), s.duration),
            static_cast<double>(s.servers.accept_backlog));
  EXPECT_GT(res.events_processed, 1000u);

  const double before = res.client_rx_mbps(3, 7);
  const double during = res.client_rx_mbps(11, 17);
  ASSERT_GT(before, 0.5) << "pre-attack service must exist";

  // §6's outcome table. A bogus-solution flooder differs from a connection
  // flood only once it is challenged: against a server that never mints
  // puzzles it completes plain handshakes, so its run is the conn-flood run
  // and shares that row's outcome.
  if (attack == Attack::kBogusSolutionFlood && defense != Defense::kPuzzles) {
    const scenario::Result conn =
        scenario::run(matrix_spec(defense, Attack::kConnFlood, bots_solve));
    EXPECT_EQ(tracedigest::full_digest(res), tracedigest::full_digest(conn))
        << defense::to_string(defense)
        << ": unchallenged bogus flood must replay the conn flood";
  }
  const bool survives =
      (attack == Attack::kSynFlood && defense != Defense::kNone) ||
      (attack != Attack::kSynFlood && defense == Defense::kPuzzles);
  if (survives) {
    EXPECT_GT(during, before * 0.10) << defense::to_string(defense)
                                     << " should survive "
                                     << offense::to_string(attack);
  } else {
    EXPECT_LT(during, before * 0.35) << defense::to_string(defense)
                                     << " should collapse under "
                                     << offense::to_string(attack);
  }

  // Policy-specific sanity.
  if (defense == Defense::kNone) {
    EXPECT_EQ(c.challenges_sent, 0u);
    EXPECT_EQ(c.cookies_sent, 0u);
  }
  if (defense == Defense::kSynCookies) {
    EXPECT_EQ(c.challenges_sent, 0u);
  }
  if (defense == Defense::kPuzzles && attack != Attack::kSynFlood &&
      !bots_solve) {
    // Non-solving flood bots never produce a valid solution; every valid
    // one comes from the 3 legitimate clients.
    EXPECT_EQ(c.solutions_valid, c.established_puzzle);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DefenseAttackMatrix,
    ::testing::Combine(::testing::Values(Defense::kNone, Defense::kSynCookies,
                                         Defense::kPuzzles),
                       ::testing::Values(Attack::kSynFlood, Attack::kConnFlood,
                                         Attack::kBogusSolutionFlood),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<MatrixParam>& info) {
      std::string name = defense::to_string(std::get<0>(info.param));
      name += "_";
      name += offense::to_string(std::get<1>(info.param));
      name += std::get<2>(info.param) ? "_SA" : "_NA";
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace tcpz
