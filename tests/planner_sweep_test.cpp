// Parameterised sweeps over the difficulty planner and an end-to-end replay
// attack through the simulated network (the §7 replay discussion).
#include <gtest/gtest.h>

#include "defense/spec.hpp"
#include "game/planner.hpp"
#include "net/topology.hpp"
#include "policy_fixtures.hpp"
#include "puzzle/engine.hpp"
#include "tcp/connector.hpp"
#include "tcp/listener.hpp"

namespace tcpz {
namespace {

// ---------------------------------------------------------------------------
// Planner sweep: for any plausible hash target the chosen (k, m) must price
// within a factor two (power-of-two grid), satisfy the guessing bound where
// attainable, and keep verification cheap.
// ---------------------------------------------------------------------------

class PlannerSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(PlannerSweepTest, FactorisationIsSound) {
  const double target = GetParam();
  const game::PlannerOptions opts;
  const puzzle::Difficulty d = game::choose_difficulty(target, opts);

  ASSERT_GE(d.k, 1);
  ASSERT_GE(d.m, 1);
  EXPECT_LE(d.k, opts.k_max);
  EXPECT_LE(d.m, opts.m_max);

  const double ratio = d.expected_solve_hashes() / target;
  EXPECT_GT(ratio, 0.33) << d.to_string();
  EXPECT_LT(ratio, 3.0) << d.to_string();

  // Verification stays cheap: at most 1 + k_max/2 hashes.
  EXPECT_LE(d.expected_verify_hashes(), 1.0 + opts.k_max / 2.0);

  // The guessing bound holds whenever some feasible (k, m) can reach it at
  // this price point (k_max * m_for_k_max bits).
  if (target >= 1024.0) {
    EXPECT_GE(d.guess_bits(), opts.min_guess_bits) << d.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Targets, PlannerSweepTest,
                         ::testing::Values(2e3, 1e4, 66'967.0, 140'630.0, 5e5,
                                           2e6, 5e7),
                         [](const auto& info) {
                           // Built with += : `"t" + std::to_string(...)`
                           // trips GCC 12's -Wrestrict false positive
                           // (PR105651) under -O2 -Werror.
                           std::string name = "t";
                           name += std::to_string(static_cast<long>(info.param));
                           return name;
                         });

class BudgetSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(BudgetSweepTest, WavScalesLinearlyWithBudget) {
  const double budget_ms = GetParam();
  const double rate = 351'575.0;
  EXPECT_DOUBLE_EQ(game::estimate_wav(rate, budget_ms),
                   rate * budget_ms / 1000.0);
  // Harder budgets must never produce easier puzzles.
  const auto d_small = game::choose_difficulty(
      game::nash_hash_target(game::estimate_wav(rate, budget_ms), 1.1));
  const auto d_big = game::choose_difficulty(
      game::nash_hash_target(game::estimate_wav(rate, budget_ms * 4), 1.1));
  EXPECT_GE(d_big.expected_solve_hashes(), d_small.expected_solve_hashes());
}

INSTANTIATE_TEST_SUITE_P(Budgets, BudgetSweepTest,
                         ::testing::Values(100.0, 400.0, 1000.0, 4000.0));

// ---------------------------------------------------------------------------
// Replay attack end to end over the simulated network: an eavesdropper
// captures a legitimate solution ACK and floods copies of it.
// ---------------------------------------------------------------------------

TEST(ReplayAttack, CapturedSolutionAckOccupiesOneSlotAndExpires) {
  net::Simulator sim;
  net::Topology topo(sim);
  net::Router* r = topo.add_router();
  net::Host* server_host = topo.add_host(tcp::ipv4(10, 1, 0, 1));
  net::Host* client_host = topo.add_host(tcp::ipv4(10, 2, 0, 1));
  net::Host* spy_host = topo.add_host(tcp::ipv4(10, 3, 0, 1));
  const net::LinkSpec spec{100e6, SimTime::microseconds(100), 1 << 20};
  topo.connect(server_host, r, spec);
  topo.connect(client_host, r, spec);
  topo.connect(spy_host, r, spec);
  topo.compute_routes();

  const auto secret = crypto::SecretKey::from_seed(31);
  puzzle::EngineConfig ecfg;
  ecfg.sol_len = 4;
  ecfg.expiry_ms = 2000;
  auto engine = std::make_shared<puzzle::OraclePuzzleEngine>(secret, ecfg);

  tcp::ListenerConfig lcfg;
  lcfg.local_addr = server_host->addr();
  lcfg.local_port = 80;
  lcfg.policy = fixtures::always_puzzles().factory();
  lcfg.difficulty = {2, 12};
  auto listener = std::make_unique<tcp::Listener>(lcfg, secret, 1, engine);

  tcp::Segment captured_ack{};  // what the eavesdropper records
  bool have_capture = false;

  server_host->set_handler([&](SimTime now, const tcp::Segment& seg) {
    if (seg.options.solution && !have_capture) {
      captured_ack = seg;
      have_capture = true;
    }
    for (const auto& out : listener->on_segment(now, seg)) server_host->send(out);
  });

  tcp::ConnectorConfig ccfg;
  ccfg.local_addr = client_host->addr();
  ccfg.local_port = 40'000;
  ccfg.remote_addr = server_host->addr();
  ccfg.remote_port = 80;
  auto connector = std::make_unique<tcp::Connector>(ccfg, 2);

  client_host->set_handler([&](SimTime now, const tcp::Segment& seg) {
    auto out = connector->on_segment(now, seg);
    if (out.solve) {
      Rng rng(3);
      std::uint64_t ops = 0;
      const auto sol =
          engine->solve(*out.solve, connector->flow_binding(), rng, ops);
      out = connector->on_solved(now, sol);
    }
    for (const auto& seg2 : out.segments) client_host->send(seg2);
  });

  sim.schedule_at(SimTime::milliseconds(1), [&] {
    auto out = connector->start(sim.now());
    for (const auto& seg : out.segments) client_host->send(seg);
  });
  sim.run_until(SimTime::milliseconds(100));
  ASSERT_TRUE(have_capture);
  ASSERT_EQ(listener->counters().solutions_valid, 1u);
  ASSERT_EQ(listener->accept_depth(), 1u);

  // The eavesdropper floods 50 copies of the captured ACK (spoofing the
  // client's source, as a replay must).
  sim.schedule_at(SimTime::milliseconds(150), [&] {
    for (int i = 0; i < 50; ++i) spy_host->send(captured_ack);
  });
  sim.run_until(SimTime::milliseconds(400));

  // §7: "a replayed solution can only be used to occupy one slot at a time".
  EXPECT_EQ(listener->counters().solutions_valid, 1u);
  EXPECT_EQ(listener->counters().solutions_duplicate, 50u);
  EXPECT_EQ(listener->accept_depth(), 1u);

  // After the original is accepted+closed AND the challenge has expired,
  // replays are rejected statelessly by freshness, still at zero hash cost.
  const auto conn = listener->accept(SimTime::milliseconds(400));
  ASSERT_TRUE(conn.has_value());
  listener->close(conn->flow);
  sim.schedule_at(SimTime::seconds(5), [&] {  // well past expiry_ms = 2000
    for (int i = 0; i < 20; ++i) spy_host->send(captured_ack);
  });
  sim.run_until(SimTime::seconds(6));
  EXPECT_EQ(listener->counters().solutions_valid, 1u);
  EXPECT_EQ(listener->counters().solutions_expired, 20u);
  EXPECT_EQ(listener->established_count(), 0u);
}

}  // namespace
}  // namespace tcpz
