// Full-stack integration: the REAL SHA-256 puzzle scheme carried over the
// simulated network through actual Listener/Connector wire exchanges,
// with the solution bytes encoded and decoded through the TCP options codec.
// This is the closest analogue to running the kernel patch end to end.
#include <gtest/gtest.h>

#include <memory>

#include "crypto/secret.hpp"
#include "defense/spec.hpp"
#include "game/planner.hpp"
#include "net/topology.hpp"
#include "policy_fixtures.hpp"
#include "puzzle/engine.hpp"
#include "tcp/connector.hpp"
#include "tcp/listener.hpp"
#include "tcp/options.hpp"
#include "tcp/wire_format.hpp"

namespace tcpz {
namespace {

constexpr std::uint32_t kServerAddr = tcp::ipv4(10, 1, 0, 1);
constexpr std::uint32_t kClientAddr = tcp::ipv4(10, 2, 0, 1);

/// Minimal host agents wiring Listener/Connector to the simulated network,
/// with real brute-force solving (small m keeps it fast).
class RealStackFixture : public ::testing::Test {
 protected:
  RealStackFixture() : topo_(sim_) {
    net::Router* r = topo_.add_router();
    server_host_ = topo_.add_host(kServerAddr);
    client_host_ = topo_.add_host(kClientAddr);
    const net::LinkSpec spec{100e6, SimTime::microseconds(200), 1 << 20};
    topo_.connect(server_host_, r, spec);
    topo_.connect(client_host_, r, spec);
    topo_.compute_routes();

    const auto secret = crypto::SecretKey::from_seed(5);
    puzzle::EngineConfig ecfg;
    ecfg.sol_len = 4;
    engine_ = std::make_shared<puzzle::Sha256PuzzleEngine>(secret, ecfg);

    tcp::ListenerConfig lcfg;
    lcfg.local_addr = kServerAddr;
    lcfg.local_port = 80;
    lcfg.policy = fixtures::always_puzzles().factory();  // full puzzle path
    lcfg.difficulty = {2, 10};  // ~1k hashes: real solve stays instant
    listener_ = std::make_unique<tcp::Listener>(lcfg, secret, 1, engine_);

    server_host_->set_handler([this](SimTime now, const tcp::Segment& seg) {
      // Wire-codec round trip: what the kernel would do to the raw packet.
      tcp::Segment reencoded = seg;
      const Bytes wire = tcp::encode_options(seg.options);
      EXPECT_EQ(tcp::decode_options(wire, reencoded.options),
                tcp::DecodeResult::kOk);
      for (const auto& out : listener_->on_segment(now, reencoded)) {
        server_host_->send(out);
      }
    });
  }

  void run_client(bool solve) {
    tcp::ConnectorConfig ccfg;
    ccfg.local_addr = kClientAddr;
    ccfg.local_port = 40'000;
    ccfg.remote_addr = kServerAddr;
    ccfg.remote_port = 80;
    ccfg.solve_puzzles = solve;
    connector_ = std::make_unique<tcp::Connector>(ccfg, 2);

    client_host_->set_handler([this](SimTime now, const tcp::Segment& seg) {
      auto out = connector_->on_segment(now, seg);
      if (out.solve) {
        std::uint64_t ops = 0;
        Rng rng(3);
        const auto sol =
            engine_->solve(*out.solve, connector_->flow_binding(), rng, ops);
        solve_hash_ops_ = ops;
        out = connector_->on_solved(now, sol);
      }
      for (const auto& seg2 : out.segments) client_host_->send(seg2);
      if (out.established) established_ = true;
    });

    sim_.schedule_at(SimTime::milliseconds(1), [this] {
      auto out = connector_->start(sim_.now());
      for (const auto& seg : out.segments) client_host_->send(seg);
    });
    sim_.run_until(SimTime::seconds(2));
  }

  net::Simulator sim_;
  net::Topology topo_;
  net::Host* server_host_ = nullptr;
  net::Host* client_host_ = nullptr;
  std::shared_ptr<puzzle::Sha256PuzzleEngine> engine_;
  std::unique_ptr<tcp::Listener> listener_;
  std::unique_ptr<tcp::Connector> connector_;
  bool established_ = false;
  std::uint64_t solve_hash_ops_ = 0;
};

TEST_F(RealStackFixture, RealPuzzleHandshakeOverTheWire) {
  run_client(/*solve=*/true);
  EXPECT_TRUE(established_);
  EXPECT_GT(solve_hash_ops_, 0u);
  EXPECT_EQ(listener_->counters().challenges_sent, 1u);
  EXPECT_EQ(listener_->counters().solutions_valid, 1u);
  EXPECT_EQ(listener_->counters().established_puzzle, 1u);

  const auto conn = listener_->accept(sim_.now());
  ASSERT_TRUE(conn.has_value());
  EXPECT_EQ(conn->path, tcp::EstablishPath::kPuzzle);
  EXPECT_EQ(conn->peer_mss, 1460);
  EXPECT_EQ(conn->peer_wscale, 7);
}

TEST_F(RealStackFixture, LegacyClientDoesNotEstablish) {
  run_client(/*solve=*/false);
  // The legacy client ACKs blindly and believes it connected...
  EXPECT_TRUE(established_);
  // ...but the server holds no state for it.
  EXPECT_EQ(listener_->counters().solutions_valid, 0u);
  EXPECT_EQ(listener_->established_count(), 0u);
}

TEST(ProtectedServer, PlansAndBuildsListener) {
  game::ProtectedServerSettings settings;
  settings.local_addr = kServerAddr;
  settings.local_port = 443;
  settings.plan.client_hash_rates = {380'000.0, 330'000.0, 344'725.0};
  for (double c : {100.0, 500.0, 1000.0}) {
    settings.plan.stress_test.push_back({c, 1.1 * c});
  }
  settings.plan.form = game::NashForm::kPaperExample;
  settings.engine.sol_len = 4;

  const auto server = game::make_protected_server(
      settings, crypto::SecretKey::from_seed(9), 1);
  EXPECT_EQ(server.plan.difficulty.k, 2);
  EXPECT_EQ(server.plan.difficulty.m, 17);
  ASSERT_NE(server.listener, nullptr);
  EXPECT_STREQ(server.listener->policy_name(), "puzzles");
  EXPECT_EQ(server.listener->config().difficulty, server.plan.difficulty);
}

}  // namespace
}  // namespace tcpz
