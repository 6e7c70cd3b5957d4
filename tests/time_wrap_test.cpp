// Long-horizon regression tests for the 32-bit millisecond wire clock.
//
// The wire carries 32-bit millisecond timestamps (TCP timestamps option and
// the embedded challenge timestamp), which wrap every ~49.7 days. The seed
// implementation compared them by magnitude (`echoed + expiry < now`), so a
// scenario running past the wrap rejected every fresh solution as coming
// from the future and wedged replay-cache expiry. Freshness is now decided
// by serial-number arithmetic; these tests pin the wrap window down.
#include <gtest/gtest.h>

#include <memory>

#include "crypto/secret.hpp"
#include "defense/spec.hpp"
#include "fleet/replay_cache.hpp"
#include "policy_fixtures.hpp"
#include "puzzle/engine.hpp"
#include "tcp/connector.hpp"
#include "tcp/listener.hpp"
#include "util/rng.hpp"

namespace tcpz {
namespace {

constexpr std::uint32_t kServerAddr = tcp::ipv4(10, 1, 0, 1);
constexpr std::uint16_t kServerPort = 80;
constexpr std::uint32_t kClientAddr = tcp::ipv4(10, 2, 0, 1);

/// ~49.71 simulated days: the instant the 32-bit millisecond clock wraps.
constexpr std::int64_t kWrapMs = 1ll << 32;

SimTime at_ms(std::int64_t ms) { return SimTime::milliseconds(ms); }

// ---------------------------------------------------------------------------
// Engine-level freshness across the wrap.
// ---------------------------------------------------------------------------

TEST(TimeWrap, SolutionStaysFreshAcrossMillisecondWrap) {
  const auto secret = crypto::SecretKey::from_seed(5);
  const puzzle::EngineConfig ecfg{4, 4'000};
  puzzle::OraclePuzzleEngine engine(secret, ecfg);
  const puzzle::FlowBinding flow{kClientAddr, kServerAddr, 40'000, kServerPort,
                                 7};

  // Challenge minted 200 ms before the wrap, verified 300 ms after: age is
  // 500 ms — far inside the 4 s expiry — but the raw u32 values are 2^32
  // apart. The seed comparison called this a future timestamp.
  const auto minted = static_cast<std::uint32_t>(kWrapMs - 200);
  const auto verify_now = static_cast<std::uint32_t>(kWrapMs + 300);
  const puzzle::Challenge ch = engine.make_challenge(flow, minted, {2, 8});
  Rng rng(3);
  std::uint64_t ops = 0;
  const puzzle::Solution sol = engine.solve(ch, flow, rng, ops);
  const auto outcome = engine.verify(flow, sol, {2, 8}, verify_now);
  EXPECT_TRUE(outcome.ok) << "fresh solution rejected across the ms wrap";
}

TEST(TimeWrap, ExpiryAndFutureSlackStillEnforcedNearTheWrap) {
  const auto secret = crypto::SecretKey::from_seed(5);
  const puzzle::EngineConfig ecfg{4, 4'000};
  puzzle::OraclePuzzleEngine engine(secret, ecfg);
  const puzzle::FlowBinding flow{kClientAddr, kServerAddr, 40'001, kServerPort,
                                 9};
  Rng rng(4);
  std::uint64_t ops = 0;

  // Stale: minted 5 s before the wrap, verified just after it.
  {
    const auto minted = static_cast<std::uint32_t>(kWrapMs - 5'000);
    const puzzle::Challenge ch = engine.make_challenge(flow, minted, {1, 8});
    const puzzle::Solution sol = engine.solve(ch, flow, rng, ops);
    const auto out =
        engine.verify(flow, sol, {1, 8}, static_cast<std::uint32_t>(kWrapMs + 1));
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.error, puzzle::VerifyError::kExpired);
  }
  // From the future: minted just after the wrap, verified just before it.
  {
    const auto minted = static_cast<std::uint32_t>(kWrapMs + 500);
    const puzzle::Challenge ch = engine.make_challenge(flow, minted, {1, 8});
    const puzzle::Solution sol = engine.solve(ch, flow, rng, ops);
    const auto out = engine.verify(flow, sol, {1, 8},
                                   static_cast<std::uint32_t>(kWrapMs - 200));
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.error, puzzle::VerifyError::kFutureTimestamp);
  }
}

// ---------------------------------------------------------------------------
// Listener-level: a handshake that straddles the wrap must establish.
// ---------------------------------------------------------------------------

TEST(TimeWrap, ListenerEstablishesPuzzleHandshakeAcrossWrap) {
  tcp::ListenerConfig cfg;
  cfg.local_addr = kServerAddr;
  cfg.local_port = kServerPort;
  cfg.policy = fixtures::always_puzzles().factory();
  cfg.difficulty = {2, 8};
  const auto secret = crypto::SecretKey::from_seed(21);
  auto engine = std::make_shared<puzzle::OraclePuzzleEngine>(
      secret, puzzle::EngineConfig{4, 4'000});
  tcp::Listener listener(cfg, secret, 3, engine);

  tcp::ConnectorConfig ccfg;
  ccfg.local_addr = kClientAddr;
  ccfg.local_port = 50'000;
  ccfg.remote_addr = kServerAddr;
  ccfg.remote_port = kServerPort;
  tcp::Connector conn(ccfg, 11);

  // SYN 100 ms before the wrap; the solved ACK arrives 150 ms after it.
  const SimTime t_syn = at_ms(kWrapMs - 100);
  const SimTime t_ack = at_ms(kWrapMs + 150);

  auto out = conn.start(t_syn);
  ASSERT_EQ(out.segments.size(), 1u);
  const auto synacks = listener.on_segment(t_syn, out.segments[0]);
  ASSERT_EQ(synacks.size(), 1u);
  ASSERT_TRUE(synacks[0].options.challenge.has_value());

  out = conn.on_segment(t_ack, synacks[0]);
  ASSERT_TRUE(out.solve.has_value());
  Rng rng(1);
  std::uint64_t ops = 0;
  const auto sol = engine->solve(*out.solve, conn.flow_binding(), rng, ops);
  out = conn.on_solved(t_ack, sol);
  ASSERT_FALSE(out.segments.empty());
  for (const auto& seg : out.segments) (void)listener.on_segment(t_ack, seg);

  EXPECT_EQ(listener.counters().solutions_valid, 1u);
  EXPECT_EQ(listener.counters().solutions_expired, 0u);
  EXPECT_EQ(listener.counters().established_puzzle, 1u);
}

// ---------------------------------------------------------------------------
// Replay cache expiry across the wrap.
// ---------------------------------------------------------------------------

TEST(TimeWrap, ReplayCacheExpiresAndStaysBoundedAcrossWrap) {
  fleet::ReplayCache cache(/*ttl_ms=*/5'000);
  tcp::FlowKey flow{};
  flow.laddr = kServerAddr;
  flow.lport = kServerPort;
  flow.raddr = kClientAddr;

  // Entries inserted before the wrap...
  for (std::uint16_t p = 1; p <= 100; ++p) {
    flow.rport = p;
    EXPECT_FALSE(cache.check_and_insert(
        flow, p, static_cast<std::uint32_t>(kWrapMs - 2'000)));
  }
  EXPECT_EQ(cache.size(), 100u);
  // ...are still replays right after it (age 2.5 s < ttl)...
  flow.rport = 1;
  EXPECT_TRUE(cache.check_and_insert(
      flow, 1, static_cast<std::uint32_t>(kWrapMs + 500)));
  // ...and are gone once their ttl truly passes, instead of being retained
  // for another 49.7 days as the magnitude comparison did.
  flow.rport = 101;
  (void)cache.check_and_insert(flow, 101,
                               static_cast<std::uint32_t>(kWrapMs + 6'000));
  EXPECT_EQ(cache.size(), 1u);
  flow.rport = 2;
  EXPECT_FALSE(cache.check_and_insert(
      flow, 2, static_cast<std::uint32_t>(kWrapMs + 6'100)));
}

}  // namespace
}  // namespace tcpz
