// Coverage for the less-travelled listener/connector paths: operation
// without the TCP timestamps option (embedded challenge timestamps), the
// cookie-fallback configuration of §5, close semantics, and counter
// consistency across mixed traffic.
#include <gtest/gtest.h>

#include <memory>

#include "crypto/secret.hpp"
#include "defense/spec.hpp"
#include "policy_fixtures.hpp"
#include "puzzle/engine.hpp"
#include "tcp/connector.hpp"
#include "tcp/listener.hpp"

namespace tcpz::tcp {
namespace {

constexpr std::uint32_t kServerAddr = ipv4(10, 1, 0, 1);
constexpr std::uint16_t kServerPort = 80;
constexpr std::uint32_t kClientAddr = ipv4(10, 2, 0, 1);

struct Pair {
  std::unique_ptr<Listener> listener;
  std::shared_ptr<puzzle::OraclePuzzleEngine> engine;
};

Pair make_pair(ListenerConfig cfg,
               puzzle::EngineConfig ecfg = {4, 4000}) {
  cfg.local_addr = kServerAddr;
  cfg.local_port = kServerPort;
  const auto secret = crypto::SecretKey::from_seed(21);
  Pair p;
  p.engine = std::make_shared<puzzle::OraclePuzzleEngine>(secret, ecfg);
  p.listener = std::make_unique<Listener>(cfg, secret, 3, p.engine);
  return p;
}

/// Drives a full handshake with a configurable connector; returns the
/// connector for further assertions.
Connector drive(Pair& p, ConnectorConfig ccfg, SimTime now,
                bool* established_out = nullptr) {
  ccfg.local_addr = ccfg.local_addr ? ccfg.local_addr : kClientAddr;
  ccfg.remote_addr = kServerAddr;
  ccfg.remote_port = kServerPort;
  Connector conn(ccfg, ccfg.local_port);
  auto out = conn.start(now);
  for (int hop = 0; hop < 6 && !out.segments.empty(); ++hop) {
    std::vector<Segment> to_client;
    for (const auto& seg : out.segments) {
      const auto resp = p.listener->on_segment(now, seg);
      to_client.insert(to_client.end(), resp.begin(), resp.end());
    }
    out.segments.clear();
    for (const auto& seg : to_client) {
      out = conn.on_segment(now, seg);
      if (out.solve) {
        Rng rng(1);
        std::uint64_t ops = 0;
        const auto sol = p.engine->solve(*out.solve, conn.flow_binding(), rng, ops);
        out = conn.on_solved(now, sol);
      }
      if (established_out && out.established) *established_out = true;
    }
  }
  for (const auto& seg : out.segments) (void)p.listener->on_segment(now, seg);
  return conn;
}

// ---------------------------------------------------------------------------
// No TCP timestamps: the challenge timestamp travels embedded (Fig. 4/5's
// optional T field).
// ---------------------------------------------------------------------------

TEST(TimestamplessMode, ChallengeCarriesEmbeddedTimestamp) {
  ListenerConfig cfg;
  cfg.policy = fixtures::always_puzzles().factory();
  cfg.difficulty = {2, 10};
  cfg.use_timestamps = false;
  auto p = make_pair(cfg);

  ConnectorConfig ccfg;
  ccfg.local_port = 50'000;
  ccfg.use_timestamps = false;
  const SimTime t = SimTime::seconds(3);
  bool established = false;
  (void)drive(p, ccfg, t, &established);

  EXPECT_TRUE(established);
  EXPECT_EQ(p.listener->counters().solutions_valid, 1u);
  EXPECT_EQ(p.listener->counters().established_puzzle, 1u);
}

TEST(TimestamplessMode, ServerHonorsClientWithoutTimestamps) {
  // Server has timestamps enabled but the client did not negotiate them:
  // the challenge must fall back to the embedded form.
  ListenerConfig cfg;
  cfg.policy = fixtures::always_puzzles().factory();
  cfg.difficulty = {1, 8};
  cfg.use_timestamps = true;  // server side on
  auto p = make_pair(cfg);

  Segment syn;
  syn.saddr = kClientAddr;
  syn.daddr = kServerAddr;
  syn.sport = 50'001;
  syn.dport = kServerPort;
  syn.seq = 42;
  syn.flags = kSyn;
  syn.options.mss = 1460;  // no ts option
  const auto out = p.listener->on_segment(SimTime::seconds(1), syn);
  ASSERT_EQ(out.size(), 1u);
  ASSERT_TRUE(out[0].options.challenge.has_value());
  EXPECT_TRUE(out[0].options.challenge->embedded_ts.has_value());
  EXPECT_FALSE(out[0].options.ts.has_value());
}

TEST(TimestamplessMode, ExpiryStillEnforced) {
  ListenerConfig cfg;
  cfg.policy = fixtures::always_puzzles().factory();
  cfg.difficulty = {1, 8};
  cfg.use_timestamps = false;
  auto p = make_pair(cfg, {4, 1000});  // 1 s expiry

  ConnectorConfig ccfg;
  ccfg.local_port = 50'002;
  ccfg.use_timestamps = false;
  Connector conn(ccfg, 1);
  ccfg.local_addr = kClientAddr;

  // Manually run the exchange with a delay between challenge and solution.
  Connector c2({kClientAddr, 50'002, kServerAddr, kServerPort}, 7);
  auto out = c2.start(SimTime::seconds(1));
  const auto synacks =
      p.listener->on_segment(SimTime::seconds(1), out.segments[0]);
  ASSERT_EQ(synacks.size(), 1u);
  out = c2.on_segment(SimTime::seconds(1), synacks[0]);
  ASSERT_TRUE(out.solve.has_value());
  Rng rng(2);
  std::uint64_t ops = 0;
  const auto sol = p.engine->solve(*out.solve, c2.flow_binding(), rng, ops);
  out = c2.on_solved(SimTime::seconds(1), sol);
  // Deliver the solution 5 s later: past the 1 s expiry.
  (void)p.listener->on_segment(SimTime::seconds(6), out.segments[0]);
  EXPECT_EQ(p.listener->counters().solutions_expired, 1u);
  EXPECT_EQ(p.listener->established_count(), 0u);
}

// ---------------------------------------------------------------------------
// Cookie fallback (§5: "we do however support SYN cookies as a backup").
// ---------------------------------------------------------------------------

TEST(CookieFallback, PuzzlesModeWithoutEngineFallsBackToCookies) {
  ListenerConfig cfg;
  cfg.local_addr = kServerAddr;
  cfg.local_port = kServerPort;
  defense::PolicySpec policy = defense::PolicySpec::puzzles();
  policy.cookie_fallback = true;
  cfg.policy = policy.factory();
  cfg.listen_backlog = 2;
  const auto secret = crypto::SecretKey::from_seed(22);
  Listener listener(cfg, secret, 1, nullptr);  // no engine installed

  const SimTime t = SimTime::seconds(1);
  // Fill the tiny listen queue.
  for (int i = 0; i < 2; ++i) {
    Segment syn;
    syn.saddr = kClientAddr + 1 + i;
    syn.daddr = kServerAddr;
    syn.sport = 1000;
    syn.dport = kServerPort;
    syn.seq = 5;
    syn.flags = kSyn;
    (void)listener.on_segment(t, syn);
  }
  // Next SYN gets a cookie, not a challenge and not a drop.
  Segment syn;
  syn.saddr = kClientAddr;
  syn.daddr = kServerAddr;
  syn.sport = 51'000;
  syn.dport = kServerPort;
  syn.seq = 1000;
  syn.flags = kSyn;
  syn.options.mss = 1460;
  const auto out = listener.on_segment(t, syn);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].options.challenge.has_value());
  EXPECT_EQ(listener.counters().cookies_sent, 1u);

  // Completing the cookie handshake works.
  Segment ack;
  ack.saddr = syn.saddr;
  ack.daddr = syn.daddr;
  ack.sport = syn.sport;
  ack.dport = syn.dport;
  ack.seq = syn.seq + 1;
  ack.ack = out[0].seq + 1;
  ack.flags = kAck;
  (void)listener.on_segment(t, ack);
  EXPECT_EQ(listener.counters().established_cookie, 1u);
}

// ---------------------------------------------------------------------------
// Close semantics and duplicate handling.
// ---------------------------------------------------------------------------

TEST(CloseSemantics, ClosedFlowCanReconnect) {
  ListenerConfig cfg;
  auto p = make_pair(cfg);
  const SimTime t = SimTime::seconds(1);

  ConnectorConfig ccfg;
  ccfg.local_port = 52'000;
  bool established = false;
  (void)drive(p, ccfg, t, &established);
  ASSERT_TRUE(established);
  const FlowKey flow{kClientAddr, 52'000, kServerAddr, kServerPort};
  ASSERT_TRUE(p.listener->is_established(flow));

  (void)p.listener->accept(t);
  p.listener->close(flow);
  EXPECT_FALSE(p.listener->is_established(flow));

  // Same 4-tuple connects again (new ISN).
  established = false;
  (void)drive(p, ccfg, t + SimTime::seconds(1), &established);
  EXPECT_TRUE(established);
  EXPECT_EQ(p.listener->counters().established_total, 2u);
}

TEST(CloseSemantics, DataAfterCloseDrawsRst) {
  ListenerConfig cfg;
  auto p = make_pair(cfg);
  const SimTime t = SimTime::seconds(1);
  ConnectorConfig ccfg;
  ccfg.local_port = 52'001;
  (void)drive(p, ccfg, t);
  const FlowKey flow{kClientAddr, 52'001, kServerAddr, kServerPort};
  (void)p.listener->accept(t);
  p.listener->close(flow);

  Segment data;
  data.saddr = kClientAddr;
  data.daddr = kServerAddr;
  data.sport = 52'001;
  data.dport = kServerPort;
  data.flags = kAck | kPsh;
  data.payload_bytes = 64;
  const auto out = p.listener->on_segment(t + SimTime::seconds(1), data);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].is_rst());
}

TEST(CloseSemantics, SynForEstablishedFlowIgnored) {
  ListenerConfig cfg;
  auto p = make_pair(cfg);
  const SimTime t = SimTime::seconds(1);
  ConnectorConfig ccfg;
  ccfg.local_port = 52'002;
  (void)drive(p, ccfg, t);
  ASSERT_EQ(p.listener->established_count(), 1u);

  Segment syn;
  syn.saddr = kClientAddr;
  syn.daddr = kServerAddr;
  syn.sport = 52'002;
  syn.dport = kServerPort;
  syn.seq = 999;
  syn.flags = kSyn;
  EXPECT_TRUE(p.listener->on_segment(t, syn).empty());
  EXPECT_EQ(p.listener->established_count(), 1u);
}

TEST(CloseSemantics, RstTearsDownEstablished) {
  ListenerConfig cfg;
  auto p = make_pair(cfg);
  const SimTime t = SimTime::seconds(1);
  ConnectorConfig ccfg;
  ccfg.local_port = 52'003;
  (void)drive(p, ccfg, t);
  ASSERT_EQ(p.listener->established_count(), 1u);

  Segment rst;
  rst.saddr = kClientAddr;
  rst.daddr = kServerAddr;
  rst.sport = 52'003;
  rst.dport = kServerPort;
  rst.flags = kRst;
  (void)p.listener->on_segment(t, rst);
  EXPECT_EQ(p.listener->established_count(), 0u);
}

TEST(CloseSemantics, AcceptOnEmptyQueueReturnsNothing) {
  ListenerConfig cfg;
  auto p = make_pair(cfg);
  EXPECT_FALSE(p.listener->accept(SimTime::seconds(1)).has_value());
}

// ---------------------------------------------------------------------------
// Connector duplicate SYN-ACK handling (the parked-entry recovery path).
// ---------------------------------------------------------------------------

TEST(ConnectorDuplicates, ReAcksDuplicateSynAck) {
  ConnectorConfig ccfg;
  ccfg.local_addr = kClientAddr;
  ccfg.local_port = 53'000;
  ccfg.remote_addr = kServerAddr;
  ccfg.remote_port = kServerPort;
  Connector conn(ccfg, 1);
  (void)conn.start(SimTime::seconds(1));

  Segment synack;
  synack.saddr = kServerAddr;
  synack.daddr = kClientAddr;
  synack.sport = kServerPort;
  synack.dport = 53'000;
  synack.seq = 777;
  synack.ack = conn.iss() + 1;
  synack.flags = kSyn | kAck;
  synack.options.mss = 1460;

  auto out = conn.on_segment(SimTime::seconds(1), synack);
  EXPECT_TRUE(out.established);
  ASSERT_EQ(out.segments.size(), 1u);
  const Segment first_ack = out.segments[0];

  // Server retransmits the SYN-ACK (our ACK was dropped at a full accept
  // queue): the connector must re-ACK with identical numbers, not re-solve
  // and not re-signal establishment.
  out = conn.on_segment(SimTime::seconds(2), synack);
  EXPECT_FALSE(out.established);
  ASSERT_EQ(out.segments.size(), 1u);
  EXPECT_EQ(out.segments[0].seq, first_ack.seq);
  EXPECT_EQ(out.segments[0].ack, first_ack.ack);
}

}  // namespace
}  // namespace tcpz::tcp
