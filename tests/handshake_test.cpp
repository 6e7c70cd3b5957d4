// State-machine tests for Listener and Connector, driven directly (no
// simulated network): normal handshakes, SYN cookies, the puzzle path, queue
// overflow behaviour, deception/RST, replay, expiry, and legacy clients.
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

using defense::PolicySpec;

constexpr std::uint32_t kServerAddr = ipv4(10, 1, 0, 1);
constexpr std::uint16_t kServerPort = 80;
constexpr std::uint32_t kClientAddr = ipv4(10, 2, 0, 1);

Segment make_syn(std::uint32_t saddr, std::uint16_t sport, std::uint32_t isn,
                 SimTime now = SimTime::zero()) {
  Segment s;
  s.saddr = saddr;
  s.daddr = kServerAddr;
  s.sport = sport;
  s.dport = kServerPort;
  s.seq = isn;
  s.flags = kSyn;
  s.options.mss = 1460;
  s.options.wscale = 7;
  s.options.ts =
      TimestampsOption{static_cast<std::uint32_t>(now.nanos() / 1'000'000), 0};
  return s;
}

Segment make_ack_for(const Segment& synack, SimTime now) {
  Segment s;
  s.saddr = synack.daddr;
  s.daddr = synack.saddr;
  s.sport = synack.dport;
  s.dport = synack.sport;
  s.seq = synack.ack;
  s.ack = synack.seq + 1;
  s.flags = kAck;
  if (synack.options.ts) {
    s.options.ts = TimestampsOption{
        static_cast<std::uint32_t>(now.nanos() / 1'000'000),
        synack.options.ts->tsval};
  }
  return s;
}

class ListenerTest : public ::testing::Test {
 protected:
  ListenerTest() { rebuild({}); }

  void rebuild(ListenerConfig cfg) {
    cfg.local_addr = kServerAddr;
    cfg.local_port = kServerPort;
    if (cfg.listen_backlog == 1024) cfg.listen_backlog = 4;
    if (cfg.accept_backlog == 1024) cfg.accept_backlog = 4;
    secret_ = crypto::SecretKey::from_seed(7);
    engine_ = std::make_shared<puzzle::OraclePuzzleEngine>(
        secret_, puzzle::EngineConfig{4, 4000});
    listener_ = std::make_unique<Listener>(cfg, secret_, 1, engine_);
  }

  /// Runs a full client handshake against the listener; returns true if the
  /// connection landed in the accept queue. Solves challenges via `engine_`.
  bool run_handshake(std::uint16_t sport, SimTime now, bool solve = true,
                     std::uint32_t client_addr = kClientAddr) {
    ConnectorConfig ccfg;
    ccfg.local_addr = client_addr;
    ccfg.local_port = sport;
    ccfg.remote_addr = kServerAddr;
    ccfg.remote_port = kServerPort;
    ccfg.solve_puzzles = solve;
    Connector conn(ccfg, sport);
    auto out = conn.start(now);
    for (int hops = 0; hops < 8; ++hops) {
      std::vector<Segment> to_server = std::move(out.segments);
      out.segments.clear();
      std::vector<Segment> to_client;
      for (const auto& seg : to_server) {
        auto resp = listener_->on_segment(now, seg);
        to_client.insert(to_client.end(), resp.begin(), resp.end());
      }
      if (to_client.empty()) break;
      for (const auto& seg : to_client) {
        out = conn.on_segment(now, seg);
        if (out.solve) {
          std::uint64_t ops = 0;
          Rng rng(sport);
          const auto sol =
              engine_->solve(*out.solve, conn.flow_binding(), rng, ops);
          out = conn.on_solved(now, sol);
        }
      }
    }
    for (const auto& seg : out.segments) {
      (void)listener_->on_segment(now, seg);
    }
    const FlowKey flow{client_addr, sport, kServerAddr, kServerPort};
    return listener_->is_established(flow);
  }

  crypto::SecretKey secret_{crypto::SecretKey::from_seed(7)};
  std::shared_ptr<puzzle::OraclePuzzleEngine> engine_;
  std::unique_ptr<Listener> listener_;
};

// ---------------------------------------------------------------------------
// Normal path
// ---------------------------------------------------------------------------

TEST_F(ListenerTest, PlainThreeWayHandshake) {
  const SimTime t = SimTime::seconds(1);
  EXPECT_TRUE(run_handshake(40000, t));
  EXPECT_EQ(listener_->counters().established_queue, 1u);
  EXPECT_EQ(listener_->counters().plain_synacks, 1u);
  EXPECT_EQ(listener_->accept_depth(), 1u);
  EXPECT_EQ(listener_->listen_depth(), 0u);

  const auto conn = listener_->accept(t);
  ASSERT_TRUE(conn.has_value());
  EXPECT_EQ(conn->path, EstablishPath::kQueue);
  EXPECT_EQ(conn->peer_mss, 1460);
  EXPECT_EQ(listener_->accept_depth(), 0u);
}

TEST_F(ListenerTest, SynRetransmitGetsSameSynAck) {
  const SimTime t = SimTime::seconds(1);
  const Segment syn = make_syn(kClientAddr, 40000, 111, t);
  const auto first = listener_->on_segment(t, syn);
  const auto second = listener_->on_segment(t + SimTime::seconds(1), syn);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(first[0].seq, second[0].seq);  // same ISS, no duplicate state
  EXPECT_EQ(listener_->listen_depth(), 1u);
  EXPECT_EQ(listener_->counters().synack_retx, 1u);
}

TEST_F(ListenerTest, StrayAckIgnored) {
  const SimTime t = SimTime::seconds(1);
  Segment ack;
  ack.saddr = kClientAddr;
  ack.daddr = kServerAddr;
  ack.sport = 40000;
  ack.dport = kServerPort;
  ack.seq = 1;
  ack.ack = 12345;
  ack.flags = kAck;
  EXPECT_TRUE(listener_->on_segment(t, ack).empty());
  EXPECT_EQ(listener_->established_count(), 0u);
}

TEST_F(ListenerTest, WrongAckNumberDoesNotEstablish) {
  const SimTime t = SimTime::seconds(1);
  const Segment syn = make_syn(kClientAddr, 40000, 111, t);
  const auto synacks = listener_->on_segment(t, syn);
  ASSERT_EQ(synacks.size(), 1u);
  Segment ack = make_ack_for(synacks[0], t);
  ack.ack += 5;  // acknowledges something we never sent
  (void)listener_->on_segment(t, ack);
  EXPECT_EQ(listener_->established_count(), 0u);
  EXPECT_EQ(listener_->listen_depth(), 1u);
}

TEST_F(ListenerTest, RstClearsHalfOpenState) {
  const SimTime t = SimTime::seconds(1);
  const Segment syn = make_syn(kClientAddr, 40000, 111, t);
  (void)listener_->on_segment(t, syn);
  EXPECT_EQ(listener_->listen_depth(), 1u);
  Segment rst;
  rst.saddr = kClientAddr;
  rst.daddr = kServerAddr;
  rst.sport = 40000;
  rst.dport = kServerPort;
  rst.flags = kRst;
  (void)listener_->on_segment(t, rst);
  EXPECT_EQ(listener_->listen_depth(), 0u);
}

TEST_F(ListenerTest, WrongDestinationIgnored) {
  Segment syn = make_syn(kClientAddr, 40000, 1);
  syn.dport = 8080;
  EXPECT_TRUE(listener_->on_segment(SimTime::zero(), syn).empty());
  EXPECT_EQ(listener_->counters().syns_received, 0u);
}

// ---------------------------------------------------------------------------
// Listen-queue overflow: the three defence modes
// ---------------------------------------------------------------------------

TEST_F(ListenerTest, NoDefenseDropsSynsWhenFull) {
  ListenerConfig cfg;
  cfg.policy = PolicySpec::none().factory();
  rebuild(cfg);
  const SimTime t = SimTime::seconds(1);
  for (int i = 0; i < 4; ++i) {
    (void)listener_->on_segment(
        t, make_syn(kClientAddr + 1 + i, 1000, 5, t));  // fill (no ACKs)
  }
  EXPECT_EQ(listener_->listen_depth(), 4u);
  const auto out = listener_->on_segment(t, make_syn(kClientAddr, 40000, 5, t));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(listener_->counters().drops_queue_overflow, 1u);
  EXPECT_EQ(listener_->counters().drops_policy, 0u);
  EXPECT_FALSE(run_handshake(40001, t));  // denial of service
}

TEST_F(ListenerTest, SynCookiesStatelessWhenFull) {
  ListenerConfig cfg;
  cfg.policy = PolicySpec::syn_cookies().factory();
  rebuild(cfg);
  const SimTime t = SimTime::seconds(1);
  for (int i = 0; i < 4; ++i) {
    (void)listener_->on_segment(t, make_syn(kClientAddr + 1 + i, 1000, 5, t));
  }
  EXPECT_TRUE(listener_->protection_active());
  // A further client still connects, statelessly, via the cookie.
  EXPECT_TRUE(run_handshake(40002, t));
  EXPECT_EQ(listener_->counters().cookies_sent, 1u);
  EXPECT_EQ(listener_->counters().established_cookie, 1u);
  EXPECT_EQ(listener_->listen_depth(), 4u);  // no new half-open state
  const auto conn = listener_->accept(t);
  ASSERT_TRUE(conn.has_value());
  EXPECT_EQ(conn->path, EstablishPath::kCookie);
  // Cookies can only encode the quantised MSS and lose wscale entirely (§5).
  EXPECT_EQ(conn->peer_wscale, 0);
}

TEST_F(ListenerTest, PuzzleChallengeWhenListenQueueFull) {
  ListenerConfig cfg;
  cfg.policy = PolicySpec::puzzles().factory();
  cfg.difficulty = {2, 12};
  rebuild(cfg);
  const SimTime t = SimTime::seconds(1);
  for (int i = 0; i < 4; ++i) {
    (void)listener_->on_segment(t, make_syn(kClientAddr + 1 + i, 1000, 5, t));
  }
  EXPECT_TRUE(listener_->protection_active());
  EXPECT_TRUE(run_handshake(40003, t));
  EXPECT_EQ(listener_->counters().challenges_sent, 1u);
  EXPECT_EQ(listener_->counters().solutions_valid, 1u);
  EXPECT_EQ(listener_->counters().established_puzzle, 1u);
  EXPECT_EQ(listener_->listen_depth(), 4u);  // stateless: no slot consumed
  const auto conn = listener_->accept(t);
  ASSERT_TRUE(conn.has_value());
  EXPECT_EQ(conn->path, EstablishPath::kPuzzle);
  // The solution block restored the true MSS and wscale (unlike cookies).
  EXPECT_EQ(conn->peer_mss, 1460);
  EXPECT_EQ(conn->peer_wscale, 7);
}

TEST_F(ListenerTest, OpportunisticNoChallengeWhenQueueHasRoom) {
  ListenerConfig cfg;
  cfg.policy = PolicySpec::puzzles().factory();
  rebuild(cfg);
  const SimTime t = SimTime::seconds(1);
  EXPECT_FALSE(listener_->protection_active());
  EXPECT_TRUE(run_handshake(40004, t));
  EXPECT_EQ(listener_->counters().challenges_sent, 0u);
  EXPECT_EQ(listener_->counters().plain_synacks, 1u);
}

TEST_F(ListenerTest, AlwaysChallengeOverridesQueueState) {
  ListenerConfig cfg;
  cfg.policy = fixtures::always_puzzles().factory();
  cfg.difficulty = {1, 8};
  rebuild(cfg);
  EXPECT_TRUE(run_handshake(40005, SimTime::seconds(1)));
  EXPECT_EQ(listener_->counters().challenges_sent, 1u);
  EXPECT_EQ(listener_->counters().plain_synacks, 0u);
}

// ---------------------------------------------------------------------------
// Accept-queue overflow (connection floods)
// ---------------------------------------------------------------------------

TEST_F(ListenerTest, ConnectionFloodFillsListenQueueAndEngagesPuzzles) {
  // A connection flood engages protection indirectly: the full accept queue
  // parks final ACKs in SYN_RECV until the listen queue saturates, and
  // challenges then flow even though the overflowing queue is the accept
  // queue (§5).
  ListenerConfig cfg;
  cfg.policy = PolicySpec::puzzles().factory();
  cfg.difficulty = {1, 8};
  rebuild(cfg);
  const SimTime t = SimTime::seconds(1);
  // Fill the accept queue with 4 established connections.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(run_handshake(static_cast<std::uint16_t>(41000 + i), t));
  }
  EXPECT_EQ(listener_->accept_depth(), 4u);
  EXPECT_FALSE(listener_->protection_active());  // listen queue still open

  // Flood continues: handshakes now park in the listen queue (ACK dropped,
  // accept full) until it too is saturated.
  for (int i = 0; i < 4; ++i) {
    const Segment syn =
        make_syn(kClientAddr, static_cast<std::uint16_t>(42000 + i), 5, t);
    const auto synacks = listener_->on_segment(t, syn);
    ASSERT_EQ(synacks.size(), 1u);
    EXPECT_FALSE(synacks[0].options.challenge.has_value());
    (void)listener_->on_segment(t, make_ack_for(synacks[0], t));
  }
  EXPECT_EQ(listener_->listen_depth(), 4u);
  EXPECT_EQ(listener_->counters().acks_pending_accept, 4u);
  (void)listener_->on_tick(t + SimTime::milliseconds(1));
  EXPECT_TRUE(listener_->protection_active());

  // The next SYN is challenged even though the accept queue is the one
  // overflowing.
  const auto out = listener_->on_segment(t + SimTime::milliseconds(2),
                                         make_syn(kClientAddr, 43000, 9, t));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].options.challenge.has_value());
}

TEST_F(ListenerTest, SolutionAckIgnoredWhenAcceptQueueFull) {
  // The deception mechanism: the ACK is dropped silently; the client's later
  // data segment draws a RST.
  ListenerConfig cfg;
  cfg.policy = PolicySpec::puzzles().factory();
  cfg.difficulty = {1, 8};
  rebuild(cfg);
  const SimTime t = SimTime::seconds(1);
  // Saturate the accept queue, then the listen queue (parked handshakes),
  // which engages protection.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(run_handshake(static_cast<std::uint16_t>(41000 + i), t));
  }
  for (int i = 0; i < 4; ++i) {
    const Segment syn =
        make_syn(kClientAddr, static_cast<std::uint16_t>(42000 + i), 5, t);
    const auto synacks = listener_->on_segment(t, syn);
    ASSERT_EQ(synacks.size(), 1u);
    (void)listener_->on_segment(t, make_ack_for(synacks[0], t));
  }
  (void)listener_->on_tick(t + SimTime::milliseconds(1));
  ASSERT_TRUE(listener_->protection_active());

  // Handshake for a further client: its solution ACK must be ignored.
  EXPECT_FALSE(run_handshake(43001, t));
  EXPECT_EQ(listener_->counters().acks_ignored_accept_full, 1u);
  EXPECT_EQ(listener_->counters().solutions_valid, 0u);

  // Its data segment now draws a RST.
  Segment data;
  data.saddr = kClientAddr;
  data.daddr = kServerAddr;
  data.sport = 43001;
  data.dport = kServerPort;
  data.flags = kAck | kPsh;
  data.payload_bytes = 100;
  const auto out = listener_->on_segment(t, data);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].is_rst());
  EXPECT_EQ(listener_->counters().rsts_sent, 1u);
}

TEST_F(ListenerTest, HandshakeAckParkedUntilPeerRetransmits) {
  // Normal path with a full accept queue: the ACK is dropped (Linux
  // semantics), the entry stays in SYN_RECV, and only a later transmission
  // from the peer completes it — a silent peer (flood tool) never connects.
  ListenerConfig cfg;
  cfg.policy = PolicySpec::none().factory();
  cfg.accept_backlog = 1;
  rebuild(cfg);
  const SimTime t = SimTime::seconds(1);
  ASSERT_TRUE(run_handshake(41000, t));
  EXPECT_EQ(listener_->accept_depth(), 1u);

  // Second handshake: ACK arrives but the queue is full.
  const Segment syn = make_syn(kClientAddr, 41001, 77, t);
  const auto synacks = listener_->on_segment(t, syn);
  ASSERT_EQ(synacks.size(), 1u);
  const Segment ack = make_ack_for(synacks[0], t);
  (void)listener_->on_segment(t, ack);
  EXPECT_EQ(listener_->counters().acks_pending_accept, 1u);
  EXPECT_EQ(listener_->established_count(), 1u);
  EXPECT_EQ(listener_->listen_depth(), 1u);  // still SYN_RECV

  // Application drains but the tick must NOT promote a silent peer.
  ASSERT_TRUE(listener_->accept(t).has_value());
  (void)listener_->on_tick(t + SimTime::milliseconds(100));
  EXPECT_EQ(listener_->established_count(), 1u);

  // The peer's retransmitted ACK (or first data segment) completes it.
  (void)listener_->on_segment(t + SimTime::milliseconds(200), ack);
  EXPECT_EQ(listener_->established_count(), 2u);
  EXPECT_EQ(listener_->accept_depth(), 1u);
  EXPECT_EQ(listener_->listen_depth(), 0u);
}

TEST_F(ListenerTest, DataSegmentCompletesParkedEntry) {
  ListenerConfig cfg;
  cfg.policy = PolicySpec::none().factory();
  cfg.accept_backlog = 1;
  rebuild(cfg);
  const SimTime t = SimTime::seconds(1);
  ASSERT_TRUE(run_handshake(41000, t));

  const Segment syn = make_syn(kClientAddr, 41002, 88, t);
  const auto synacks = listener_->on_segment(t, syn);
  ASSERT_EQ(synacks.size(), 1u);
  (void)listener_->on_segment(t, make_ack_for(synacks[0], t));  // parked

  int delivered = 0;
  listener_->set_data_handler(
      [&](SimTime, const FlowKey&, const Segment&) { ++delivered; });
  ASSERT_TRUE(listener_->accept(t).has_value());  // free a slot

  Segment data = make_ack_for(synacks[0], t);
  data.flags = kAck | kPsh;
  data.payload_bytes = 120;
  (void)listener_->on_segment(t + SimTime::milliseconds(50), data);
  EXPECT_EQ(listener_->established_count(), 2u);
  EXPECT_EQ(delivered, 1);  // the piggybacked request was not lost
}

// ---------------------------------------------------------------------------
// Solution validation corner cases
// ---------------------------------------------------------------------------

class PuzzleAckTest : public ListenerTest {
 protected:
  PuzzleAckTest() {
    ListenerConfig cfg;
    cfg.policy = fixtures::always_puzzles().factory();
    cfg.difficulty = {2, 12};
    rebuild(cfg);
  }

  /// Performs SYN -> SYN-ACK(challenge) and returns a valid solution ACK.
  Segment valid_solution_ack(std::uint16_t sport, SimTime now) {
    ConnectorConfig ccfg;
    ccfg.local_addr = kClientAddr;
    ccfg.local_port = sport;
    ccfg.remote_addr = kServerAddr;
    ccfg.remote_port = kServerPort;
    Connector conn(ccfg, sport);
    auto out = conn.start(now);
    const auto synacks = listener_->on_segment(now, out.segments[0]);
    EXPECT_EQ(synacks.size(), 1u);
    out = conn.on_segment(now, synacks[0]);
    EXPECT_TRUE(out.solve.has_value());
    std::uint64_t ops = 0;
    Rng rng(sport);
    const auto sol = engine_->solve(*out.solve, conn.flow_binding(), rng, ops);
    out = conn.on_solved(now, sol);
    EXPECT_EQ(out.segments.size(), 1u);
    return out.segments[0];
  }
};

TEST_F(PuzzleAckTest, ValidSolutionEstablishes) {
  const SimTime t = SimTime::seconds(2);
  const Segment ack = valid_solution_ack(43000, t);
  (void)listener_->on_segment(t, ack);
  EXPECT_EQ(listener_->counters().solutions_valid, 1u);
  EXPECT_EQ(listener_->established_count(), 1u);
}

TEST_F(PuzzleAckTest, ReplayOccupiesOnlyOneSlot) {
  // §7 replay attacks: the same captured solution ACK re-sent does not take
  // another accept-queue slot while the first is admitted.
  const SimTime t = SimTime::seconds(2);
  const Segment ack = valid_solution_ack(43001, t);
  (void)listener_->on_segment(t, ack);
  (void)listener_->on_segment(t, ack);
  (void)listener_->on_segment(t + SimTime::milliseconds(5), ack);
  EXPECT_EQ(listener_->counters().solutions_valid, 1u);
  EXPECT_EQ(listener_->counters().solutions_duplicate, 2u);
  EXPECT_EQ(listener_->accept_depth(), 1u);
}

TEST_F(PuzzleAckTest, ReplayIsDuplicateWhileQueuedEvenAfterReset) {
  // A reset clears the established flag, but the connection still waits in
  // the accept queue, so a replay is still a duplicate. Once accept() takes
  // the connection the flow is forgotten and the replay is admitted again.
  const SimTime t = SimTime::seconds(2);
  const Segment ack = valid_solution_ack(43002, t);
  const FlowKey flow = FlowKey::from_incoming(ack);
  (void)listener_->on_segment(t, ack);
  Segment rst;
  rst.saddr = ack.saddr;
  rst.daddr = ack.daddr;
  rst.sport = ack.sport;
  rst.dport = ack.dport;
  rst.flags = kRst;
  (void)listener_->on_segment(t, rst);
  EXPECT_FALSE(listener_->is_established(flow));
  EXPECT_EQ(listener_->established_count(), 0u);

  (void)listener_->on_segment(t, ack);
  EXPECT_EQ(listener_->counters().solutions_duplicate, 1u);
  EXPECT_EQ(listener_->accept_depth(), 1u);

  ASSERT_TRUE(listener_->accept(t).has_value());
  (void)listener_->on_segment(t, ack);
  EXPECT_EQ(listener_->counters().solutions_valid, 2u);
  EXPECT_TRUE(listener_->is_established(flow));
  EXPECT_EQ(listener_->established_count(), 1u);
  EXPECT_EQ(listener_->accept_depth(), 1u);

  listener_->close(flow);  // still queued: only the flag goes
  EXPECT_EQ(listener_->established_count(), 0u);
  (void)listener_->on_segment(t, ack);
  EXPECT_EQ(listener_->counters().solutions_duplicate, 2u);
}

TEST_F(PuzzleAckTest, ExpiredSolutionRejected) {
  const SimTime t = SimTime::seconds(2);
  const Segment ack = valid_solution_ack(43002, t);
  // Engine expiry is 4000 ms: replaying 10 s later must fail statelessly.
  const SimTime late = t + SimTime::seconds(10);
  Segment replay = ack;
  if (replay.options.ts) {
    replay.options.ts->tsval += 10'000;  // client clock advanced; TSecr kept
  }
  (void)listener_->on_segment(late, replay);
  EXPECT_EQ(listener_->counters().solutions_expired, 1u);
  EXPECT_EQ(listener_->established_count(), 0u);
}

TEST_F(PuzzleAckTest, CorruptedSolutionRejected) {
  const SimTime t = SimTime::seconds(2);
  Segment ack = valid_solution_ack(43003, t);
  ack.options.solution->solutions[0] ^= 0xff;
  (void)listener_->on_segment(t, ack);
  EXPECT_EQ(listener_->counters().solutions_invalid, 1u);
  EXPECT_EQ(listener_->established_count(), 0u);
}

TEST_F(PuzzleAckTest, TamperedTimestampRejected) {
  const SimTime t = SimTime::seconds(2);
  Segment ack = valid_solution_ack(43004, t);
  ASSERT_TRUE(ack.options.ts.has_value());
  ack.options.ts->tsecr += 1;  // attacker "refreshes" the challenge
  (void)listener_->on_segment(t, ack);
  // The derived ISS no longer matches -> rejected before verification.
  EXPECT_EQ(listener_->counters().solutions_bad_ackno, 1u);
  EXPECT_EQ(listener_->established_count(), 0u);
}

TEST_F(PuzzleAckTest, WrongSolutionCountRejected) {
  const SimTime t = SimTime::seconds(2);
  Segment ack = valid_solution_ack(43005, t);
  ack.options.solution->solutions.resize(4);  // one l=4 solution instead of 2
  (void)listener_->on_segment(t, ack);
  EXPECT_EQ(listener_->counters().solutions_invalid, 1u);
}

TEST_F(PuzzleAckTest, LegacyPlainAckSilentlyIgnored) {
  // A non-solving client's plain ACK (no solution block, no half-open entry)
  // is dropped without a RST (§6.5: it learns only via its data segment).
  const SimTime t = SimTime::seconds(2);
  ConnectorConfig ccfg;
  ccfg.local_addr = kClientAddr;
  ccfg.local_port = 43006;
  ccfg.remote_addr = kServerAddr;
  ccfg.remote_port = kServerPort;
  ccfg.solve_puzzles = false;  // unpatched stack
  Connector conn(ccfg, 1);
  auto out = conn.start(t);
  const auto synacks = listener_->on_segment(t, out.segments[0]);
  ASSERT_EQ(synacks.size(), 1u);
  out = conn.on_segment(t, synacks[0]);
  EXPECT_TRUE(out.established);  // it *believes* it connected
  EXPECT_TRUE(conn.was_challenged());
  const auto resp = listener_->on_segment(t, out.segments[0]);
  EXPECT_TRUE(resp.empty());
  EXPECT_EQ(listener_->established_count(), 0u);
}

// ---------------------------------------------------------------------------
// Protection controller hysteresis
// ---------------------------------------------------------------------------

TEST_F(ListenerTest, ProtectionEngagesAtHighWater) {
  PolicySpec policy = PolicySpec::puzzles();
  policy.protection_engage_water = 0.5;
  ListenerConfig cfg;
  cfg.policy = policy.factory();
  cfg.listen_backlog = 8;
  cfg.accept_backlog = 8;
  rebuild(cfg);

  const SimTime t = SimTime::seconds(1);
  for (int i = 0; i < 3; ++i) {
    (void)listener_->on_segment(t, make_syn(kClientAddr + 1 + i, 1000, 5, t));
  }
  EXPECT_FALSE(listener_->protection_active());  // 3 < 8*0.5
  (void)listener_->on_segment(t, make_syn(kClientAddr + 9, 1000, 5, t));
  // The 4th entry reaches the high-water mark; the latch updates on the
  // next event.
  (void)listener_->on_tick(t + SimTime::milliseconds(1));
  EXPECT_TRUE(listener_->protection_active());  // 4 >= 8*0.5
}

TEST_F(ListenerTest, ProtectionHoldOutlastsQueueDrain) {
  PolicySpec policy = PolicySpec::puzzles();
  policy.protection_hold = SimTime::seconds(5);
  ListenerConfig cfg;
  cfg.policy = policy.factory();
  cfg.listen_backlog = 2;
  rebuild(cfg);

  const SimTime t0 = SimTime::seconds(1);
  (void)listener_->on_segment(t0, make_syn(kClientAddr + 1, 1000, 5, t0));
  (void)listener_->on_segment(t0, make_syn(kClientAddr + 2, 1000, 5, t0));
  EXPECT_TRUE(listener_->protection_active());

  // Drain the queue via RSTs; protection must stay latched for the hold.
  for (int i = 0; i < 2; ++i) {
    Segment rst;
    rst.saddr = kClientAddr + 1 + i;
    rst.daddr = kServerAddr;
    rst.sport = 1000;
    rst.dport = kServerPort;
    rst.flags = kRst;
    (void)listener_->on_segment(t0, rst);
  }
  EXPECT_EQ(listener_->listen_depth(), 0u);
  (void)listener_->on_tick(t0 + SimTime::seconds(2));
  EXPECT_TRUE(listener_->protection_active()) << "hold not yet elapsed";
  (void)listener_->on_tick(t0 + SimTime::seconds(6));
  EXPECT_FALSE(listener_->protection_active()) << "hold elapsed, queues empty";
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

TEST_F(ListenerTest, SynAckRetransmitThenExpiry) {
  ListenerConfig cfg;
  cfg.policy = PolicySpec::none().factory();
  cfg.synack_timeout = SimTime::seconds(1);
  cfg.max_synack_retries = 2;
  rebuild(cfg);
  const SimTime t0 = SimTime::seconds(1);
  (void)listener_->on_segment(t0, make_syn(kClientAddr, 40000, 1, t0));
  EXPECT_EQ(listener_->listen_depth(), 1u);

  std::size_t retx = 0;
  SimTime t = t0;
  for (int i = 0; i < 200 && listener_->listen_depth() > 0; ++i) {
    t += SimTime::milliseconds(100);
    retx += listener_->on_tick(t).size();
  }
  EXPECT_EQ(retx, 2u);  // max_synack_retries
  EXPECT_EQ(listener_->listen_depth(), 0u);
  EXPECT_EQ(listener_->counters().half_open_expired, 1u);
  EXPECT_LE(t - t0, SimTime::seconds(8));
}

// ---------------------------------------------------------------------------
// Runtime tuning (the sysctl interface)
// ---------------------------------------------------------------------------

TEST_F(ListenerTest, DifficultyTunableAtRuntime) {
  ListenerConfig cfg;
  cfg.policy = fixtures::always_puzzles().factory();
  cfg.difficulty = {1, 8};
  rebuild(cfg);
  const SimTime t = SimTime::seconds(1);
  auto out = listener_->on_segment(t, make_syn(kClientAddr, 40000, 1, t));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].options.challenge->m, 8);

  listener_->set_difficulty({3, 15});
  out = listener_->on_segment(t, make_syn(kClientAddr, 40001, 1, t));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].options.challenge->k, 3);
  EXPECT_EQ(out[0].options.challenge->m, 15);

  EXPECT_THROW(listener_->set_difficulty({0, 8}), std::invalid_argument);
}

TEST(ListenerConstruction, PuzzlesModeRequiresEngine) {
  PolicySpec policy = PolicySpec::puzzles();
  ListenerConfig cfg;
  cfg.policy = policy.factory();
  EXPECT_THROW(Listener(cfg, crypto::SecretKey::from_seed(1), 1, nullptr),
               std::invalid_argument);
  policy.cookie_fallback = true;  // §5: cookies as the backup option
  cfg.policy = policy.factory();
  EXPECT_NO_THROW(Listener(cfg, crypto::SecretKey::from_seed(1), 1, nullptr));
}

// ---------------------------------------------------------------------------
// Connector-side specifics
// ---------------------------------------------------------------------------

TEST(Connector, RefusesPuzzleAboveValuation) {
  ConnectorConfig cfg;
  cfg.local_addr = kClientAddr;
  cfg.local_port = 5000;
  cfg.remote_addr = kServerAddr;
  cfg.remote_port = kServerPort;
  cfg.max_price_hashes = 1000.0;  // w_i
  Connector conn(cfg, 1);
  auto out = conn.start(SimTime::zero());

  Segment synack;
  synack.saddr = kServerAddr;
  synack.daddr = kClientAddr;
  synack.sport = kServerPort;
  synack.dport = 5000;
  synack.seq = 99;
  synack.ack = conn.iss() + 1;
  synack.flags = kSyn | kAck;
  ChallengeOption copt;
  copt.k = 2;
  copt.m = 17;  // expected 131072 hashes >> 1000
  copt.sol_len = 4;
  copt.embedded_ts = 5;
  copt.preimage = Bytes(4, 1);
  synack.options.challenge = copt;

  out = conn.on_segment(SimTime::zero(), synack);
  EXPECT_TRUE(out.failed);
  EXPECT_EQ(out.reason, ConnectFail::kRefusedDifficulty);
  EXPECT_EQ(conn.state(), ConnectorState::kFailed);
}

TEST(Connector, MalformedChallengeFails) {
  ConnectorConfig cfg;
  cfg.local_addr = kClientAddr;
  cfg.local_port = 5001;
  cfg.remote_addr = kServerAddr;
  cfg.remote_port = kServerPort;
  cfg.use_timestamps = false;
  Connector conn(cfg, 1);
  (void)conn.start(SimTime::zero());

  Segment synack;
  synack.saddr = kServerAddr;
  synack.daddr = kClientAddr;
  synack.sport = kServerPort;
  synack.dport = 5001;
  synack.ack = conn.iss() + 1;
  synack.flags = kSyn | kAck;
  ChallengeOption copt;
  copt.k = 0;  // invalid
  copt.m = 8;
  copt.sol_len = 4;
  copt.embedded_ts = 1;
  copt.preimage = Bytes(4, 1);
  synack.options.challenge = copt;
  const auto out = conn.on_segment(SimTime::zero(), synack);
  EXPECT_TRUE(out.failed);
  EXPECT_EQ(out.reason, ConnectFail::kBadChallenge);
}

TEST(Connector, SynRetransmissionThenTimeout) {
  ConnectorConfig cfg;
  cfg.local_addr = kClientAddr;
  cfg.local_port = 5002;
  cfg.remote_addr = kServerAddr;
  cfg.remote_port = kServerPort;
  cfg.syn_timeout = SimTime::seconds(1);
  cfg.max_syn_retries = 2;
  Connector conn(cfg, 1);
  (void)conn.start(SimTime::zero());

  std::size_t retx = 0;
  bool failed = false;
  for (SimTime t = SimTime::zero(); t < SimTime::seconds(20);
       t += SimTime::milliseconds(100)) {
    const auto out = conn.on_tick(t);
    retx += out.segments.size();
    if (out.failed) {
      failed = true;
      EXPECT_EQ(out.reason, ConnectFail::kTimeout);
      break;
    }
  }
  EXPECT_EQ(retx, 2u);
  EXPECT_TRUE(failed);
}

TEST(Connector, IgnoresSynAckForWrongAttempt) {
  ConnectorConfig cfg;
  cfg.local_addr = kClientAddr;
  cfg.local_port = 5003;
  cfg.remote_addr = kServerAddr;
  cfg.remote_port = kServerPort;
  Connector conn(cfg, 1);
  (void)conn.start(SimTime::zero());
  Segment synack;
  synack.saddr = kServerAddr;
  synack.daddr = kClientAddr;
  synack.sport = kServerPort;
  synack.dport = 5003;
  synack.ack = conn.iss() + 42;  // not our ISN
  synack.flags = kSyn | kAck;
  const auto out = conn.on_segment(SimTime::zero(), synack);
  EXPECT_TRUE(out.segments.empty());
  EXPECT_EQ(conn.state(), ConnectorState::kSynSent);
}

TEST(Connector, DataSegmentRequiresEstablished) {
  ConnectorConfig cfg;
  cfg.local_addr = kClientAddr;
  cfg.local_port = 5004;
  cfg.remote_addr = kServerAddr;
  cfg.remote_port = kServerPort;
  Connector conn(cfg, 1);
  EXPECT_THROW((void)conn.make_data_segment(SimTime::zero(), 10),
               std::logic_error);
}

}  // namespace
}  // namespace tcpz::tcp
