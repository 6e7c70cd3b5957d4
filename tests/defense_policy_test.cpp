// Tests for the pluggable defense layer (src/defense/): policy decision
// tables driven by synthetic QueueViews, the canonical PolicySpec factories,
// and the composable policies (hybrid, adaptive decorator, custom
// factories) wired through a real Listener.
#include <gtest/gtest.h>

#include <memory>

#include "crypto/secret.hpp"
#include "defense/policies.hpp"
#include "defense/spec.hpp"
#include "puzzle/engine.hpp"
#include "tcp/listener.hpp"

namespace tcpz {
namespace {

using defense::AckDecision;
using defense::PolicySpec;
using defense::QueueView;
using defense::SynAction;

constexpr std::uint32_t kServerAddr = tcp::ipv4(10, 1, 0, 1);
constexpr std::uint16_t kServerPort = 80;
constexpr std::uint32_t kClientAddr = tcp::ipv4(10, 2, 0, 1);

QueueView view(std::size_t listen_depth, std::size_t listen_cap,
               std::size_t accept_depth, std::size_t accept_cap,
               bool has_engine = true) {
  QueueView q;
  q.listen_depth = listen_depth;
  q.listen_capacity = listen_cap;
  q.listen_full = listen_depth >= listen_cap;
  q.accept_depth = accept_depth;
  q.accept_capacity = accept_cap;
  q.accept_full = accept_depth >= accept_cap;
  q.has_engine = has_engine;
  return q;
}

tcp::Segment make_syn(std::uint32_t saddr, std::uint16_t sport,
                      std::uint32_t isn, SimTime now = SimTime::zero()) {
  tcp::Segment s;
  s.saddr = saddr;
  s.daddr = kServerAddr;
  s.sport = sport;
  s.dport = kServerPort;
  s.seq = isn;
  s.flags = tcp::kSyn;
  s.options.mss = 1460;
  s.options.wscale = 7;
  s.options.ts = tcp::TimestampsOption{
      static_cast<std::uint32_t>(now.nanos() / 1'000'000), 0};
  return s;
}

tcp::Segment make_ack_for(const tcp::Segment& synack, SimTime now) {
  tcp::Segment s;
  s.saddr = synack.daddr;
  s.daddr = synack.saddr;
  s.sport = synack.dport;
  s.dport = synack.sport;
  s.seq = synack.ack;
  s.ack = synack.seq + 1;
  s.flags = tcp::kAck;
  if (synack.options.ts) {
    s.options.ts = tcp::TimestampsOption{
        static_cast<std::uint32_t>(now.nanos() / 1'000'000),
        synack.options.ts->tsval};
  }
  return s;
}

// ---------------------------------------------------------------------------
// Decision tables (no listener)
// ---------------------------------------------------------------------------

TEST(NonePolicy, DropsOnlyWhenListenFull) {
  defense::NonePolicy p;
  EXPECT_EQ(p.on_syn(SimTime::zero(), view(0, 4, 0, 4)).action,
            SynAction::kEnqueue);
  EXPECT_EQ(p.on_syn(SimTime::zero(), view(4, 4, 0, 4)).action,
            SynAction::kDrop);
  const AckDecision a = p.on_ack(SimTime::zero(), view(4, 4, 4, 4));
  EXPECT_FALSE(a.check_solution);
  EXPECT_FALSE(a.check_cookie);
  EXPECT_FALSE(p.protection_active(view(4, 4, 4, 4)));
  EXPECT_FALSE(p.requires_engine());
}

TEST(SynCookiePolicy, CookiesUnderPressureOnly) {
  defense::SynCookiePolicy p;
  EXPECT_EQ(p.on_syn(SimTime::zero(), view(3, 4, 0, 4)).action,
            SynAction::kEnqueue);
  EXPECT_EQ(p.on_syn(SimTime::zero(), view(4, 4, 0, 4)).action,
            SynAction::kCookie);
  // Cookies keep validating after the queue drains.
  EXPECT_TRUE(p.on_ack(SimTime::zero(), view(0, 4, 0, 4)).check_cookie);
  EXPECT_FALSE(p.on_ack(SimTime::zero(), view(0, 4, 0, 4)).check_solution);
  EXPECT_TRUE(p.protection_active(view(4, 4, 0, 4)));
  EXPECT_FALSE(p.protection_active(view(3, 4, 0, 4)));
}

TEST(PuzzlePolicy, LatchEngagesAtWatermarkAndHolds) {
  PolicySpec spec = PolicySpec::puzzles();
  spec.protection_hold = SimTime::seconds(5);
  spec.protection_engage_water = 0.5;
  defense::PuzzlePolicy p(spec);

  const SimTime t0 = SimTime::seconds(1);
  p.observe(t0, view(3, 8, 0, 8));
  EXPECT_FALSE(p.latched()) << "3 < 8*0.5";
  p.observe(t0, view(4, 8, 0, 8));
  EXPECT_TRUE(p.latched()) << "4 >= 8*0.5";
  EXPECT_EQ(p.on_syn(t0, view(4, 8, 0, 8)).action, SynAction::kChallenge);

  // Queue drains; the hold keeps protection in effect, then releases.
  p.observe(t0 + SimTime::seconds(2), view(0, 8, 0, 8));
  EXPECT_TRUE(p.latched()) << "hold not yet elapsed";
  EXPECT_EQ(p.on_syn(t0, view(0, 8, 0, 8)).action, SynAction::kChallenge);
  p.observe(t0 + SimTime::seconds(6), view(0, 8, 0, 8));
  EXPECT_FALSE(p.latched()) << "hold elapsed";
  EXPECT_EQ(p.on_syn(t0, view(0, 8, 0, 8)).action, SynAction::kEnqueue);
}

TEST(PuzzlePolicy, CookieFallbackWithoutEngine) {
  PolicySpec spec = PolicySpec::puzzles();
  spec.cookie_fallback = true;
  defense::PuzzlePolicy p(spec);
  EXPECT_FALSE(p.requires_engine());
  // Engine present: challenge wins when full.
  EXPECT_EQ(p.on_syn(SimTime::zero(), view(4, 4, 0, 4, true)).action,
            SynAction::kChallenge);
  // No engine: degrade to cookies when full, enqueue otherwise.
  EXPECT_EQ(p.on_syn(SimTime::zero(), view(4, 4, 0, 4, false)).action,
            SynAction::kCookie);
  EXPECT_EQ(p.on_syn(SimTime::zero(), view(0, 4, 0, 4, false)).action,
            SynAction::kEnqueue);
  EXPECT_TRUE(p.on_ack(SimTime::zero(), view(0, 4, 0, 4, false)).check_cookie);
  EXPECT_FALSE(p.on_ack(SimTime::zero(), view(0, 4, 0, 4, true)).check_cookie);
}

TEST(PuzzlePolicy, WithoutFallbackRequiresEngineAndDropsWhenMissing) {
  defense::PuzzlePolicy p(PolicySpec::puzzles());
  EXPECT_TRUE(p.requires_engine());
  // Defensive table: with the engine somehow gone, a full queue drops.
  EXPECT_EQ(p.on_syn(SimTime::zero(), view(4, 4, 0, 4, false)).action,
            SynAction::kDrop);
}

TEST(HybridPolicy, ChallengesOnAcceptPressureCookiesOnListenPressure) {
  PolicySpec spec = PolicySpec::hybrid();
  spec.protection_hold = SimTime::seconds(5);
  defense::HybridPolicy p(spec);
  EXPECT_TRUE(p.requires_engine());

  // Listen-queue pressure alone (SYN flood): stateless cookies.
  EXPECT_EQ(p.on_syn(SimTime::zero(), view(4, 4, 0, 4)).action,
            SynAction::kCookie);
  // Accept-queue pressure (connection flood): puzzles take precedence.
  p.observe(SimTime::seconds(1), view(4, 4, 4, 4));
  EXPECT_EQ(p.on_syn(SimTime::seconds(1), view(4, 4, 4, 4)).action,
            SynAction::kChallenge);
  // Latch holds after the accept queue drains...
  p.observe(SimTime::seconds(2), view(0, 4, 0, 4));
  EXPECT_EQ(p.on_syn(SimTime::seconds(2), view(0, 4, 0, 4)).action,
            SynAction::kChallenge);
  // ...and releases after the hold, cookies again only under listen pressure.
  p.observe(SimTime::seconds(7), view(0, 4, 0, 4));
  EXPECT_EQ(p.on_syn(SimTime::seconds(7), view(0, 4, 0, 4)).action,
            SynAction::kEnqueue);

  // Both credentials stay redeemable.
  EXPECT_TRUE(p.on_ack(SimTime::zero(), view(0, 4, 0, 4)).check_solution);
  EXPECT_TRUE(p.on_ack(SimTime::zero(), view(0, 4, 0, 4)).check_cookie);
}

// ---------------------------------------------------------------------------
// Spec mapping and construction
// ---------------------------------------------------------------------------

TEST(PolicySpec, CanonicalSpecsBuildNamedPolicies) {
  EXPECT_STREQ(PolicySpec::none().build()->name(), "none");
  EXPECT_STREQ(PolicySpec::syn_cookies().build()->name(), "syncookies");
  EXPECT_STREQ(PolicySpec::puzzles().build()->name(), "puzzles");
  EXPECT_STREQ(PolicySpec::hybrid().build()->name(), "hybrid");
}

TEST(PolicySpec, UnsetListenerPolicyIsStockTcp) {
  tcp::ListenerConfig cfg;
  cfg.local_addr = kServerAddr;
  cfg.local_port = kServerPort;
  const tcp::Listener listener(cfg, crypto::SecretKey::from_seed(3), 1,
                               nullptr);
  EXPECT_STREQ(listener.policy_name(), "none");
}

TEST(PolicySpec, AdaptiveWrapsPuzzleMintingKindsOnly) {
  const auto adaptive = PolicySpec::puzzles().with_adaptive(AdaptiveConfig{});
  EXPECT_STREQ(adaptive.build()->name(), "adaptive+puzzles");
  EXPECT_STREQ(
      PolicySpec::hybrid().with_adaptive(AdaptiveConfig{}).build()->name(),
      "adaptive+hybrid");
  // kNone/kSynCookies mint no puzzles; the decorator would be dead weight.
  EXPECT_STREQ(PolicySpec::none().with_adaptive(AdaptiveConfig{}).build()->name(),
               "none");
  EXPECT_STREQ(
      PolicySpec::syn_cookies().with_adaptive(AdaptiveConfig{}).build()->name(),
      "syncookies");
}

TEST(PolicySpec, WantsEngine) {
  EXPECT_FALSE(PolicySpec::none().wants_engine());
  EXPECT_FALSE(PolicySpec::syn_cookies().wants_engine());
  EXPECT_TRUE(PolicySpec::puzzles().wants_engine());
  EXPECT_TRUE(PolicySpec::hybrid().wants_engine());
}

// ---------------------------------------------------------------------------
// Policies wired through a real Listener
// ---------------------------------------------------------------------------

class PolicyListenerTest : public ::testing::Test {
 protected:
  void rebuild(PolicySpec spec, std::size_t listen_backlog = 4,
               std::size_t accept_backlog = 4, bool with_engine = true) {
    tcp::ListenerConfig cfg;
    cfg.local_addr = kServerAddr;
    cfg.local_port = kServerPort;
    cfg.listen_backlog = listen_backlog;
    cfg.accept_backlog = accept_backlog;
    cfg.difficulty = {1, 8};
    cfg.policy = spec.factory();
    secret_ = crypto::SecretKey::from_seed(7);
    engine_ = std::make_shared<puzzle::OraclePuzzleEngine>(
        secret_, puzzle::EngineConfig{4, 4000});
    listener_ = std::make_unique<tcp::Listener>(cfg, secret_, 1,
                                                with_engine ? engine_ : nullptr);
  }

  /// SYN -> SYN-ACK -> final ACK through raw segments; returns the SYN-ACK.
  tcp::Segment handshake(std::uint16_t sport, SimTime t) {
    const auto synacks =
        listener_->on_segment(t, make_syn(kClientAddr, sport, 100, t));
    EXPECT_EQ(synacks.size(), 1u);
    (void)listener_->on_segment(t, make_ack_for(synacks[0], t));
    return synacks[0];
  }

  crypto::SecretKey secret_{crypto::SecretKey::from_seed(7)};
  std::shared_ptr<puzzle::OraclePuzzleEngine> engine_;
  std::unique_ptr<tcp::Listener> listener_;
};

TEST_F(PolicyListenerTest, HybridRequiresEngineAtConstruction) {
  EXPECT_THROW(rebuild(PolicySpec::hybrid(), 4, 4, /*with_engine=*/false),
               std::invalid_argument);
}

TEST_F(PolicyListenerTest, HybridAnswersListenPressureWithCookies) {
  rebuild(PolicySpec::hybrid(), /*listen_backlog=*/2);
  const SimTime t = SimTime::seconds(1);
  // Half-open flood: fill the listen queue without completing handshakes.
  for (int i = 0; i < 2; ++i) {
    (void)listener_->on_segment(t, make_syn(kClientAddr + 1 + i, 1000, 5, t));
  }
  ASSERT_EQ(listener_->listen_depth(), 2u);

  // The next SYN draws a cookie, not a challenge and not a drop — and the
  // cookie handshake completes statelessly.
  const auto out = listener_->on_segment(t, make_syn(kClientAddr, 40000, 9, t));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].options.challenge.has_value());
  EXPECT_EQ(listener_->counters().cookies_sent, 1u);
  (void)listener_->on_segment(t, make_ack_for(out[0], t));
  EXPECT_EQ(listener_->counters().established_cookie, 1u);
  EXPECT_EQ(listener_->listen_depth(), 2u) << "cookie path must stay stateless";
}

TEST_F(PolicyListenerTest, HybridAnswersAcceptPressureWithChallenges) {
  rebuild(PolicySpec::hybrid(), /*listen_backlog=*/8, /*accept_backlog=*/2);
  const SimTime t = SimTime::seconds(1);
  // Fill the accept queue with completed handshakes (a connection flood).
  (void)handshake(41000, t);
  (void)handshake(41001, t);
  ASSERT_EQ(listener_->accept_depth(), 2u);
  (void)listener_->on_tick(t + SimTime::milliseconds(1));
  EXPECT_TRUE(listener_->protection_active());

  const auto out = listener_->on_segment(t + SimTime::milliseconds(2),
                                         make_syn(kClientAddr, 42000, 9, t));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].options.challenge.has_value())
      << "accept pressure must price the handshake, not hand out cookies";
  EXPECT_EQ(listener_->counters().challenges_sent, 1u);
}

TEST_F(PolicyListenerTest, AdaptivePolicyRetunesDifficultyThroughOnTick) {
  AdaptiveConfig actl;
  actl.base = {1, 8};
  actl.m_min = 1;
  actl.m_max = 10;
  actl.high_demand = 1.0;
  actl.low_demand = 0.1;
  actl.patience = 1;
  PolicySpec spec = PolicySpec::puzzles().with_adaptive(actl);
  spec.always_challenge = true;
  rebuild(spec);
  EXPECT_STREQ(listener_->policy_name(), "adaptive+puzzles");

  // Prime the controller, then sustain challenge demand for one period.
  (void)listener_->on_tick(SimTime::zero());
  for (int i = 0; i < 20; ++i) {
    const auto out = listener_->on_segment(
        SimTime::milliseconds(10 * i),
        make_syn(kClientAddr + i, 40000, 5, SimTime::milliseconds(10 * i)));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].options.challenge->m, 8);
  }
  (void)listener_->on_tick(SimTime::milliseconds(1100));
  EXPECT_EQ(listener_->config().difficulty.m, 9)
      << "sustained demand above high_demand must step m up";

  // The next challenge is minted at the hardened difficulty.
  const auto out = listener_->on_segment(
      SimTime::milliseconds(1200),
      make_syn(kClientAddr + 100, 40000, 5, SimTime::milliseconds(1200)));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].options.challenge->m, 9);
}

TEST_F(PolicyListenerTest, CustomPolicyViaFactory) {
  // A user-supplied policy outside the built-in set: unconditional drop.
  class BlackholePolicy final : public defense::DefensePolicy {
   public:
    const char* name() const override { return "blackhole"; }
    defense::SynDecision on_syn(SimTime, const QueueView&) override {
      return {SynAction::kDrop};
    }
    AckDecision on_ack(SimTime, const QueueView&) const override { return {}; }
    bool protection_active(const QueueView&) const override { return true; }
  };

  tcp::ListenerConfig cfg;
  cfg.local_addr = kServerAddr;
  cfg.local_port = kServerPort;
  cfg.policy = [] { return std::make_unique<BlackholePolicy>(); };
  tcp::Listener listener(cfg, crypto::SecretKey::from_seed(3), 1, nullptr);

  EXPECT_STREQ(listener.policy_name(), "blackhole");
  EXPECT_TRUE(listener.protection_active());
  const SimTime t = SimTime::seconds(1);
  EXPECT_TRUE(listener.on_segment(t, make_syn(kClientAddr, 40000, 1, t)).empty());
  EXPECT_EQ(listener.counters().drops_policy, 1u);
  EXPECT_EQ(listener.counters().drops_queue_overflow, 0u);
  EXPECT_EQ(listener.listen_depth(), 0u);
}

TEST_F(PolicyListenerTest, SetPolicySwitchesAtRuntimeAndValidatesEngine) {
  rebuild(PolicySpec::none(), 4, 4, /*with_engine=*/false);
  EXPECT_STREQ(listener_->policy_name(), "none");

  // Switching to an engine-requiring policy without an engine fails and
  // leaves the current policy in place.
  EXPECT_THROW(listener_->set_policy(PolicySpec::hybrid().build()),
               std::invalid_argument);
  EXPECT_STREQ(listener_->policy_name(), "none");

  listener_->set_policy(PolicySpec::syn_cookies().build());
  EXPECT_STREQ(listener_->policy_name(), "syncookies");

  listener_->set_engine(engine_);
  listener_->set_policy(PolicySpec::hybrid().build());
  EXPECT_STREQ(listener_->policy_name(), "hybrid");
}

}  // namespace
}  // namespace tcpz
