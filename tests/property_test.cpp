// Property-based suites: invariants checked across parameter grids and
// randomised inputs (TEST_P + seeded fuzzing). These complement the
// behavioural tests with "for all" statements:
//   * puzzle scheme: solve/verify round-trips for every (k, m, l) cell,
//     tamper-rejection for every byte position;
//   * options codec: decode(encode(x)) == x over random option sets, and
//     decode() is total (never crashes, never reads out of bounds) over
//     random byte soup;
//   * SYN cookies: round-trip over random flows, single-bit tamper rejection;
//   * game: equilibrium first-order conditions over random instances;
//   * listener: invariants under a randomised segment storm.
#include <gtest/gtest.h>

#include <tuple>

#include "crypto/secret.hpp"
#include "defense/spec.hpp"
#include "game/model.hpp"
#include "puzzle/engine.hpp"
#include "tcp/listener.hpp"
#include "tcp/options.hpp"
#include "tcp/wire_format.hpp"
#include "tcp/syncookie.hpp"
#include "util/rng.hpp"

namespace tcpz {
namespace {

// ---------------------------------------------------------------------------
// Puzzle scheme over the (k, m, sol_len) grid — both engines.
// ---------------------------------------------------------------------------

using PuzzleGridParam = std::tuple<int /*k*/, int /*m*/, int /*sol_len*/,
                                   bool /*real engine*/>;

class PuzzleGridTest : public ::testing::TestWithParam<PuzzleGridParam> {
 protected:
  std::unique_ptr<puzzle::PuzzleEngine> make_engine() const {
    const auto [k, m, l, real] = GetParam();
    (void)k;
    (void)m;
    puzzle::EngineConfig cfg;
    cfg.sol_len = static_cast<std::uint8_t>(l);
    cfg.expiry_ms = 10'000;
    const auto secret = crypto::SecretKey::from_seed(1234);
    if (real) {
      return std::make_unique<puzzle::Sha256PuzzleEngine>(secret, cfg);
    }
    return std::make_unique<puzzle::OraclePuzzleEngine>(secret, cfg);
  }
  puzzle::Difficulty diff() const {
    const auto [k, m, l, real] = GetParam();
    (void)l;
    (void)real;
    return {static_cast<std::uint8_t>(k), static_cast<std::uint8_t>(m)};
  }
};

TEST_P(PuzzleGridTest, RoundTripVerifies) {
  const auto engine = make_engine();
  const puzzle::FlowBinding flow{1, 2, 3, 4, 5};
  const auto ch = engine->make_challenge(flow, 777, diff());
  EXPECT_EQ(ch.preimage.size(), std::get<2>(GetParam()));
  Rng rng(99);
  std::uint64_t ops = 0;
  const auto sol = engine->solve(ch, flow, rng, ops);
  const auto out = engine->verify(flow, sol, diff(), 800);
  EXPECT_TRUE(out.ok) << to_string(out.error);
}

TEST_P(PuzzleGridTest, EveryByteTamperRejected) {
  const auto engine = make_engine();
  const puzzle::FlowBinding flow{9, 8, 7, 6, 5};
  const auto ch = engine->make_challenge(flow, 50, diff());
  Rng rng(7);
  std::uint64_t ops = 0;
  const auto sol = engine->solve(ch, flow, rng, ops);
  for (std::size_t v = 0; v < sol.values.size(); ++v) {
    for (std::size_t b = 0; b < sol.values[v].size(); ++b) {
      puzzle::Solution bad = sol;
      bad.values[v][b] ^= 0x01;
      // For the oracle engine any flip fails. For the real engine a flipped
      // low bit could accidentally still satisfy the m-bit prefix; accept a
      // pass only if genuine re-verification agrees.
      const auto out = engine->verify(flow, bad, diff(), 60);
      if (std::get<3>(GetParam())) {
        if (out.ok) {
          // verify() said ok: the flipped value must genuinely satisfy the
          // prefix condition (possible; probability 2^-m per flip).
          continue;
        }
        EXPECT_EQ(out.error, puzzle::VerifyError::kBadSolution);
      } else {
        EXPECT_FALSE(out.ok) << "oracle must reject any modification";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PuzzleGridTest,
    ::testing::Combine(::testing::Values(1, 2, 4),       // k
                       ::testing::Values(1, 4, 8, 11),   // m (brute-forceable)
                       ::testing::Values(4, 8, 16),      // sol_len
                       ::testing::Bool()),               // real engine?
    [](const ::testing::TestParamInfo<PuzzleGridParam>& info) {
      return std::string(std::get<3>(info.param) ? "Sha256" : "Oracle") +
             "_k" + std::to_string(std::get<0>(info.param)) + "_m" +
             std::to_string(std::get<1>(info.param)) + "_l" +
             std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// Options codec: random round-trips and total decoding.
// ---------------------------------------------------------------------------

class OptionsFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

tcp::Options random_options(Rng& rng) {
  tcp::Options o;
  if (rng.bernoulli(0.7)) o.mss = static_cast<std::uint16_t>(rng.uniform_u64(65536));
  if (rng.bernoulli(0.5)) o.wscale = static_cast<std::uint8_t>(rng.uniform_u64(15));
  o.sack_permitted = rng.bernoulli(0.4);
  if (rng.bernoulli(0.6)) {
    o.ts = tcp::TimestampsOption{static_cast<std::uint32_t>(rng.next()),
                                 static_cast<std::uint32_t>(rng.next())};
  }
  // Either a challenge or a solution (they do not co-occur on the wire).
  if (rng.bernoulli(0.5)) {
    tcp::ChallengeOption c;
    c.k = static_cast<std::uint8_t>(1 + rng.uniform_u64(4));
    c.m = static_cast<std::uint8_t>(1 + rng.uniform_u64(20));
    c.sol_len = 4;
    if (!o.ts) c.embedded_ts = static_cast<std::uint32_t>(rng.next());
    c.preimage.resize(c.sol_len);
    for (auto& byte : c.preimage) byte = static_cast<std::uint8_t>(rng.next());
    o.challenge = std::move(c);
  } else if (rng.bernoulli(0.5)) {
    tcp::SolutionOption s;
    s.mss = static_cast<std::uint16_t>(rng.uniform_u64(65536));
    s.wscale = static_cast<std::uint8_t>(rng.uniform_u64(15));
    if (!o.ts) s.embedded_ts = static_cast<std::uint32_t>(rng.next());
    const std::size_t n = 4 * (1 + rng.uniform_u64(2));  // k in {1,2}, l=4
    s.solutions.resize(n);
    for (auto& byte : s.solutions) byte = static_cast<std::uint8_t>(rng.next());
    o.solution = std::move(s);
  }
  return o;
}

TEST_P(OptionsFuzzTest, RandomRoundTripsAreExact) {
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    const tcp::Options o = random_options(rng);
    Bytes wire;
    try {
      wire = tcp::encode_options(o);
    } catch (const std::length_error&) {
      continue;  // oversize combination: correctly refused
    }
    ASSERT_EQ(wire.size() % 4, 0u);
    ASSERT_LE(wire.size(), tcp::kMaxOptionsBytes);
    tcp::Options back;
    ASSERT_EQ(tcp::decode_options(wire, back), tcp::DecodeResult::kOk);
    EXPECT_EQ(back, o);
  }
}

TEST_P(OptionsFuzzTest, DecoderIsTotalOnByteSoup) {
  Rng rng(GetParam() ^ 0xf00dull);
  for (int i = 0; i < 3000; ++i) {
    Bytes wire(rng.uniform_u64(41));
    for (auto& b : wire) b = static_cast<std::uint8_t>(rng.next());
    tcp::Options out;
    // Must terminate and never crash; result value is unconstrained.
    (void)tcp::decode_options(wire, out);
  }
}

TEST_P(OptionsFuzzTest, TruncationsNeverCrash) {
  Rng rng(GetParam() ^ 0xbeefull);
  for (int i = 0; i < 300; ++i) {
    const tcp::Options o = random_options(rng);
    Bytes wire;
    try {
      wire = tcp::encode_options(o);
    } catch (const std::length_error&) {
      continue;
    }
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
      Bytes partial(wire.begin(), wire.begin() + static_cast<long>(cut));
      tcp::Options out;
      (void)tcp::decode_options(partial, out);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptionsFuzzTest,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull));

// ---------------------------------------------------------------------------
// SYN cookies over random flows.
// ---------------------------------------------------------------------------

class CookieFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CookieFuzzTest, RoundTripAndTamper) {
  Rng rng(GetParam());
  tcp::SynCookieCodec codec(crypto::SecretKey::from_seed(GetParam()));
  for (int i = 0; i < 300; ++i) {
    const tcp::FlowKey flow{static_cast<std::uint32_t>(rng.next()),
                            static_cast<std::uint16_t>(rng.next()),
                            static_cast<std::uint32_t>(rng.next()),
                            static_cast<std::uint16_t>(rng.next())};
    const auto isn = static_cast<std::uint32_t>(rng.next());
    const auto mss = static_cast<std::uint16_t>(536 + rng.uniform_u64(9000));
    const auto now = static_cast<std::uint32_t>(rng.uniform_u64(1u << 24));
    const std::uint32_t cookie = codec.encode(flow, isn, mss, now);

    const auto decoded = codec.decode(flow, isn, cookie, now);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_LE(*decoded, mss);  // quantised downward, never upward

    // Any single-bit flip in the MAC region must invalidate the cookie.
    const int bit = static_cast<int>(rng.uniform_u64(24));
    EXPECT_FALSE(codec.decode(flow, isn, cookie ^ (1u << bit), now).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CookieFuzzTest,
                         ::testing::Values(10ull, 20ull, 30ull));

// ---------------------------------------------------------------------------
// Game model over random instances.
// ---------------------------------------------------------------------------

class GameFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GameFuzzTest, EquilibriumSatisfiesKkt) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    game::GameConfig cfg;
    const std::size_t n = 2 + rng.uniform_u64(30);
    for (std::size_t i = 0; i < n; ++i) {
      cfg.valuations.push_back(rng.uniform(10.0, 10'000.0));
    }
    cfg.mu = rng.uniform(5.0, 2'000.0);
    const double r_hat = game::max_feasible_price(cfg);
    if (r_hat <= 0) continue;
    const double price = rng.uniform(0.01, 0.95) * r_hat;
    const auto eq = game::solve_equilibrium(cfg, price);
    if (!eq.exists) continue;

    ASSERT_LT(eq.total_rate, cfg.mu);
    const double slack = cfg.mu - eq.total_rate;
    const double lambda = price + 1.0 / (slack * slack);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_GE(eq.rates[i], 0.0);
      if (eq.rates[i] > 0) {
        // Active users: stationarity w_i/(1+x_i) = lambda.
        EXPECT_NEAR(cfg.valuations[i] / (1.0 + eq.rates[i]), lambda,
                    lambda * 1e-4);
      } else {
        // Dropped users: marginal utility at 0 must not exceed the price
        // signal (complementary slackness).
        EXPECT_LE(cfg.valuations[i], lambda * (1.0 + 1e-9));
      }
    }
  }
}

TEST_P(GameFuzzTest, ObjectiveConcaveAlongPrice) {
  Rng rng(GetParam() ^ 0x9999ull);
  for (int trial = 0; trial < 20; ++trial) {
    game::GameConfig cfg;
    const std::size_t n = 3 + rng.uniform_u64(20);
    const double w = rng.uniform(100.0, 50'000.0);
    cfg.valuations.assign(n, w);
    cfg.mu = rng.uniform(0.5, 3.0) * static_cast<double>(n);
    const double r_hat = game::max_feasible_price(cfg);
    if (r_hat <= 0) continue;
    const auto sol = game::optimal_price(cfg);
    // The optimum must dominate a dense grid over the feasible range.
    for (int g = 1; g <= 20; ++g) {
      const double price = r_hat * g / 21.0;
      EXPECT_GE(sol.objective * (1 + 1e-6) + 1e-9,
                game::provider_objective_approx(cfg, price))
          << "price " << price;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GameFuzzTest,
                         ::testing::Values(100ull, 200ull, 300ull));

// ---------------------------------------------------------------------------
// Listener under a randomised segment storm: must not crash; bounded queues;
// consistent counters.
// ---------------------------------------------------------------------------

class ListenerStormTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ListenerStormTest, InvariantsHoldUnderGarbage) {
  Rng rng(GetParam());
  for (const auto& policy :
       {defense::PolicySpec::none(), defense::PolicySpec::syn_cookies(),
        defense::PolicySpec::puzzles()}) {
    tcp::ListenerConfig cfg;
    cfg.local_addr = tcp::ipv4(10, 1, 0, 1);
    cfg.local_port = 80;
    cfg.listen_backlog = 16;
    cfg.accept_backlog = 16;
    cfg.policy = policy.factory();
    cfg.difficulty = {2, 8};
    const auto secret = crypto::SecretKey::from_seed(5);
    auto engine = std::make_shared<puzzle::OraclePuzzleEngine>(
        secret, puzzle::EngineConfig{4, 4000});
    tcp::Listener listener(cfg, secret, GetParam(), engine);

    SimTime now = SimTime::zero();
    for (int i = 0; i < 5'000; ++i) {
      now += SimTime::microseconds(static_cast<std::int64_t>(rng.uniform_u64(2000)));
      tcp::Segment seg;
      seg.saddr = static_cast<std::uint32_t>(rng.uniform_u64(64));
      seg.daddr = cfg.local_addr;
      seg.sport = static_cast<std::uint16_t>(rng.uniform_u64(128));
      seg.dport = cfg.local_port;
      seg.seq = static_cast<std::uint32_t>(rng.next());
      seg.ack = static_cast<std::uint32_t>(rng.next());
      seg.flags = static_cast<std::uint8_t>(rng.uniform_u64(0x20));
      seg.payload_bytes = static_cast<std::uint32_t>(rng.uniform_u64(3) * 100);
      if (rng.bernoulli(0.3)) {
        seg.options.ts = tcp::TimestampsOption{
            static_cast<std::uint32_t>(now.nanos() / 1'000'000),
            static_cast<std::uint32_t>(rng.next())};
      }
      if (rng.bernoulli(0.1)) {
        tcp::SolutionOption sol;
        sol.mss = 1460;
        sol.wscale = 7;
        if (!seg.options.ts) {
          sol.embedded_ts = static_cast<std::uint32_t>(rng.next());
        }
        sol.solutions.resize(4 * (1 + rng.uniform_u64(3)));
        for (auto& b : sol.solutions) b = static_cast<std::uint8_t>(rng.next());
        seg.options.solution = std::move(sol);
      }
      (void)listener.on_segment(now, seg);
      if (i % 50 == 0) (void)listener.on_tick(now);
      if (i % 70 == 0) (void)listener.accept(now);

      ASSERT_LE(listener.listen_depth(), cfg.listen_backlog);
      ASSERT_LE(listener.accept_depth(), cfg.accept_backlog);
    }

    const auto& c = listener.counters();
    EXPECT_EQ(c.established_total,
              c.established_queue + c.established_cookie + c.established_puzzle);
    EXPECT_GE(c.synacks_sent,
              c.challenges_sent + c.cookies_sent);
    EXPECT_GE(c.solution_acks, c.solutions_valid + c.solutions_invalid +
                                   c.solutions_expired);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ListenerStormTest,
                         ::testing::Values(1ull, 7ull, 42ull, 1337ull));

}  // namespace
}  // namespace tcpz
