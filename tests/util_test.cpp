#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"
#include "util/timeseries.hpp"

namespace tcpz {
namespace {

// ---------------------------------------------------------------------------
// SimTime
// ---------------------------------------------------------------------------

TEST(SimTime, UnitConstructorsAgree) {
  EXPECT_EQ(SimTime::seconds(1).nanos(), 1'000'000'000);
  EXPECT_EQ(SimTime::milliseconds(1500).nanos(), 1'500'000'000);
  EXPECT_EQ(SimTime::microseconds(2).nanos(), 2'000);
  EXPECT_EQ(SimTime::nanoseconds(7).nanos(), 7);
}

TEST(SimTime, FromSecondsRoundsToNearest) {
  EXPECT_EQ(SimTime::from_seconds(1.5).nanos(), 1'500'000'000);
  EXPECT_EQ(SimTime::from_seconds(1e-9).nanos(), 1);
  EXPECT_EQ(SimTime::from_seconds(0.4e-9).nanos(), 0);
}

TEST(SimTime, Arithmetic) {
  const SimTime a = SimTime::seconds(2);
  const SimTime b = SimTime::milliseconds(500);
  EXPECT_EQ((a + b).to_seconds(), 2.5);
  EXPECT_EQ((a - b).to_seconds(), 1.5);
  EXPECT_EQ((b * 4).to_seconds(), 2.0);
  EXPECT_LT(b, a);
  EXPECT_EQ(a, SimTime::seconds(2));
}

TEST(SimTime, ToStringPicksUnit) {
  EXPECT_EQ(SimTime::seconds(2).to_string(), "2.000s");
  EXPECT_EQ(SimTime::milliseconds(3).to_string(), "3.000ms");
  EXPECT_EQ(SimTime::microseconds(5).to_string(), "5.000us");
  EXPECT_EQ(SimTime::nanoseconds(9).to_string(), "9ns");
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next() == b.next());
  EXPECT_LE(equal, 1);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformU64Unbiased) {
  Rng rng(9);
  std::array<int, 5> counts{};
  constexpr int kDraws = 50'000;
  for (int i = 0; i < kDraws; ++i) counts[rng.uniform_u64(5)]++;
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 5, kDraws / 5 * 0.1);
  }
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 100'000; ++i) stats.add(rng.exponential(20.0));
  EXPECT_NEAR(stats.mean(), 1.0 / 20.0, 0.002);
}

TEST(Rng, GeometricMeanIsInverseP) {
  // The solve-cost distribution: mean must be 1/p = 2^m.
  Rng rng(13);
  const double p = 1.0 / 256.0;
  RunningStats stats;
  for (int i = 0; i < 200'000; ++i) {
    stats.add(static_cast<double>(rng.geometric(p)));
  }
  EXPECT_NEAR(stats.mean(), 256.0, 256.0 * 0.02);
}

TEST(Rng, GeometricSupportStartsAtOne) {
  Rng rng(15);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.geometric(0.99), 1u);
  EXPECT_EQ(rng.geometric(1.0), 1u);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 100'000; ++i) stats.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (parent.next() == child.next());
  EXPECT_LE(equal, 1);
}

// ---------------------------------------------------------------------------
// RunningStats / SampleSet / Boxplot / Histogram
// ---------------------------------------------------------------------------

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(1);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal();
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.count(), all.count());
}

TEST(SampleSet, QuantilesAndCdf) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.median(), 50.5);
  EXPECT_NEAR(s.quantile(0.25), 25.75, 1e-9);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  const auto cdf = s.cdf_at({0.0, 50.0, 100.0, 200.0});
  EXPECT_DOUBLE_EQ(cdf[0], 0.0);
  EXPECT_DOUBLE_EQ(cdf[1], 0.5);
  EXPECT_DOUBLE_EQ(cdf[2], 1.0);
  EXPECT_DOUBLE_EQ(cdf[3], 1.0);
}

TEST(SampleSet, InterleavedAddAndQuery) {
  SampleSet s;
  s.add(3);
  EXPECT_EQ(s.median(), 3.0);
  s.add(1);
  s.add(2);
  EXPECT_EQ(s.median(), 2.0);  // sort cache invalidated correctly
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 3.0);
}

TEST(BoxplotStats, FiveNumberSummary) {
  SampleSet s;
  for (int i = 1; i <= 9; ++i) s.add(i);
  const auto b = BoxplotStats::from(s);
  EXPECT_EQ(b.min, 1.0);
  EXPECT_EQ(b.median, 5.0);
  EXPECT_EQ(b.max, 9.0);
  EXPECT_EQ(b.q1, 3.0);
  EXPECT_EQ(b.q3, 7.0);
  EXPECT_EQ(b.count, 9u);
}

TEST(Histogram, ClampsOutOfRange) {
  Histogram h(0.0, 10.0, 10);
  h.add(-5.0);
  h.add(15.0);
  h.add(5.5);
  EXPECT_EQ(h.count(0), 1.0);
  EXPECT_EQ(h.count(9), 1.0);
  EXPECT_EQ(h.count(5), 1.0);
  EXPECT_EQ(h.total(), 3.0);
}

TEST(Histogram, RejectsDegenerateConfig) {
  EXPECT_THROW(Histogram(0.0, 0.0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// TimeSeries / GaugeSeries
// ---------------------------------------------------------------------------

TEST(TimeSeries, BinsByTime) {
  TimeSeries ts;
  ts.add(SimTime::milliseconds(100), 10.0);
  ts.add(SimTime::milliseconds(900), 5.0);
  ts.add(SimTime::milliseconds(1000), 1.0);
  EXPECT_EQ(ts.total(0), 15.0);
  EXPECT_EQ(ts.total(1), 1.0);
  EXPECT_EQ(ts.rate_at(0), 15.0);
}

TEST(TimeSeries, MeanRateCountsMissingBinsAsZero) {
  TimeSeries ts;
  ts.add(SimTime::seconds(0), 10.0);
  EXPECT_DOUBLE_EQ(ts.mean_rate(0, 10), 1.0);
}

TEST(TimeSeries, NegativeTimeIgnored) {
  TimeSeries ts;
  ts.add(SimTime::nanoseconds(-5), 1.0);
  EXPECT_EQ(ts.bins(), 0u);
}

TEST(GaugeSeries, WindowQueries) {
  GaugeSeries g;
  g.record(SimTime::seconds(1), 10.0);
  g.record(SimTime::seconds(2), 20.0);
  g.record(SimTime::seconds(3), 30.0);
  EXPECT_EQ(g.max_in(SimTime::seconds(1), SimTime::seconds(2)), 20.0);
  EXPECT_EQ(g.mean_in(SimTime::seconds(1), SimTime::seconds(3)), 20.0);
  EXPECT_EQ(g.mean_in(SimTime::seconds(10), SimTime::seconds(20)), 0.0);
}

// ---------------------------------------------------------------------------
// bytes
// ---------------------------------------------------------------------------

TEST(Bytes, BigEndianRoundTrip) {
  Bytes b;
  put_u16be(b, 0x1234);
  put_u32be(b, 0xdeadbeef);
  put_u64be(b, 0x0123456789abcdefull);
  std::uint16_t v16;
  std::uint32_t v32;
  std::uint64_t v64;
  ASSERT_TRUE(get_u16be(b, 0, v16));
  ASSERT_TRUE(get_u32be(b, 2, v32));
  ASSERT_TRUE(get_u64be(b, 6, v64));
  EXPECT_EQ(v16, 0x1234);
  EXPECT_EQ(v32, 0xdeadbeefu);
  EXPECT_EQ(v64, 0x0123456789abcdefull);
}

TEST(Bytes, TruncatedReadsFail) {
  Bytes b = {0x01, 0x02};
  std::uint32_t v32 = 99;
  EXPECT_FALSE(get_u32be(b, 0, v32));
  EXPECT_EQ(v32, 99u);  // untouched on failure
  std::uint16_t v16;
  EXPECT_FALSE(get_u16be(b, 1, v16));
}

TEST(Bytes, HexRoundTrip) {
  const Bytes b = {0x00, 0x7f, 0xff, 0xa5};
  EXPECT_EQ(to_hex(b), "007fffa5");
  EXPECT_EQ(from_hex("007fffa5"), b);
  EXPECT_EQ(from_hex("007FFFA5"), b);
}

TEST(Bytes, FromHexRejectsGarbage) {
  EXPECT_TRUE(from_hex("abc").empty());   // odd length
  EXPECT_TRUE(from_hex("zz").empty());    // non-hex
}

TEST(Bytes, ConstantTimeEqual) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {1, 2, 3};
  const Bytes c = {1, 2, 4};
  const Bytes d = {1, 2};
  EXPECT_TRUE(ct_equal(a, b));
  EXPECT_FALSE(ct_equal(a, c));
  EXPECT_FALSE(ct_equal(a, d));
}

TEST(Rng, DeriveSeedIsAPureFunctionOfRootAndStreamId) {
  // Same (root, id) -> same seed, regardless of any other derivation that
  // happened before: this is what lets the scenario engine add or remove
  // agents without perturbing anyone else's stream.
  const std::uint64_t a = Rng::derive_seed(42, 7);
  (void)Rng::derive_seed(42, 1);
  (void)Rng::derive_seed(99, 7);
  EXPECT_EQ(Rng::derive_seed(42, 7), a);
}

TEST(Rng, DerivedStreamsAreDecorrelated) {
  // Adjacent stream ids (and adjacent roots) must give streams that do not
  // collide on their prefixes.
  Rng a = Rng::derive(42, 1);
  Rng b = Rng::derive(42, 2);
  Rng c = Rng::derive(43, 1);
  int equal_ab = 0, equal_ac = 0;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t x = a.next();
    if (x == b.next()) ++equal_ab;
    if (x == c.next()) ++equal_ac;
  }
  EXPECT_EQ(equal_ab, 0);
  EXPECT_EQ(equal_ac, 0);
  // And a derived stream reproduces itself.
  Rng d1 = Rng::derive(42, 1);
  Rng d2 = Rng::derive(42, 1);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(d1.next(), d2.next());
}

}  // namespace
}  // namespace tcpz
