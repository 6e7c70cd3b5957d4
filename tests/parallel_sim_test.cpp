// Sharded-engine (src/par/) correctness pins.
//
//  * shards == 1 is byte-identical to the single-thread scenario::run —
//    including against the golden digest the scenario trace tests pin.
//  * A fixed (seed, shards) pair is deterministic across repeats, for both
//    result digests and the merged flight-recorder trace, at N in {2,4,8},
//    and reproduces pinned golden digests (agent placement and cross-shard
//    injection order cannot drift unnoticed).
//  * Sharded runs are statistically equivalent to the single-thread run
//    (derived RNG streams are shard-count-independent; only cross-shard
//    queueing is approximated).
//  * Cross-shard delivery ordering: draining mailboxes in fixed source
//    order and scheduling into the simulator reproduces a reference
//    model's (time, drain-order) total order.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <vector>

#include "defense/spec.hpp"
#include "net/simulator.hpp"
#include "offense/spec.hpp"
#include "par/engine.hpp"
#include "par/mailbox.hpp"
#include "scenario/engine.hpp"
#include "scenario/spec.hpp"
#include "trace_digest.hpp"

namespace tcpz {
namespace {

using tracedigest::full_digest;

/// A two-server, multi-group scenario with derived seeding — agents land on
/// every shard for all tested shard counts. WAN-scale link delay keeps the
/// round count (duration / lookahead) test-sized.
scenario::Spec par_fixture() {
  scenario::Spec s;
  s.duration = SimTime::seconds(20);
  s.attack_start = SimTime::seconds(5);
  s.attack_end = SimTime::seconds(15);
  s.net.link_delay = SimTime::milliseconds(5);
  s.workload.n_clients = 8;
  s.workload.request_rate = 10.0;
  s.workload.response_bytes = 20'000;
  s.servers.count = 2;
  s.servers.policies = {defense::PolicySpec::puzzles()};
  scenario::AttackSpec a;
  a.count = 6;
  a.rate = 200.0;
  a.strategy = offense::StrategySpec::conn_flood();
  s.attacks = {a};
  return s;
}

TEST(ParallelSim, SingleShardByteIdenticalToScenarioRun) {
  const scenario::Spec s = par_fixture();
  const scenario::Result single = scenario::run(s);
  const scenario::Result par1 = par::run(s, {.shards = 1});
  EXPECT_EQ(full_digest(single), full_digest(par1));
  EXPECT_EQ(single.events_processed, par1.events_processed);
}

// The same golden scenario_trace_test pins for the scaled conn-flood
// fixture: par::run at one shard reproduces it byte-for-byte, not merely
// "whatever scenario::run currently does".
TEST(ParallelSim, SingleShardReproducesGoldenTrace) {
  const scenario::Spec s = tracedigest::scaled_fixture(
      defense::PolicySpec::puzzles(), offense::StrategySpec::conn_flood());
  const std::uint64_t h = tracedigest::sim_digest(par::run(s, {.shards = 1}));
  EXPECT_EQ(h, tracedigest::kScaledConnFloodDigest)
      << "par 1-shard trace drifted from the golden; computed 0x" << std::hex
      << h;
}

class ParallelSimShards : public ::testing::TestWithParam<int> {};

/// Golden (full_digest, merged-trace digest, order-insensitive merged-trace
/// digest, merged-trace digest with the kEvent category masked off) of
/// par_fixture() at a shard count. Repeat-determinism alone cannot see a
/// change in agent placement or cross-shard injection order; these pins
/// can. When `trace` moves and `unordered_trace` does not, the change only
/// reordered events recorded at the same instant. `trace` and
/// `unordered_trace` also record the event core's own schedule/cancel/fire
/// tiers; `no_event_trace` records every decision but those, so it moves
/// only when what the run did moves, not when the core files events
/// differently.
struct ShardGolden {
  int shards;
  std::uint64_t result;
  std::uint64_t trace;
  std::uint64_t unordered_trace;
  std::uint64_t no_event_trace;
};
constexpr ShardGolden kShardGoldens[] = {
    {2, 0xe701a81ebb913119ull, 0x16240ad67dacd76aull, 0xcf2c244dd48a62d4ull,
     0x121844f09131532full},
    {4, 0x8d061e4093028054ull, 0xb2740a8b81507c88ull, 0xd6c28dd403ccd104ull,
     0x0702d78e580fce31ull},
    {8, 0xe0803323306d9296ull, 0x2205d14472a400aeull, 0x8231b8f880420472ull,
     0x0c3bef7756cff47full},
};

/// tracedigest::listener_digest() of par_fixture() traced on the listener
/// category alone (nothing wraps): which flows each listener enqueued,
/// retransmitted, expired and admitted in which tick. It is the same at
/// every shard count, and unlike the trace goldens above it does not depend
/// on the order a listener emits its retransmits within a tick.
constexpr std::uint64_t kListenerDigest = 0xb5bb63fc225bbc65ull;

/// full_digest of the 4-shard sharded-fleet fixture below.
constexpr std::uint64_t kShardedFleetDigest = 0xfbd164ab45e553fdull;

TEST_P(ParallelSimShards, FixedSeedAndShardsIsDeterministic) {
  const int n = GetParam();
  scenario::Spec s = par_fixture();
  s.obs.trace = true;  // pin the merged trace stream too
  const scenario::Result a = par::run(s, {.shards = n});
  const scenario::Result b = par::run(s, {.shards = n});
  EXPECT_EQ(full_digest(a), full_digest(b))
      << "result digest diverged across repeats at " << n << " shards";
  ASSERT_TRUE(a.trace && b.trace);
  EXPECT_EQ(a.trace->digest(), b.trace->digest())
      << "merged trace diverged across repeats at " << n << " shards";
  EXPECT_EQ(a.events_processed, b.events_processed);

  const auto* golden =
      std::find_if(std::begin(kShardGoldens), std::end(kShardGoldens),
                   [n](const ShardGolden& g) { return g.shards == n; });
  ASSERT_NE(golden, std::end(kShardGoldens));
  EXPECT_EQ(full_digest(a), golden->result)
      << "result digest drifted from the golden at " << n
      << " shards; computed 0x" << std::hex << full_digest(a);
  EXPECT_EQ(a.trace->digest(), golden->trace)
      << "merged trace drifted from the golden at " << n
      << " shards; computed 0x" << std::hex << a.trace->digest();
  EXPECT_EQ(tracedigest::unordered_digest(*a.trace), golden->unordered_trace)
      << "merged trace content drifted from the golden at " << n
      << " shards; computed 0x" << std::hex
      << tracedigest::unordered_digest(*a.trace);
}

TEST_P(ParallelSimShards, TraceWithoutEventCoreTiersMatchesGolden) {
  const int n = GetParam();
  scenario::Spec s = par_fixture();
  s.obs.trace = true;
  s.obs.categories = obs::kAllCategories & ~obs::cat_bit(obs::Cat::kEvent);
  const scenario::Result r = par::run(s, {.shards = n});
  ASSERT_TRUE(r.trace);
  const auto* golden =
      std::find_if(std::begin(kShardGoldens), std::end(kShardGoldens),
                   [n](const ShardGolden& g) { return g.shards == n; });
  ASSERT_NE(golden, std::end(kShardGoldens));
  EXPECT_EQ(r.trace->digest(), golden->no_event_trace)
      << "merged trace without kEvent drifted from the golden at " << n
      << " shards; computed 0x" << std::hex << r.trace->digest();
}

INSTANTIATE_TEST_SUITE_P(N, ParallelSimShards, ::testing::Values(2, 4, 8));

TEST(ParallelSim, ListenerHistoryIsShardCountIndependent) {
  scenario::Spec s = par_fixture();
  s.obs.trace = true;
  s.obs.categories = obs::cat_bit(obs::Cat::kListener);
  for (const int n : {1, 2, 4, 8}) {
    const scenario::Result r = par::run(s, {.shards = n});
    ASSERT_TRUE(r.trace);
    ASSERT_EQ(r.trace->overwritten(), 0u) << n << " shards";
    EXPECT_EQ(tracedigest::listener_digest(*r.trace), kListenerDigest)
        << "listener history drifted at " << n << " shards; computed 0x"
        << std::hex << tracedigest::listener_digest(*r.trace);
  }
}

TEST(ParallelSim, ShardedFleetIsDeterministic) {
  scenario::Spec s = par_fixture();
  s.fleet.enabled = true;
  s.fleet.rotation_interval = SimTime::seconds(10);
  s.fleet.rotation_overlap = SimTime::seconds(3);
  s.servers.count = 3;
  const scenario::Result a = par::run(s, {.shards = 4});
  const scenario::Result b = par::run(s, {.shards = 4});
  EXPECT_EQ(full_digest(a), full_digest(b));
  EXPECT_EQ(full_digest(a), kShardedFleetDigest)
      << "sharded fleet drifted from the golden; computed 0x" << std::hex
      << full_digest(a);
  EXPECT_GT(a.cluster.established_total, 0u);
  EXPECT_EQ(a.secret_rotations, b.secret_rotations);
  EXPECT_GT(a.secret_rotations, 0u);
}

// Derived RNG streams are shard-count-independent, and the paper-facing
// aggregates must agree between the sharded and single-thread runs up to
// the cross-shard queueing approximation.
TEST(ParallelSim, ShardedStatisticallyMatchesSingleThread) {
  const scenario::Spec s = par_fixture();
  const scenario::Result single = par::run(s, {.shards = 1});
  // Each role ledger, summed across shards, conserves its hosts' totals.
  const auto expect_ledgers_conserve = [](const scenario::Result& r, int n) {
    for (const tracedigest::LedgerSum& c : tracedigest::ledger_sums(r)) {
      EXPECT_EQ(c.ledger, c.hosts) << c.what << " at " << n << " shards";
    }
  };
  expect_ledgers_conserve(single, 1);
  for (const int n : {2, 4}) {
    const scenario::Result sharded = par::run(s, {.shards = n});
    expect_ledgers_conserve(sharded, n);

    // Bot emission is driven by per-bot RNG alone — attempts match almost
    // exactly (only feedback-dependent strategies could drift).
    const auto att1 = static_cast<double>(single.groups[0].total_attempts());
    const auto att2 = static_cast<double>(sharded.groups[0].total_attempts());
    EXPECT_NEAR(att2 / att1, 1.0, 0.05) << n << " shards";

    const double pct1 = single.client_success_pct(0, s.duration_bins());
    const double pct2 = sharded.client_success_pct(0, s.duration_bins());
    EXPECT_NEAR(pct1, pct2, 10.0) << n << " shards";

    const auto est1 = static_cast<double>(single.cluster.established_total);
    const auto est2 = static_cast<double>(sharded.cluster.established_total);
    EXPECT_NEAR(est2 / est1, 1.0, 0.15) << n << " shards";
  }
}

// Every roster address belongs to one agent, or the topology's directory
// would refuse it: past 65,535 clients the client block continues clear of
// the bots' 10.3/16.
TEST(ParallelSim, RosterAddressesStayUniquePastOneBlock) {
  scenario::Spec s = par_fixture();
  s.workload.n_clients = 100'000;
  s.attacks[0].count = 2'000;
  const std::vector<scenario::Agent> agents = scenario::roster(s);
  std::unordered_set<std::uint32_t> addrs;
  for (const scenario::Agent& a : agents) addrs.insert(a.addr);
  EXPECT_EQ(addrs.size(), agents.size());
}

TEST(ParallelSim, RejectsBadLookahead) {
  scenario::Spec d = par_fixture();
  // The lookahead is net.link_delay; a zero bound would never advance.
  d.net.link_delay = SimTime::zero();
  EXPECT_THROW((void)par::run(d, {.shards = 2}), std::invalid_argument);
}

// Reference-model pin for cross-shard delivery: mailbox drain (fixed source
// order, FIFO within a box) followed by simulator scheduling must fire
// messages in exactly the order a reference sort by (time, source, FIFO)
// predicts — the property that makes barrier injection deterministic.
TEST(ParallelSim, MailboxDrainMatchesReferenceOrder) {
  constexpr int kShards = 3;  // me = shard 0; sources 1 and 2
  struct Ref {
    SimTime at;
    int src;
    int fifo;
    int id;
  };
  std::vector<Ref> pushed;
  par::Mailbox boxes[kShards];
  int id = 0;
  // Interleaved times, including exact ties across sources.
  const std::int64_t times_us[] = {700, 100, 400, 100, 900, 400, 400, 250};
  for (int src = 1; src < kShards; ++src) {
    for (int f = 0; f < 4; ++f) {
      const SimTime at =
          SimTime::microseconds(times_us[(src - 1) * 4 + f] + 1000);
      tcp::Segment seg{};
      seg.saddr = static_cast<std::uint32_t>(id);
      boxes[src].msgs.push_back({at, seg});
      pushed.push_back({at, src, f, id});
      ++id;
    }
  }

  net::Simulator sim;
  std::vector<int> fired;
  for (int src = 1; src < kShards; ++src) {
    for (const par::ShardMsg& m : boxes[src].msgs) {
      const int mid = static_cast<int>(m.seg.saddr);
      sim.schedule_at(m.at, [&fired, mid] { fired.push_back(mid); });
    }
    boxes[src].msgs.clear();
  }
  sim.run();

  // Reference: time-major, then source, then FIFO position (= stable sort
  // by time over the drain order).
  std::stable_sort(pushed.begin(), pushed.end(),
                   [](const Ref& a, const Ref& b) { return a.at < b.at; });
  std::vector<int> expect;
  for (const Ref& r : pushed) expect.push_back(r.id);
  EXPECT_EQ(fired, expect);
}

// The sense-reversing barrier separates phases: writes made before an
// arrival are visible after the matching release on every other thread.
TEST(ParallelSim, SpinBarrierSeparatesPhases) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  par::SpinBarrier barrier(kThreads);
  std::vector<std::uint64_t> cells(kThreads, 0);
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      bool sense = false;
      for (int r = 0; r < kRounds; ++r) {
        cells[t] += 1;  // write phase: each thread owns its own cell
        barrier.arrive_and_wait(sense);
        // read phase: every thread must observe every cell at r + 1
        for (int o = 0; o < kThreads; ++o) {
          if (cells[o] != static_cast<std::uint64_t>(r) + 1) ++failures[t];
        }
        barrier.arrive_and_wait(sense);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;
}

}  // namespace
}  // namespace tcpz
