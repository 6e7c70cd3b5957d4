// Fleet subsystem tests: load-balancer dispatch policies and failover,
// cross-replica stateless verification, secret rotation with the overlap
// window, the cluster replay cache, and end-to-end fleet scenarios
// (balanced service, partial adoption leakage, rotation under load).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "crypto/secret.hpp"
#include "defense/spec.hpp"
#include "fleet/load_balancer.hpp"
#include "fleet/replay_cache.hpp"
#include "fleet/secret_directory.hpp"
#include "net/topology.hpp"
#include "offense/spec.hpp"
#include "policy_fixtures.hpp"
#include "puzzle/engine.hpp"
#include "scenario/spec.hpp"
#include "tcp/connector.hpp"
#include "tcp/listener.hpp"

namespace tcpz::fleet {
namespace {

constexpr std::uint32_t kVip = tcp::ipv4(10, 1, 0, 1);
constexpr std::uint16_t kPort = 80;
constexpr std::uint32_t kClientAddr = tcp::ipv4(10, 2, 0, 1);

// ---------------------------------------------------------------------------
// LoadBalancer dispatch (driven through a real mini-topology)
// ---------------------------------------------------------------------------

struct MiniFleet {
  net::Simulator sim;
  net::Topology topo{sim};
  LoadBalancer* lb = nullptr;
  std::vector<net::Host*> replicas;
  net::Host* client = nullptr;
  std::vector<int> delivered;  ///< segments seen per replica

  explicit MiniFleet(BalancePolicy policy, int n_replicas = 3) {
    LoadBalancerConfig cfg;
    cfg.vip = kVip;
    cfg.policy = policy;
    lb = static_cast<LoadBalancer*>(
        topo.add_node(std::make_unique<LoadBalancer>(sim, cfg)));
    topo.advertise(lb, kVip);
    delivered.assign(static_cast<std::size_t>(n_replicas), 0);
    for (int i = 0; i < n_replicas; ++i) {
      net::Host* h = topo.add_host(kVip, /*advertise=*/false);
      auto [fwd, rev] = topo.connect(lb, h, {});
      (void)rev;
      lb->add_backend(fwd);
      h->set_handler([this, i](SimTime, const tcp::Segment&) {
        ++delivered[static_cast<std::size_t>(i)];
      });
      replicas.push_back(h);
    }
    client = topo.add_host(kClientAddr);
    topo.connect(client, lb, {});
    topo.compute_routes();
  }

  void send_syn(std::uint16_t sport) {
    tcp::Segment s;
    s.saddr = kClientAddr;
    s.daddr = kVip;
    s.sport = sport;
    s.dport = kPort;
    s.seq = 1;
    s.flags = tcp::kSyn;
    client->send(s);
    sim.run();
  }
};

TEST(LoadBalancer, RoundRobinCyclesNewFlows) {
  MiniFleet f(BalancePolicy::kRoundRobin);
  for (std::uint16_t p = 1000; p < 1006; ++p) f.send_syn(p);
  EXPECT_EQ(f.delivered[0], 2);
  EXPECT_EQ(f.delivered[1], 2);
  EXPECT_EQ(f.delivered[2], 2);
}

TEST(LoadBalancer, RoundRobinKeepsFlowAffinity) {
  MiniFleet f(BalancePolicy::kRoundRobin);
  for (int rep = 0; rep < 4; ++rep) f.send_syn(1000);  // same flow 4x
  EXPECT_EQ(f.delivered[0], 4);
  EXPECT_EQ(f.delivered[1], 0);
}

TEST(LoadBalancer, HashIsDeterministicPerFlow) {
  MiniFleet f(BalancePolicy::kFiveTupleHash);
  for (int rep = 0; rep < 5; ++rep) f.send_syn(4242);
  int nonzero = 0;
  for (const int d : f.delivered) {
    if (d > 0) {
      ++nonzero;
      EXPECT_EQ(d, 5);  // all five copies on one replica
    }
  }
  EXPECT_EQ(nonzero, 1);
}

TEST(LoadBalancer, HashSpreadsDistinctFlows) {
  MiniFleet f(BalancePolicy::kFiveTupleHash);
  for (std::uint16_t p = 1000; p < 1064; ++p) f.send_syn(p);
  int nonzero = 0;
  for (const int d : f.delivered) nonzero += d > 0 ? 1 : 0;
  EXPECT_GE(nonzero, 2);  // 64 flows across 3 replicas: all busy w.h.p.
}

TEST(LoadBalancer, LeastConnectionsBalancesWithinOne) {
  MiniFleet f(BalancePolicy::kLeastConnections);
  for (std::uint16_t p = 1000; p < 1007; ++p) f.send_syn(p);
  int lo = f.delivered[0], hi = f.delivered[0];
  for (const int d : f.delivered) {
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  EXPECT_LE(hi - lo, 1);
}

TEST(LoadBalancer, FailoverEvictsAndReassigns) {
  MiniFleet f(BalancePolicy::kRoundRobin, 2);
  f.send_syn(1000);  // round-robin: lands on replica 0
  ASSERT_EQ(f.delivered[0], 1);
  f.lb->set_backend_up(0, false);
  EXPECT_EQ(f.lb->failover_evictions(), 1u);  // tracked flow evicted
  f.send_syn(1000);                      // retransmission re-dispatches
  EXPECT_EQ(f.delivered[0], 1);
  EXPECT_EQ(f.delivered[1], 1);
  f.lb->set_backend_up(0, true);
  f.send_syn(2000);  // new flow can use replica 0 again
  EXPECT_EQ(f.delivered[0] + f.delivered[1], 3);
}

TEST(LoadBalancer, AllBackendsDownDrops) {
  MiniFleet f(BalancePolicy::kFiveTupleHash, 2);
  f.lb->set_backend_up(0, false);
  f.lb->set_backend_up(1, false);
  f.send_syn(1000);
  EXPECT_EQ(f.lb->no_backend_drops(), 1u);
  EXPECT_EQ(f.delivered[0] + f.delivered[1], 0);
}

// ---------------------------------------------------------------------------
// Cross-replica stateless verification (the property that makes the fleet
// work at all): a solution minted for replica A's challenge verifies on B.
// ---------------------------------------------------------------------------

struct ReplicaPair {
  crypto::SecretKey secret = crypto::SecretKey::from_seed(7);
  std::shared_ptr<puzzle::OraclePuzzleEngine> engine =
      std::make_shared<puzzle::OraclePuzzleEngine>(
          secret, puzzle::EngineConfig{4, 4000});
  std::unique_ptr<tcp::Listener> a, b;

  ReplicaPair() {
    tcp::ListenerConfig cfg;
    cfg.local_addr = kVip;
    cfg.local_port = kPort;
    cfg.policy = fixtures::always_puzzles().factory();
    a = std::make_unique<tcp::Listener>(cfg, secret, 1, engine);
    b = std::make_unique<tcp::Listener>(cfg, secret, 2, engine);
  }

  /// SYN -> A's challenge -> solve -> the solution ACK (not yet delivered).
  tcp::Segment minted_solution_ack(std::uint16_t sport, SimTime now,
                                   tcp::Connector& conn) {
    auto out = conn.start(now);
    auto synacks = a->on_segment(now, out.segments.at(0));
    out = conn.on_segment(now, synacks.at(0));
    EXPECT_TRUE(out.solve.has_value()) << "no challenge for sport " << sport;
    std::uint64_t ops = 0;
    Rng rng(sport);
    const auto sol = engine->solve(*out.solve, conn.flow_binding(), rng, ops);
    out = conn.on_solved(now, sol);
    return out.segments.at(0);
  }

  static tcp::Connector make_connector(std::uint16_t sport) {
    tcp::ConnectorConfig ccfg;
    ccfg.local_addr = kClientAddr;
    ccfg.local_port = sport;
    ccfg.remote_addr = kVip;
    ccfg.remote_port = kPort;
    return tcp::Connector(ccfg, sport);
  }
};

TEST(CrossReplica, SolutionMintedOnAVerifiesOnB) {
  ReplicaPair fleet;
  const SimTime now = SimTime::seconds(1);
  auto conn = ReplicaPair::make_connector(2000);
  const tcp::Segment ack = fleet.minted_solution_ack(2000, now, conn);

  // Failover: the ACK lands on replica B, which never saw the challenge.
  (void)fleet.b->on_segment(now, ack);
  EXPECT_EQ(fleet.b->counters().solutions_valid, 1u);
  EXPECT_EQ(fleet.b->counters().established_puzzle, 1u);
  EXPECT_EQ(fleet.a->counters().established_puzzle, 0u);
}

TEST(CrossReplica, ReplayAcrossReplicasRejectedWithSharedCache) {
  ReplicaPair fleet;
  ReplayCache cache(5000);
  const auto filter = [&cache](const tcp::FlowKey& flow, std::uint32_t ts,
                               std::uint32_t now_ms) {
    return cache.check_and_insert(flow, ts, now_ms);
  };
  fleet.a->set_replay_filter(filter);
  fleet.b->set_replay_filter(filter);

  const SimTime now = SimTime::seconds(1);
  auto conn = ReplicaPair::make_connector(2001);
  const tcp::Segment ack = fleet.minted_solution_ack(2001, now, conn);

  (void)fleet.a->on_segment(now, ack);  // legitimate admission on A
  EXPECT_EQ(fleet.a->counters().established_puzzle, 1u);

  (void)fleet.b->on_segment(now, ack);  // replayed verbatim at B
  EXPECT_EQ(fleet.b->counters().established_puzzle, 0u);
  EXPECT_EQ(fleet.b->counters().solutions_duplicate, 1u);
  EXPECT_EQ(fleet.b->counters().solutions_replay_filtered, 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(CrossReplica, WithoutSharedCacheReplayLandsOnB) {
  // Documents the gap the cache closes: pure statelessness admits the
  // replayed solution on a second replica.
  ReplicaPair fleet;
  const SimTime now = SimTime::seconds(1);
  auto conn = ReplicaPair::make_connector(2002);
  const tcp::Segment ack = fleet.minted_solution_ack(2002, now, conn);
  (void)fleet.a->on_segment(now, ack);
  (void)fleet.b->on_segment(now, ack);
  EXPECT_EQ(fleet.a->counters().established_puzzle, 1u);
  EXPECT_EQ(fleet.b->counters().established_puzzle, 1u);
}

// ---------------------------------------------------------------------------
// Secret rotation: overlap window, expiry, determinism
// ---------------------------------------------------------------------------

struct RotatingFleet {
  SecretDirectory directory;
  std::unique_ptr<tcp::Listener> a, b;

  RotatingFleet()
      : directory([] {
          SecretDirectoryConfig cfg;
          cfg.seed = 7;
          cfg.engine = puzzle::EngineConfig{4, 60'000};  // long expiry:
          // the tests below isolate *rotation* rejection from *puzzle* expiry.
          return cfg;
        }()) {
    tcp::ListenerConfig cfg;
    cfg.local_addr = kVip;
    cfg.local_port = kPort;
    cfg.policy = fixtures::always_puzzles().factory();
    a = std::make_unique<tcp::Listener>(cfg, directory.current_secret(), 1,
                                        directory.current_engine());
    b = std::make_unique<tcp::Listener>(cfg, directory.current_secret(), 2,
                                        directory.current_engine());
    directory.subscribe(a.get());
    directory.subscribe(b.get());
  }

  tcp::Segment minted_solution_ack(std::uint16_t sport, SimTime now,
                                   tcp::Connector& conn) {
    auto out = conn.start(now);
    auto synacks = a->on_segment(now, out.segments.at(0));
    out = conn.on_segment(now, synacks.at(0));
    EXPECT_TRUE(out.solve.has_value());
    std::uint64_t ops = 0;
    Rng rng(sport);
    const auto sol = directory.current_engine()->solve(
        *out.solve, conn.flow_binding(), rng, ops);
    out = conn.on_solved(now, sol);
    return out.segments.at(0);
  }
};

TEST(SecretRotation, OverlapWindowAcceptsPreviousEpochOnEveryReplica) {
  RotatingFleet fleet;
  const SimTime t0 = SimTime::seconds(1);
  auto conn_a = ReplicaPair::make_connector(3000);
  auto conn_b = ReplicaPair::make_connector(3001);
  const tcp::Segment ack_a = fleet.minted_solution_ack(3000, t0, conn_a);
  const tcp::Segment ack_b = fleet.minted_solution_ack(3001, t0, conn_b);

  fleet.directory.rotate();
  EXPECT_EQ(fleet.a->secret_epoch(), 1u);
  EXPECT_EQ(fleet.a->counters().secret_rotations, 1u);

  // Solutions minted under epoch 0 verify on both replicas in the overlap.
  const SimTime t1 = SimTime::seconds(2);
  (void)fleet.a->on_segment(t1, ack_a);
  (void)fleet.b->on_segment(t1, ack_b);
  EXPECT_EQ(fleet.a->counters().established_puzzle, 1u);
  EXPECT_EQ(fleet.a->counters().solutions_valid_prev_epoch, 1u);
  EXPECT_EQ(fleet.b->counters().established_puzzle, 1u);
  EXPECT_EQ(fleet.b->counters().solutions_valid_prev_epoch, 1u);
}

TEST(SecretRotation, PreviousEpochRejectedAfterOverlapExpiry) {
  RotatingFleet fleet;
  const SimTime t0 = SimTime::seconds(1);
  auto conn = ReplicaPair::make_connector(3002);
  const tcp::Segment ack = fleet.minted_solution_ack(3002, t0, conn);

  fleet.directory.rotate();
  fleet.directory.expire_overlap();
  EXPECT_FALSE(fleet.a->has_previous_secret());

  (void)fleet.a->on_segment(SimTime::seconds(2), ack);
  EXPECT_EQ(fleet.a->counters().established_puzzle, 0u);
  // Without the previous secret the ACK no longer matches any stateless ISS.
  EXPECT_EQ(fleet.a->counters().solutions_bad_ackno, 1u);
}

TEST(SecretRotation, CurrentEpochMintsAndVerifiesAfterRotation) {
  RotatingFleet fleet;
  fleet.directory.rotate();
  fleet.directory.expire_overlap();

  const SimTime now = SimTime::seconds(3);
  auto conn = ReplicaPair::make_connector(3003);
  const tcp::Segment ack = fleet.minted_solution_ack(3003, now, conn);
  (void)fleet.b->on_segment(now, ack);  // cross-replica, post-rotation
  EXPECT_EQ(fleet.b->counters().established_puzzle, 1u);
  EXPECT_EQ(fleet.b->counters().solutions_valid_prev_epoch, 0u);
}

TEST(SecretRotation, ReplayStaysRejectedAcrossRotation) {
  RotatingFleet fleet;
  ReplayCache cache(120'000);
  const auto filter = [&cache](const tcp::FlowKey& flow, std::uint32_t ts,
                               std::uint32_t now_ms) {
    return cache.check_and_insert(flow, ts, now_ms);
  };
  fleet.a->set_replay_filter(filter);
  fleet.b->set_replay_filter(filter);

  const SimTime t0 = SimTime::seconds(1);
  auto conn = ReplicaPair::make_connector(3004);
  const tcp::Segment ack = fleet.minted_solution_ack(3004, t0, conn);
  (void)fleet.a->on_segment(t0, ack);
  ASSERT_EQ(fleet.a->counters().established_puzzle, 1u);

  fleet.directory.rotate();  // replay arrives after the fleet rotated
  (void)fleet.b->on_segment(SimTime::seconds(2), ack);
  EXPECT_EQ(fleet.b->counters().established_puzzle, 0u);
  EXPECT_EQ(fleet.b->counters().solutions_replay_filtered, 1u);
}

TEST(SecretDirectory, DeterministicAndDistinctEpochs) {
  SecretDirectoryConfig cfg;
  cfg.seed = 42;
  SecretDirectory d1(cfg), d2(cfg);
  EXPECT_TRUE(d1.current_secret() == d2.current_secret());
  const crypto::SecretKey epoch0 = d1.current_secret();
  d1.rotate();
  d2.rotate();
  EXPECT_TRUE(d1.current_secret() == d2.current_secret());
  EXPECT_FALSE(d1.current_secret() == epoch0);
}

TEST(ReplayCache, ExpiresEntriesWithTheChallengeWindow) {
  ReplayCache cache(4000);
  const tcp::FlowKey flow{kClientAddr, 4000, kVip, kPort};
  EXPECT_FALSE(cache.check_and_insert(flow, 1000, 1000));
  EXPECT_TRUE(cache.check_and_insert(flow, 1000, 2000));  // replay inside ttl
  EXPECT_EQ(cache.size(), 1u);
  // Past the ttl the entry is gone (the challenge can no longer verify, so
  // forgetting it is safe) and memory stays bounded.
  EXPECT_FALSE(cache.check_and_insert(flow, 1000, 6000));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(ReplayCache, HardCapShedsOldestFirst) {
  // TTL far in the future: only the capacity bound can evict.
  ReplayCache cache(/*ttl_ms=*/1'000'000, /*max_entries=*/4);
  tcp::FlowKey flow{kClientAddr, 0, kVip, kPort};
  for (std::uint16_t p = 1; p <= 6; ++p) {
    flow.rport = p;
    EXPECT_FALSE(cache.check_and_insert(flow, p, 1000u + p));
    EXPECT_LE(cache.size(), 4u);
  }
  EXPECT_EQ(cache.evictions(), 2u);
  // The two oldest are gone (re-insert instead of hit)...
  flow.rport = 1;
  EXPECT_FALSE(cache.check_and_insert(flow, 1, 2000));
  // ...while the newest survivors are still replays.
  flow.rport = 6;
  EXPECT_TRUE(cache.check_and_insert(flow, 6, 2000));
}

TEST(ReplayCache, PropertyBoundedAndConsistentUnderSkewedWrappingClocks) {
  // Replicas feed the shared cache with skewed clocks (+-500 ms here), so
  // now_ms is non-monotone, and the run crosses the 32-bit millisecond wrap.
  // Properties: (1) the FIFO and the map never desynchronize, (2) memory
  // stays bounded by admission-rate x (ttl + skew), (3) a solution admitted
  // recently enough that no replica can have expired it is ALWAYS detected
  // as a replay — the security property the fleet pays memory for.
  constexpr std::uint32_t kTtlMs = 3'000;
  constexpr std::uint32_t kSkewMs = 500;
  ReplayCache cache(kTtlMs);
  Rng rng(99);
  // True time starts 60 s before the wrap and advances ~10 ms per step.
  std::uint64_t true_ms = (1ull << 32) - 60'000;
  std::vector<std::pair<tcp::FlowKey, std::uint32_t>> recent;  // ring buffer
  std::size_t max_size = 0;

  for (int step = 0; step < 20'000; ++step) {
    true_ms += rng.uniform_u64(20);
    const auto now = static_cast<std::uint32_t>(
        true_ms + rng.uniform_u64(2 * kSkewMs) - kSkewMs);
    tcp::FlowKey flow{kClientAddr + static_cast<std::uint32_t>(
                                        rng.uniform_u64(1u << 16)),
                      static_cast<std::uint16_t>(1024 + rng.uniform_u64(60'000)),
                      kVip, kPort};
    const auto ts = static_cast<std::uint32_t>(true_ms);
    if (!cache.check_and_insert(flow, ts, now)) {
      recent.emplace_back(flow, ts);
    }
    // Immediate duplicate must always hit.
    ASSERT_TRUE(cache.check_and_insert(flow, ts, now)) << "step " << step;

    if (step % 64 == 0 && recent.size() > 100) {
      // A key admitted ~100 insertions (~1-2 s of true time) ago is younger
      // than ttl - skew from every replica's perspective: must still hit.
      const auto& [f, t] = recent[recent.size() - 100];
      ASSERT_TRUE(cache.check_and_insert(f, t, now)) << "step " << step;
      recent.erase(recent.begin(), recent.end() - 100);
    }
    ASSERT_EQ(cache.order_size(), cache.size()) << "FIFO/map desync, step "
                                                << step;
    max_size = std::max(max_size, cache.size());
  }
  // ~1 admission / 10 ms over a (ttl + 2*skew) = 4 s window ≈ 400 live
  // entries; 3x margin for arrival bursts.
  EXPECT_LE(max_size, 1200u);
  EXPECT_GT(max_size, 100u);  // the flood actually filled the cache
  EXPECT_EQ(cache.evictions(), 0u);  // TTL, not the cap, did the bounding
}

// ---------------------------------------------------------------------------
// Least-connections flow table under a spoofed-SYN flood: handshakes never
// complete, no FIN/RST ever ends a tracked flow — only the idle sweep keeps
// flows_ bounded.
// ---------------------------------------------------------------------------

TEST(LoadBalancer, IdleSweepBoundsFlowTableUnderSpoofedSynFlood) {
  net::Simulator sim;
  net::Topology topo(sim);
  LoadBalancerConfig cfg;
  cfg.vip = kVip;
  cfg.policy = BalancePolicy::kLeastConnections;
  cfg.flow_idle_timeout = SimTime::seconds(2);
  cfg.sweep_interval = SimTime::seconds(1);
  auto* lb = static_cast<LoadBalancer*>(
      topo.add_node(std::make_unique<LoadBalancer>(sim, cfg)));
  topo.advertise(lb, kVip);
  for (int i = 0; i < 2; ++i) {
    net::Host* h = topo.add_host(kVip, /*advertise=*/false);
    auto [fwd, rev] = topo.connect(lb, h, {});
    (void)rev;
    lb->add_backend(fwd);
    h->set_handler([](SimTime, const tcp::Segment&) {});  // sink
  }
  net::Host* zombie = topo.add_host(tcp::ipv4(100, 64, 0, 1));
  topo.connect(zombie, lb, {});
  topo.compute_routes();

  const SimTime duration = SimTime::seconds(60);
  lb->start(duration);

  // 200 spoofed SYNs/s for 50 s, every one from a fresh source: 10'000
  // distinct "flows" that never complete a handshake.
  constexpr int kRate = 200, kFloodSeconds = 50;
  for (int i = 0; i < kRate * kFloodSeconds; ++i) {
    sim.schedule_at(SimTime::milliseconds(1000ll * i / kRate), [zombie, i] {
      tcp::Segment syn;
      syn.saddr = tcp::ipv4(100, 64, 0, 2) + static_cast<std::uint32_t>(i);
      syn.sport = static_cast<std::uint16_t>(1024 + (i % 60'000));
      syn.daddr = kVip;
      syn.dport = kPort;
      syn.seq = static_cast<std::uint32_t>(i);
      syn.flags = tcp::kSyn;
      zombie->send(syn);
    });
  }
  std::size_t max_table = 0;
  std::function<void()> sampler = [&] {
    max_table = std::max(max_table, lb->flow_table_size());
    if (sim.now() < duration) sim.schedule_in(SimTime::milliseconds(100), sampler);
  };
  sim.schedule_at(SimTime::zero(), sampler);
  sim.run_until(duration);

  // Steady-state bound: rate x (idle_timeout + sweep_interval) = 600 flows,
  // nowhere near the 10'000 the flood injected.
  EXPECT_LE(max_table, 650u);
  EXPECT_GE(max_table, 400u);  // the flood genuinely pressured the table
  // Once the flood stops, the sweep drains everything and the per-backend
  // connection counters return to zero (no leaked `active` accounting).
  EXPECT_EQ(lb->flow_table_size(), 0u);
  EXPECT_EQ(lb->tracked_connections(0), 0);
  EXPECT_EQ(lb->tracked_connections(1), 0);
}

// ---------------------------------------------------------------------------
// End-to-end fleet scenarios (small timelines to stay fast)
// ---------------------------------------------------------------------------

defense::PolicySpec puzzles_hold20() {
  defense::PolicySpec p = defense::PolicySpec::puzzles();
  p.protection_hold = SimTime::seconds(20);
  return p;
}

/// A 3-replica fleet with puzzles (20 s protection hold) on every replica.
scenario::Spec small_fleet(std::uint64_t seed) {
  scenario::Spec s;
  s.seed = seed;
  s.duration = SimTime::seconds(40);
  s.attack_start = SimTime::seconds(10);
  s.attack_end = SimTime::seconds(30);
  s.workload.n_clients = 6;
  s.workload.request_rate = 10.0;
  s.workload.response_bytes = 20'000;
  s.servers.count = 3;
  s.servers.policies = {puzzles_hold20()};
  s.fleet.enabled = true;
  return s;
}

/// small_fleet() on 4 replicas (5-tuple hash) under a late-ending flood of
/// 4 non-solving conn-flood bots.
scenario::Spec partial_adoption_fleet() {
  scenario::Spec s = small_fleet(13);
  s.duration = SimTime::seconds(45);
  s.attack_end = SimTime::seconds(35);
  scenario::AttackSpec a;
  a.count = 4;
  a.rate = 200.0;
  // A classic flood tool: unpatched, never solves.
  a.strategy = offense::StrategySpec::conn_flood(/*patched=*/false);
  s.attacks = {a};
  s.servers.count = 4;
  s.fleet.balance = BalancePolicy::kFiveTupleHash;
  return s;
}

TEST(FleetScenario, BalancedFleetServesClients) {
  scenario::Spec s = small_fleet(11);
  s.fleet.balance = BalancePolicy::kRoundRobin;
  const scenario::Result r = scenario::run(s);

  EXPECT_GT(r.client_success_ratio(), 0.95);
  for (const auto& replica : r.servers) {
    EXPECT_GT(replica.counters.established_total, 0u)
        << "idle replica in a balanced fleet";
  }
  EXPECT_EQ(r.cluster.established_total,
            r.servers[0].counters.established_total +
                r.servers[1].counters.established_total +
                r.servers[2].counters.established_total);
  EXPECT_EQ(r.lb.no_backend_drops, 0u);
}

TEST(FleetScenario, FailoverKeepsClusterServing) {
  scenario::Spec s = small_fleet(12);
  s.fleet.balance = BalancePolicy::kRoundRobin;
  s.events = {{SimTime::seconds(12), 0, false},
              {SimTime::seconds(25), 0, true}};
  const scenario::Result r = scenario::run(s);

  // Flows parked on the dead replica are disrupted, everything else keeps
  // working; the cluster serves throughout.
  EXPECT_GT(r.lb.failover_evictions, 0u);
  EXPECT_GT(r.client_success_ratio(), 0.7);
  EXPECT_GT(r.servers[1].counters.established_total, 0u);
  EXPECT_GT(r.servers[2].counters.established_total, 0u);
}

TEST(FleetScenario, PartialAdoptionLeaksThroughUnprotectedReplica) {
  scenario::Spec s = partial_adoption_fleet();
  s.servers.policies = {defense::PolicySpec::none(), puzzles_hold20(),
                        puzzles_hold20(), puzzles_hold20()};
  const scenario::Result r = scenario::run(s);

  // Late attack window: by then the puzzle replicas' protection has latched
  // and their pre-protection parked entries (the Fig. 8 "opportunistic
  // openings") have drained, so remaining leakage flows through the legacy
  // replica.
  const std::size_t lo = 25, hi = 34;
  const double unprotected = r.servers[0].attacker_cps(lo, hi);
  EXPECT_GT(unprotected, 1.0) << "flood should leak through the legacy replica";
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_GT(unprotected, 3.0 * r.servers[i].attacker_cps(lo, hi))
        << "puzzle replica " << i << " leaked like the legacy one";
  }
}

TEST(FleetScenario, MixedPolicyFleetContainsLeakageToLegacyReplica) {
  // Heterogeneous per-replica policies: one legacy (unprotected) replica,
  // one adaptive-puzzles, one hybrid, one plain puzzles — all in one run.
  // The partial-adoption invariant must hold whatever the policy flavour:
  // the flood leaks through the legacy replica and every protected replica
  // contains it.
  scenario::Spec s = partial_adoption_fleet();
  AdaptiveConfig actl;
  actl.base = s.servers.difficulty;
  s.servers.policies = {defense::PolicySpec::none(),
                        defense::PolicySpec::puzzles().with_adaptive(actl),
                        defense::PolicySpec::hybrid(),
                        defense::PolicySpec::puzzles()};
  const scenario::Result r = scenario::run(s);

  // Reports name each replica's policy instead of a bare enum value.
  ASSERT_EQ(r.servers.size(), 4u);
  EXPECT_EQ(r.servers[0].policy, "none");
  EXPECT_EQ(r.servers[1].policy, "adaptive+puzzles");
  EXPECT_EQ(r.servers[2].policy, "hybrid");
  EXPECT_EQ(r.servers[3].policy, "puzzles");

  // Late attack window (see PartialAdoptionLeaksThroughUnprotectedReplica):
  // protected replicas have latched, remaining leakage flows through the
  // legacy one.
  const std::size_t lo = 25, hi = 34;
  const double unprotected = r.servers[0].attacker_cps(lo, hi);
  EXPECT_GT(unprotected, 1.0) << "flood should leak through the legacy replica";
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_GT(unprotected, 3.0 * r.servers[i].attacker_cps(lo, hi))
        << "protected replica " << i << " (" << r.servers[i].policy
        << ") leaked like the legacy one";
  }
  // The protected replicas minted challenges; the legacy one never did.
  EXPECT_EQ(r.servers[0].counters.challenges_sent, 0u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_GT(r.servers[i].counters.challenges_sent, 0u);
  }
}

TEST(FleetScenario, RotationUnderLoadKeepsClientsConnected) {
  scenario::Spec s = small_fleet(14);
  defense::PolicySpec policy = puzzles_hold20();
  policy.always_challenge = true;  // exercise the puzzle path continuously
  s.servers.policies = {policy};
  // Every request solves, so keep the per-client solver (one lane) below
  // saturation: ~0.19 s per solve at m=16 against 4 requests/s.
  s.workload.request_rate = 4.0;
  s.workload.max_pending_solves = 8;  // absorb solve-queue bursts
  s.servers.difficulty = puzzle::Difficulty{2, 16};
  s.fleet.rotation_interval = SimTime::seconds(10);
  s.fleet.rotation_overlap = SimTime::seconds(3);
  const scenario::Result r = scenario::run(s);

  EXPECT_GE(r.secret_rotations, 3u);
  EXPECT_EQ(r.cluster.secret_rotations, 3u * r.secret_rotations);
  EXPECT_GT(r.client_success_ratio(), 0.95);
  EXPECT_GT(r.cluster.established_puzzle, 0u);
  // Solves in flight across a rotation land in the overlap window.
  EXPECT_GT(r.cluster.solutions_valid_prev_epoch, 0u);
}

}  // namespace
}  // namespace tcpz::fleet
