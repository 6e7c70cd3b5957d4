#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "net/portal.hpp"
#include "net/simulator.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

namespace tcpz::net {
namespace {

// ---------------------------------------------------------------------------
// Simulator core
// ---------------------------------------------------------------------------

TEST(Simulator, ProcessesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime::seconds(3), [&] { order.push_back(3); });
  sim.schedule_at(SimTime::seconds(1), [&] { order.push_back(1); });
  sim.schedule_at(SimTime::seconds(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulator, TiesBreakInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(SimTime::seconds(1), [&, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, RunUntilAdvancesClockAndStops) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(SimTime::seconds(1), [&] { ++fired; });
  sim.schedule_at(SimTime::seconds(5), [&] { ++fired; });
  sim.run_until(SimTime::seconds(2));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), SimTime::seconds(2));
  sim.run_until(SimTime::seconds(10));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_in(SimTime::seconds(1), recurse);
  };
  sim.schedule_at(SimTime::zero(), recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), SimTime::seconds(4));
}

TEST(Simulator, SchedulingIntoPastThrows) {
  Simulator sim;
  sim.schedule_at(SimTime::seconds(1), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(SimTime::zero(), [] {}), std::logic_error);
}

// ---------------------------------------------------------------------------
// Link: serialization, delay, queue cap
// ---------------------------------------------------------------------------

class SinkHost {
 public:
  SinkHost(Simulator& sim, std::uint32_t addr) : host_(sim, addr) {
    host_.set_handler([this](SimTime t, const tcp::Segment&) {
      arrivals_.push_back(t);
    });
  }
  Host& host() { return host_; }
  const std::vector<SimTime>& arrivals() const { return arrivals_; }

 private:
  Host host_;
  std::vector<SimTime> arrivals_;
};

tcp::Segment seg_of_size(std::uint32_t payload, std::uint32_t daddr) {
  tcp::Segment s;
  s.daddr = daddr;
  s.flags = tcp::kAck;
  s.payload_bytes = payload;
  return s;
}

TEST(Link, SerializationPlusPropagationDelay) {
  Simulator sim;
  SinkHost sink(sim, 42);
  // 1 Mbps, 10 ms delay: a 1040-byte frame (1000 payload + 40 headers)
  // serialises in 8.32 ms.
  Link link(sim, sink.host(), 1e6, SimTime::milliseconds(10), 1 << 20);
  sim.schedule_at(SimTime::zero(), [&] { link.transmit(seg_of_size(1000, 42)); });
  sim.run();
  ASSERT_EQ(sink.arrivals().size(), 1u);
  EXPECT_NEAR(sink.arrivals()[0].to_seconds(), 0.01832, 1e-5);
}

TEST(Link, BackToBackPacketsQueueBehindEachOther) {
  Simulator sim;
  SinkHost sink(sim, 42);
  Link link(sim, sink.host(), 1e6, SimTime::zero(), 1 << 20);
  sim.schedule_at(SimTime::zero(), [&] {
    link.transmit(seg_of_size(1000, 42));
    link.transmit(seg_of_size(1000, 42));
  });
  sim.run();
  ASSERT_EQ(sink.arrivals().size(), 2u);
  const double gap =
      (sink.arrivals()[1] - sink.arrivals()[0]).to_seconds();
  EXPECT_NEAR(gap, 1040 * 8.0 / 1e6, 1e-6);  // one serialization time apart
}

TEST(Link, DropsWhenQueueCapExceeded) {
  Simulator sim;
  SinkHost sink(sim, 42);
  // Each frame is 1040 B and the backlog includes the frame in flight, so a
  // 2.5 KB queue admits two frames; the third must be dropped.
  Link link(sim, sink.host(), 1e6, SimTime::zero(), 2500);
  sim.schedule_at(SimTime::zero(), [&] {
    link.transmit(seg_of_size(1000, 42));
    link.transmit(seg_of_size(1000, 42));
    link.transmit(seg_of_size(1000, 42));
  });
  sim.run();
  EXPECT_EQ(sink.arrivals().size(), 2u);
  EXPECT_EQ(link.stats().drops, 1u);
  EXPECT_EQ(link.stats().tx_packets, 2u);
}

TEST(Link, StatsCountBytes) {
  Simulator sim;
  SinkHost sink(sim, 42);
  Link link(sim, sink.host(), 1e9, SimTime::zero(), 1 << 20);
  sim.schedule_at(SimTime::zero(), [&] { link.transmit(seg_of_size(60, 42)); });
  sim.run();
  EXPECT_EQ(link.stats().tx_bytes, 100u);  // 60 payload + 40 headers
}

// ---------------------------------------------------------------------------
// Topology and routing
// ---------------------------------------------------------------------------

TEST(Topology, RoutesAcrossTriangleBackbone) {
  Simulator sim;
  Topology topo(sim);
  Router* r1 = topo.add_router();
  Router* r2 = topo.add_router();
  Router* r3 = topo.add_router();
  const LinkSpec spec{1e9, SimTime::microseconds(100), 1 << 20};
  topo.connect(r1, r2, spec);
  topo.connect(r2, r3, spec);
  topo.connect(r1, r3, spec);

  Host* a = topo.add_host(100);
  Host* b = topo.add_host(200);
  topo.connect(a, r2, spec);
  topo.connect(b, r3, spec);
  topo.compute_routes();

  int received = 0;
  b->set_handler([&](SimTime, const tcp::Segment& s) {
    EXPECT_EQ(s.daddr, 200u);
    ++received;
  });
  sim.schedule_at(SimTime::zero(), [&] { a->send(seg_of_size(10, 200)); });
  sim.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(a->tx_packets(), 1u);
  EXPECT_EQ(b->rx_packets(), 1u);
}

TEST(Topology, ShortestPathPreferred) {
  // a - r1 - r2 - b  and a longer a - r1 - r3 - r2 path: BFS must pick the
  // two-hop route, observable through the arrival time.
  Simulator sim;
  Topology topo(sim);
  Router* r1 = topo.add_router();
  Router* r2 = topo.add_router();
  Router* r3 = topo.add_router();
  const LinkSpec fast{1e9, SimTime::milliseconds(1), 1 << 20};
  topo.connect(r1, r2, fast);
  topo.connect(r1, r3, fast);
  topo.connect(r3, r2, fast);
  Host* a = topo.add_host(1);
  Host* b = topo.add_host(2);
  topo.connect(a, r1, fast);
  topo.connect(b, r2, fast);
  topo.compute_routes();

  SimTime arrival;
  b->set_handler([&](SimTime t, const tcp::Segment&) { arrival = t; });
  sim.schedule_at(SimTime::zero(), [&] { a->send(seg_of_size(0, 2)); });
  sim.run();
  // 3 hops * 1 ms (+ negligible serialization at 1 Gbps).
  EXPECT_LT(arrival.to_seconds(), 0.0035);
  EXPECT_GT(arrival.to_seconds(), 0.0029);
}

TEST(Topology, UnroutableSpoofedBackscatterDropped) {
  // Reply to a spoofed source address must die at the router, not crash.
  Simulator sim;
  Topology topo(sim);
  Router* r1 = topo.add_router();
  Host* a = topo.add_host(1);
  topo.connect(a, r1, {1e9, SimTime::microseconds(10), 1 << 20});
  topo.compute_routes();
  sim.schedule_at(SimTime::zero(), [&] { a->send(seg_of_size(0, 0xdeadbeef)); });
  sim.run();
  EXPECT_EQ(r1->unroutable_drops(), 1u);
}

TEST(Topology, HostIgnoresForeignPackets) {
  Simulator sim;
  Topology topo(sim);
  Host* a = topo.add_host(1);
  int received = 0;
  a->set_handler([&](SimTime, const tcp::Segment&) { ++received; });
  a->deliver(seg_of_size(0, 99));  // not addressed to us
  EXPECT_EQ(received, 0);
  EXPECT_EQ(a->rx_packets(), 0u);
}

TEST(Topology, DuplicateAdvertiseThrows) {
  Simulator sim;
  Topology topo(sim);
  Router* r = topo.add_router();
  topo.add_host(1);
  topo.add_host(2, /*advertise=*/false);
  EXPECT_THROW(topo.add_host(1), std::invalid_argument);
  EXPECT_THROW(topo.advertise(r, 1), std::invalid_argument);
  topo.add_host(2);  // a non-advertised twin takes no directory entry
  topo.advertise(r, 3);
  EXPECT_THROW(topo.advertise(r, 3), std::invalid_argument);
}

TEST(Topology, ForeignNodesThrow) {
  Simulator sim;
  Topology topo(sim), other(sim);
  Router* mine = topo.add_router();
  Router* theirs = other.add_router();  // same index as `mine`
  Router loose(sim);
  EXPECT_THROW(topo.connect(mine, theirs, {}), std::invalid_argument);
  EXPECT_THROW(topo.connect(&loose, mine, {}), std::invalid_argument);
  EXPECT_THROW(topo.advertise(theirs, 7), std::invalid_argument);
  EXPECT_THROW(topo.advertise(&loose, 7), std::invalid_argument);
  topo.advertise(mine, 7);
}

TEST(Topology, RemoteAddressesAreIdempotentAndExclusive) {
  Simulator sim;
  Topology topo(sim);
  topo.add_host(1);
  topo.advertise_remote(9);
  topo.advertise_remote(9);  // fleet replicas all carry the VIP
  EXPECT_THROW(topo.advertise_remote(1), std::invalid_argument);
  EXPECT_THROW(topo.add_host(9), std::invalid_argument);
}

TEST(Topology, RemoteAddressesLeaveByPortalAtEgressOnly) {
  // r1 and r2 are egress nodes with portals; r3 and the dual-homed host m
  // forward but have none, so remote traffic takes their default route.
  Simulator sim;
  Topology topo(sim);
  Router* r1 = topo.add_router();
  Router* r2 = topo.add_router();
  Router* r3 = topo.add_router();
  const LinkSpec spec{1e9, SimTime::microseconds(100), 1 << 20};
  topo.connect(r1, r2, spec);
  topo.connect(r2, r3, spec);
  topo.connect(r1, r3, spec);
  Host* a = topo.add_host(1);
  Host* m = topo.add_host(2);
  const Link* a_up = topo.connect(a, r2, spec).first;
  topo.connect(m, r1, spec);
  Link* m_up = topo.connect(m, r3, spec).first;
  topo.compute_routes();
  topo.advertise_remote(99);
  m->set_default_route(m_up);

  std::vector<std::pair<SimTime, std::uint32_t>> captured;
  std::vector<std::unique_ptr<PortalNode>> portals;
  std::vector<std::unique_ptr<Link>> portal_links;
  for (Router* r : {r1, r2}) {
    portals.push_back(std::make_unique<PortalNode>(
        sim, SimTime::milliseconds(1),
        [&captured](SimTime t, const tcp::Segment& seg) {
          captured.emplace_back(t, seg.daddr);
        }));
    portal_links.push_back(std::make_unique<Link>(
        sim, *portals.back(), 1e9, SimTime::zero(), 1 << 20));
    r->set_portal(portal_links.back().get());
  }

  EXPECT_EQ(r1->route_for(99), portal_links[0].get());
  EXPECT_EQ(r2->route_for(99), portal_links[1].get());
  EXPECT_EQ(r3->route_for(99), nullptr);
  EXPECT_EQ(a->route_for(99), a_up);
  EXPECT_EQ(m->route_for(99), m_up);

  sim.schedule_at(SimTime::zero(), [&] {
    a->send(seg_of_size(0, 99));   // a -> r2 -> portal
    m->send(seg_of_size(0, 99));   // m -> r3: no portal, no default
    a->send(seg_of_size(0, 77));   // unknown: dies at r2
  });
  sim.run();
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].second, 99u);
  EXPECT_GT(captured[0].first, SimTime::milliseconds(1));
  EXPECT_EQ(r2->unroutable_drops(), 1u);
  EXPECT_EQ(r3->unroutable_drops(), 1u);
}

// ---------------------------------------------------------------------------
// Directory routing against a naive reference
// ---------------------------------------------------------------------------

/// A topology built through the public API, mirrored node by node so the
/// reference can recompute routes the way the per-address tables did: a
/// BFS from every node but single-uplink hosts, then one exact route per
/// advertised address at every other reachable node.
struct Mirror {
  struct Edge {
    std::size_t from, to;
    Link* link;
  };

  explicit Mirror(Simulator& sim) : topo(sim) {}

  std::size_t router() {
    nodes.push_back(topo.add_router());
    is_host.push_back(false);
    return nodes.size() - 1;
  }
  std::size_t host(std::uint32_t addr, bool advertise) {
    nodes.push_back(topo.add_host(addr, advertise));
    is_host.push_back(true);
    if (advertise) advertised.emplace_back(nodes.size() - 1, addr);
    return nodes.size() - 1;
  }
  void advertise(std::size_t node, std::uint32_t addr) {
    topo.advertise(nodes[node], addr);
    advertised.emplace_back(node, addr);
  }
  void connect(std::size_t a, std::size_t b) {
    const auto [ab, ba] = topo.connect(nodes[a], nodes[b], {});
    edges.push_back({a, b, ab});
    edges.push_back({b, a, ba});
  }

  /// Per node: exact routes, then the default route.
  struct Table {
    std::unordered_map<std::uint32_t, Link*> routes;
    Link* default_route = nullptr;
  };
  [[nodiscard]] std::vector<Table> reference() const {
    const std::size_t n = nodes.size();
    std::vector<std::vector<std::pair<std::size_t, Link*>>> adj(n);
    for (const Edge& e : edges) adj[e.from].push_back({e.to, e.link});
    std::vector<std::vector<std::uint32_t>> addrs_at(n);
    for (const auto& [idx, addr] : advertised) addrs_at[idx].push_back(addr);
    std::vector<Table> tables(n);
    for (std::size_t src = 0; src < n; ++src) {
      if (is_host[src] && adj[src].size() == 1) {
        tables[src].default_route = adj[src][0].second;
        continue;
      }
      std::vector<Link*> first_hop(n, nullptr);
      std::vector<bool> seen(n, false);
      seen[src] = true;
      std::deque<std::size_t> frontier{src};
      while (!frontier.empty()) {
        const std::size_t cur = frontier.front();
        frontier.pop_front();
        for (const auto& [next, link] : adj[cur]) {
          if (seen[next]) continue;
          seen[next] = true;
          first_hop[next] = (cur == src) ? link : first_hop[cur];
          frontier.push_back(next);
        }
      }
      for (std::size_t dst = 0; dst < n; ++dst) {
        if (dst == src || first_hop[dst] == nullptr) continue;
        for (const std::uint32_t addr : addrs_at[dst]) {
          tables[src].routes[addr] = first_hop[dst];
        }
      }
    }
    return tables;
  }

  Topology topo;
  std::vector<Node*> nodes;
  std::vector<bool> is_host;
  std::vector<Edge> edges;
  std::vector<std::pair<std::size_t, std::uint32_t>> advertised;
};

/// One random topology: a router mesh with its links in random order, a
/// router island that never joins it, hosts with zero, one or two uplinks
/// (some not advertised), and a VIP advertised at a router. Returns every
/// address worth probing: advertised, spoofed (a silent host's) and unknown.
std::vector<std::uint32_t> build_random(Mirror& m, Rng& rng) {
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_u64(n));
  };
  std::vector<std::uint32_t> probes;
  std::uint32_t next_addr = 100;
  const auto fresh = [&] {
    next_addr += 1 + static_cast<std::uint32_t>(rng.uniform_u64(4));
    probes.push_back(next_addr);
    return next_addr;
  };

  std::vector<std::size_t> mesh;
  const std::size_t n_routers = 2 + pick(5);
  for (std::size_t i = 0; i < n_routers; ++i) mesh.push_back(m.router());
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < mesh.size(); ++i) {
    for (std::size_t j = i + 1; j < mesh.size(); ++j) {
      if (rng.bernoulli(0.6)) pairs.emplace_back(mesh[i], mesh[j]);
    }
  }
  std::shuffle(pairs.begin(), pairs.end(), rng);
  for (const auto& [a, b] : pairs) {
    rng.bernoulli(0.5) ? m.connect(a, b) : m.connect(b, a);
  }

  std::vector<std::size_t> island;
  for (std::size_t i = 0, n = 1 + pick(2); i < n; ++i) {
    island.push_back(m.router());
    if (i > 0) m.connect(island[i - 1], island[i]);
  }

  const std::size_t n_hosts = 3 + pick(10);
  for (std::size_t i = 0; i < n_hosts; ++i) {
    const bool advertised = rng.bernoulli(0.8);
    const std::size_t h = m.host(fresh(), advertised);
    const std::vector<std::size_t>& side = rng.bernoulli(0.8) ? mesh : island;
    const std::size_t uplinks = pick(3);  // 0, 1 or 2
    for (std::size_t u = 0; u < uplinks; ++u) {
      const std::size_t r = side[pick(side.size())];
      rng.bernoulli(0.5) ? m.connect(h, r) : m.connect(r, h);
    }
  }
  m.advertise(mesh[pick(mesh.size())], fresh());  // a VIP on a router
  probes.push_back(fresh() + 1000);               // unknown everywhere
  return probes;
}

TEST(Topology, DirectoryRoutesMatchPerAddressReference) {
  Rng rng(20260);
  std::size_t checked = 0;
  for (int trial = 0; trial < 250; ++trial) {
    Simulator sim;
    Mirror m(sim);
    const std::vector<std::uint32_t> probes = build_random(m, rng);
    m.topo.compute_routes();
    const std::vector<Mirror::Table> ref = m.reference();
    for (std::size_t i = 0; i < m.nodes.size(); ++i) {
      for (const std::uint32_t addr : probes) {
        const auto it = ref[i].routes.find(addr);
        const Link* want =
            it != ref[i].routes.end() ? it->second : ref[i].default_route;
        ASSERT_EQ(m.nodes[i]->route_for(addr), want)
            << "trial " << trial << " node " << i << " addr " << addr;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 10'000u);
}

}  // namespace
}  // namespace tcpz::net
