#include "net/topology.hpp"

#include <deque>
#include <stdexcept>
#include <unordered_map>

namespace tcpz::net {

Host* Topology::add_host(const std::string& name, std::uint32_t addr,
                         bool advertise) {
  auto host = std::make_unique<Host>(sim_, name, addr);
  Host* ptr = host.get();
  nodes_.push_back(std::move(host));
  index_[ptr] = nodes_.size() - 1;
  if (advertise) advertised_.push_back({nodes_.size() - 1, addr});
  return ptr;
}

Router* Topology::add_router(const std::string& name) {
  auto router = std::make_unique<Router>(sim_, name);
  Router* ptr = router.get();
  nodes_.push_back(std::move(router));
  index_[ptr] = nodes_.size() - 1;
  return ptr;
}

Node* Topology::add_node(std::unique_ptr<Node> node) {
  Node* ptr = node.get();
  nodes_.push_back(std::move(node));
  index_[ptr] = nodes_.size() - 1;
  return ptr;
}

std::size_t Topology::index_of(const Node* node) const {
  const auto it = index_.find(node);
  return it == index_.end() ? nodes_.size() : it->second;
}

void Topology::advertise(Node* node, std::uint32_t addr) {
  const std::size_t idx = index_of(node);
  if (idx == nodes_.size()) {
    throw std::invalid_argument("Topology::advertise: unknown node");
  }
  advertised_.push_back({idx, addr});
}

std::pair<Link*, Link*> Topology::connect(Node* a, Node* b,
                                          const LinkSpec& spec) {
  const std::size_t ia = index_of(a), ib = index_of(b);
  if (ia == nodes_.size() || ib == nodes_.size()) {
    throw std::invalid_argument("Topology::connect: unknown node");
  }
  auto ab = std::make_unique<Link>(sim_, *b, spec.bandwidth_bps, spec.delay,
                                   spec.queue_cap_bytes,
                                   a->name() + "->" + b->name());
  auto ba = std::make_unique<Link>(sim_, *a, spec.bandwidth_bps, spec.delay,
                                   spec.queue_cap_bytes,
                                   b->name() + "->" + a->name());
  edges_.push_back({ia, ib, ab.get()});
  edges_.push_back({ib, ia, ba.get()});
  Link* fwd = ab.get();
  Link* rev = ba.get();
  links_.push_back(std::move(ab));
  links_.push_back(std::move(ba));
  return {fwd, rev};
}

void Topology::compute_routes() {
  const std::size_t n = nodes_.size();
  // Adjacency: node index -> outgoing (neighbor index, link).
  std::vector<std::vector<std::pair<std::size_t, Link*>>> adj(n);
  for (const Edge& e : edges_) adj[e.from].push_back({e.to, e.link});

  // Hosts with a single uplink get it as default gateway, so replies to
  // spoofed sources leave the host and die at a router, as on a real edge.
  for (std::size_t i = 0; i < n; ++i) {
    if (dynamic_cast<Host*>(nodes_[i].get()) != nullptr &&
        adj[i].size() == 1) {
      nodes_[i]->set_default_route(adj[i][0].second);
    }
  }

  // Route targets: every advertised (node, address) pair.
  std::vector<std::vector<std::uint32_t>> addrs_at(n);
  for (const auto& [idx, addr] : advertised_) addrs_at[idx].push_back(addr);

  // BFS from each source; record the first-hop link toward every node.
  // Single-uplink hosts are skipped: their default route already covers every
  // destination through the same (only) link an exact route would pick, so
  // forwarding behavior is identical and a 100k-host edge costs no BFS.
  for (std::size_t src = 0; src < n; ++src) {
    if (adj[src].size() == 1 &&
        dynamic_cast<Host*>(nodes_[src].get()) != nullptr) {
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
    // Install exact routes for every reachable advertised address.
    for (std::size_t dst = 0; dst < n; ++dst) {
      if (dst == src || first_hop[dst] == nullptr) continue;
      for (const std::uint32_t addr : addrs_at[dst]) {
        nodes_[src]->add_route(addr, first_hop[dst]);
      }
    }
  }
}

}  // namespace tcpz::net
