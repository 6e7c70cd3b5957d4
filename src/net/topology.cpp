#include "net/topology.hpp"

#include <stdexcept>

namespace tcpz::net {

Host* Topology::add_host(std::uint32_t addr, bool advertise) {
  auto* host = static_cast<Host*>(add_node(std::make_unique<Host>(sim_, addr)));
  if (advertise) enter(addr, index_of(host));
  return host;
}

Router* Topology::add_router() {
  return static_cast<Router*>(add_node(std::make_unique<Router>(sim_)));
}

Node* Topology::add_node(std::unique_ptr<Node> node) {
  node->index_ = nodes_.size();
  nodes_.push_back(std::move(node));
  return nodes_.back().get();
}

std::uint32_t Topology::index_of(const Node* node) const {
  if (node->index_ >= nodes_.size() || nodes_[node->index_].get() != node) {
    throw std::invalid_argument("Topology: node of another topology");
  }
  return static_cast<std::uint32_t>(node->index_);
}

void Topology::enter(std::uint32_t addr, std::uint32_t owner) {
  const auto [at, added] = directory_.try_emplace(addr, owner);
  if (!added && !(owner == kRemoteNode && *at == kRemoteNode)) {
    throw std::invalid_argument("Topology: address already advertised");
  }
}

void Topology::advertise(Node* node, std::uint32_t addr) {
  enter(addr, index_of(node));
}

void Topology::advertise_remote(std::uint32_t addr) {
  enter(addr, kRemoteNode);
}

std::pair<Link*, Link*> Topology::connect(Node* a, Node* b,
                                          const LinkSpec& spec) {
  const std::size_t ia = index_of(a), ib = index_of(b);
  for (auto [from, to] : {std::pair{ia, ib}, std::pair{ib, ia}}) {
    edges_.push_back({from, to,
                      std::make_unique<Link>(sim_, *nodes_[to],
                                             spec.bandwidth_bps, spec.delay,
                                             spec.queue_cap_bytes)});
  }
  return {edges_[edges_.size() - 2].link.get(), edges_.back().link.get()};
}

void Topology::compute_routes() {
  const std::size_t n = nodes_.size();
  // Adjacency: node index -> outgoing (neighbor index, link), in edge
  // insertion order (BFS ties break by it).
  std::vector<std::vector<std::pair<std::size_t, Link*>>> adj(n);
  for (const Edge& e : edges_) adj[e.from].push_back({e.to, e.link.get()});

  std::vector<std::size_t> frontier;
  for (std::size_t src = 0; src < n; ++src) {
    Node& node = *nodes_[src];
    // A host with a single uplink takes it as default gateway, so replies to
    // spoofed sources leave the host and die at a router, as on a real edge.
    // Any table would only repeat that link, so a 100k-host edge costs no
    // BFS.
    if (adj[src].size() == 1 && dynamic_cast<Host*>(&node) != nullptr) {
      node.set_default_route(adj[src][0].second);
      continue;
    }
    // BFS; a node is seen once it has a first hop (the source never gets
    // one).
    std::vector<Link*>& first_hop = node.first_hop_;
    first_hop.assign(n, nullptr);
    frontier.assign(1, src);
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const std::size_t cur = frontier[head];
      for (const auto& [next, link] : adj[cur]) {
        if (next == src || first_hop[next] != nullptr) continue;
        first_hop[next] = (cur == src) ? link : first_hop[cur];
        frontier.push_back(next);
      }
    }
    node.directory_ = &directory_;
  }
}

}  // namespace tcpz::net
