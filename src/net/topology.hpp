// Topology container and shortest-path routing. Owns all nodes and links;
// `connect` creates a bidirectional pair of unidirectional links. One
// address directory maps every advertised address to the index of the node
// that terminates it. `compute_routes` runs one BFS from every forwarding
// node (links as unit-cost edges, matching the flat DETER layout) and leaves
// the node its first-hop link toward every other node, so a route lookup is
// first_hop[directory[addr]] — no per-address copy anywhere.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "net/simulator.hpp"

namespace tcpz::net {

struct LinkSpec {
  double bandwidth_bps = 1e9;
  SimTime delay = SimTime::microseconds(100);
  std::size_t queue_cap_bytes = 1 << 20;  ///< 1 MiB FIFO
};

class Topology {
 public:
  explicit Topology(Simulator& sim) : sim_(sim) {}

  /// Nodes keep pointers to the directory, so a topology stays put.
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  /// `advertise` controls whether the host's address enters the directory.
  /// Pass false for hosts that sit behind another node which owns the
  /// address — e.g. fleet replicas behind a load balancer's VIP.
  Host* add_host(std::uint32_t addr, bool advertise = true);
  Router* add_router();

  /// Adopts an externally constructed node (custom Node subclasses such as
  /// the fleet load balancer). The node must have been created against this
  /// topology's simulator.
  Node* add_node(std::unique_ptr<Node> node);

  /// Declares that `node` terminates traffic for `addr`, exactly as for an
  /// advertised host address. Used for addresses owned by non-Host nodes (a
  /// load balancer's VIP). Throws std::invalid_argument for a node of
  /// another topology or an address that is already advertised.
  void advertise(Node* node, std::uint32_t addr);

  /// Lists `addr` as owned by another shard: forwarding nodes send it out
  /// of their portal link (Node::set_portal), all others by their default
  /// route. Idempotent; throws std::invalid_argument if `addr` is
  /// advertised here.
  void advertise_remote(std::uint32_t addr);

  /// Creates links a->b and b->a with identical characteristics and returns
  /// them in that order (callers that steer traffic manually — the load
  /// balancer — keep the forward link).
  std::pair<Link*, Link*> connect(Node* a, Node* b, const LinkSpec& spec);

  /// Single-uplink hosts get their uplink as default route and nothing
  /// else; every other node gets a BFS first-hop table and the directory.
  void compute_routes();

 private:
  struct Edge {
    std::size_t from, to;
    std::unique_ptr<Link> link;
  };

  /// `node`'s index; throws std::invalid_argument if this topology does
  /// not own it.
  [[nodiscard]] std::uint32_t index_of(const Node* node) const;
  /// Enters `addr` -> `owner` in the directory.
  void enter(std::uint32_t addr, std::uint32_t owner);

  Simulator& sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<Edge> edges_;
  AddressDirectory directory_;
};

}  // namespace tcpz::net
