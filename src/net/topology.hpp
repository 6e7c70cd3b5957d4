// Topology container and shortest-path route computation. Owns all nodes and
// links; `connect` creates a bidirectional pair of unidirectional links;
// `compute_routes` fills every node's table with BFS next-hops toward every
// host address (links as unit-cost edges, matching the flat DETER layout).
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
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

  /// `advertise` controls whether compute_routes installs routes toward this
  /// host's address. Pass false for hosts that sit behind another node which
  /// owns the address — e.g. fleet replicas behind a load balancer's VIP.
  Host* add_host(const std::string& name, std::uint32_t addr,
                 bool advertise = true);
  Router* add_router(const std::string& name);

  /// Adopts an externally constructed node (custom Node subclasses such as
  /// the fleet load balancer). The node must have been created against this
  /// topology's simulator.
  Node* add_node(std::unique_ptr<Node> node);

  /// Declares that `node` terminates traffic for `addr`; compute_routes then
  /// installs routes toward it exactly as for a host address. Used for
  /// addresses owned by non-Host nodes (a load balancer's VIP).
  void advertise(Node* node, std::uint32_t addr);

  /// Creates links a->b and b->a with identical characteristics and returns
  /// them in that order (callers that steer traffic manually — the load
  /// balancer — keep the forward link).
  std::pair<Link*, Link*> connect(Node* a, Node* b, const LinkSpec& spec);

  /// BFS from every node; installs exact routes for every advertised address.
  void compute_routes();

  [[nodiscard]] const std::vector<std::unique_ptr<Link>>& links() const {
    return links_;
  }
  [[nodiscard]] Simulator& sim() const { return sim_; }

 private:
  struct Edge {
    std::size_t from, to;
    Link* link;
  };

  [[nodiscard]] std::size_t index_of(const Node* node) const;

  Simulator& sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  /// Node pointer -> nodes_ index, so connect()/advertise() stay O(1) per
  /// call; a 100k-host topology would otherwise pay O(n) per connect.
  std::unordered_map<const Node*, std::size_t> index_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<Edge> edges_;
  /// (node index, terminated address) pairs route targets for compute_routes.
  std::vector<std::pair<std::size_t, std::uint32_t>> advertised_;
};

}  // namespace tcpz::net
