// Nodes of the simulated network: routers forward by destination address,
// hosts terminate traffic and hand segments to an attached handler (the
// agent layer lives in src/sim). A forwarding node looks the destination up
// in its topology's address directory and takes the first hop its own BFS
// table holds toward the owning node; anything else leaves by the default
// route (see topology.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "tcp/segment.hpp"
#include "util/flat_table.hpp"
#include "util/time.hpp"

namespace tcpz::net {

class Link;
class Simulator;

/// Advertised address -> index of the topology node that terminates it.
using AddressDirectory = FlatMap<std::uint32_t, std::uint32_t, IntHash>;

/// The directory entry of addresses another shard owns: forwarding nodes
/// send them out of their portal link, if they have one.
inline constexpr std::uint32_t kRemoteNode = ~0u;

class Node {
 public:
  explicit Node(Simulator& sim) : sim_(sim) {}
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// A segment arrived at this node (after link delay).
  virtual void deliver(const tcp::Segment& seg) = 0;

  /// Routing: the directory's first hop, then the default route.
  void set_default_route(Link* link) { default_route_ = link; }
  /// Egress for the directory's remote addresses (sharded engine).
  void set_portal(Link* link) { portal_ = link; }
  [[nodiscard]] Link* route_for(std::uint32_t dst_addr) const;

  /// Sends out the matching interface; silently drops unroutable packets
  /// (spoofed-source backscatter ends here, like on a real network edge).
  void forward(const tcp::Segment& seg);

  [[nodiscard]] Simulator& sim() const { return sim_; }
  [[nodiscard]] std::uint64_t unroutable_drops() const { return unroutable_; }

 private:
  friend class Topology;

  Simulator& sim_;
  /// Position in the owning topology; no topology owns a node at SIZE_MAX.
  std::size_t index_ = SIZE_MAX;
  /// Set by Topology::compute_routes on forwarding nodes only.
  const AddressDirectory* directory_ = nullptr;
  /// Node index -> first-hop link toward it (null: self or unreachable).
  std::vector<Link*> first_hop_;
  Link* portal_ = nullptr;
  Link* default_route_ = nullptr;
  std::uint64_t unroutable_ = 0;
};

class Router final : public Node {
 public:
  using Node::Node;
  void deliver(const tcp::Segment& seg) override { forward(seg); }
};

/// End host: terminates segments addressed to it, forwards nothing.
class Host final : public Node {
 public:
  using SegmentHandler = std::function<void(SimTime, const tcp::Segment&)>;

  Host(Simulator& sim, std::uint32_t addr) : Node(sim), addr_(addr) {}

  [[nodiscard]] std::uint32_t addr() const { return addr_; }
  void set_handler(SegmentHandler handler) { handler_ = std::move(handler); }

  void deliver(const tcp::Segment& seg) override;

  /// Transmit a segment from this host (source fields are the caller's
  /// responsibility — attackers spoof them).
  void send(const tcp::Segment& seg);

  [[nodiscard]] std::uint64_t rx_packets() const { return rx_packets_; }
  [[nodiscard]] std::uint64_t tx_packets() const { return tx_packets_; }

 private:
  std::uint32_t addr_;
  SegmentHandler handler_;
  std::uint64_t rx_packets_ = 0;
  std::uint64_t tx_packets_ = 0;
};

}  // namespace tcpz::net
