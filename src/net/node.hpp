// Nodes of the simulated network: routers forward by destination address,
// hosts terminate traffic and hand segments to an attached handler (the
// agent layer lives in src/sim). Routing tables are filled by the topology's
// shortest-path computation.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "tcp/segment.hpp"
#include "util/flat_table.hpp"
#include "util/time.hpp"

namespace tcpz::net {

class Link;
class Simulator;

class Node {
 public:
  Node(Simulator& sim, std::string name);
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// A segment arrived at this node (after link delay).
  virtual void deliver(const tcp::Segment& seg) = 0;

  /// Routing: exact destination-address match, then default route.
  void add_route(std::uint32_t dst_addr, Link* link);
  void set_default_route(Link* link) { default_route_ = link; }
  [[nodiscard]] Link* route_for(std::uint32_t dst_addr) const;

  /// Sends out the matching interface; silently drops unroutable packets
  /// (spoofed-source backscatter ends here, like on a real network edge).
  void forward(const tcp::Segment& seg);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Simulator& sim() const { return sim_; }
  [[nodiscard]] std::uint64_t unroutable_drops() const { return unroutable_; }

 private:
  Simulator& sim_;
  std::string name_;
  FlatMap<std::uint32_t, Link*, IntHash> routes_;
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

  Host(Simulator& sim, std::string name, std::uint32_t addr);

  [[nodiscard]] std::uint32_t addr() const { return addr_; }
  void set_handler(SegmentHandler handler) { handler_ = std::move(handler); }

  void deliver(const tcp::Segment& seg) override;

  /// Transmit a segment from this host (source fields are the caller's
  /// responsibility — attackers spoof them).
  void send(const tcp::Segment& seg);

  [[nodiscard]] std::uint64_t rx_packets() const { return rx_packets_; }
  [[nodiscard]] std::uint64_t rx_bytes() const { return rx_bytes_; }
  [[nodiscard]] std::uint64_t tx_packets() const { return tx_packets_; }
  [[nodiscard]] std::uint64_t tx_bytes() const { return tx_bytes_; }

 private:
  std::uint32_t addr_;
  SegmentHandler handler_;
  std::uint64_t rx_packets_ = 0, rx_bytes_ = 0;
  std::uint64_t tx_packets_ = 0, tx_bytes_ = 0;
};

}  // namespace tcpz::net
