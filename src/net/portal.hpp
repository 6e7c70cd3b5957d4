// Cross-shard egress portal for the sharded engine (src/par). A PortalNode
// stands in for the remote part of the topology: addresses owned by other
// shards sit in the topology's address directory under one remote entry
// (Topology::advertise_remote), and each egress node's portal link
// (Node::set_portal) is a zero-delay link whose destination is a portal. The
// portal hands each arriving segment to a sink callback together with the
// simulated time at which it must be injected on the owning shard.
//
// The injection time is `now + extra`, where `extra` is the analytic delay of
// the remaining propagation hops the segment would have traversed in the
// unsharded topology (one backbone hop from an access router; access hop +
// backbone hop from behind the fleet load balancer). Because `extra` is at
// least the minimum cross-shard link delay L, a segment captured during round
// k (sim time ≤ E_k) always injects strictly after E_k — the conservative
// lookahead invariant the round barrier relies on.
//
// Portals never drop traffic silently on their own: a segment only reaches a
// portal if its destination is a known remote address, so anything
// unroutable still dies at the router exactly as in the single-shard
// topology.
#pragma once

#include <functional>
#include <utility>

#include "net/node.hpp"
#include "net/simulator.hpp"

namespace tcpz::net {

class PortalNode final : public Node {
 public:
  /// Sink receives (inject_time, segment) on the capturing shard's thread
  /// during its round; the par engine moves it across the barrier.
  using Sink = std::function<void(SimTime, const tcp::Segment&)>;

  PortalNode(Simulator& sim, SimTime extra, Sink sink)
      : Node(sim), extra_(extra), sink_(std::move(sink)) {}

  void deliver(const tcp::Segment& seg) override {
    sink_(sim().now() + extra_, seg);
  }

 private:
  SimTime extra_;
  Sink sink_;
};

}  // namespace tcpz::net
