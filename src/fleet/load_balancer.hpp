// L4 load balancer for a fleet of puzzle-protected replicas.
//
// The balancer owns a virtual IP (VIP). Replicas hang off it on dedicated
// links and terminate traffic *for the VIP itself* (direct-server-return
// style: the balancer never rewrites addresses, it only chooses which
// replica link a VIP-bound segment goes down). Because the 5-tuple a client
// sees is identical no matter which replica serves it, a puzzle challenge
// minted by one replica verifies on any other replica holding the same
// secret — the statelessness property of the paper, operationalized at
// cluster scale. Segments not addressed to the VIP (replica responses on
// their way out) are forwarded by the ordinary routing table, so the
// balancer doubles as the replicas' gateway.
//
// Three dispatch policies:
//  * round-robin       — new flows cycle through live replicas (flow table
//                        keeps subsequent segments on the chosen replica)
//  * 5-tuple hash      — stateless hash of (saddr, sport, daddr, dport);
//                        re-hashes over the live set after a failure
//  * least-connections — new flows go to the replica with the fewest
//                        tracked flows
//
// Backend failure (set_backend_up(i, false)) models an L4 health-check
// eviction: tracked flows on the dead replica are dropped from the table and
// the next retransmission from the client is re-dispatched to a live
// replica. Mid-handshake this exercises cross-replica verification for real:
// the client's solution ACK lands on a replica that never sent the
// challenge, and is accepted anyway.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "net/simulator.hpp"
#include "util/time.hpp"

namespace tcpz::fleet {

enum class BalancePolicy : std::uint8_t {
  kRoundRobin,
  kFiveTupleHash,
  kLeastConnections,
};

[[nodiscard]] const char* to_string(BalancePolicy p);

struct LoadBalancerConfig {
  std::uint32_t vip = 0;
  BalancePolicy policy = BalancePolicy::kFiveTupleHash;
  /// Tracked flows idle longer than this are reclaimed (round-robin and
  /// least-connections keep per-flow state; the hash policy keeps none).
  SimTime flow_idle_timeout = SimTime::seconds(30);
  SimTime sweep_interval = SimTime::seconds(5);
};

struct BackendStats {
  std::uint64_t dispatched_packets = 0;
  std::uint64_t dispatched_bytes = 0;
  std::uint64_t new_flows = 0;
};

class LoadBalancer final : public net::Node {
 public:
  LoadBalancer(net::Simulator& sim, LoadBalancerConfig cfg);

  /// Registers a replica reached over `link` (the balancer->replica
  /// direction of a Topology::connect pair). Returns the backend index.
  int add_backend(net::Link* link);

  /// Health transition. Marking a backend down evicts its tracked flows so
  /// client retransmissions re-dispatch to a live replica.
  void set_backend_up(int idx, bool up);
  [[nodiscard]] bool backend_up(int idx) const { return backends_[idx].up; }
  [[nodiscard]] int n_backends() const {
    return static_cast<int>(backends_.size());
  }

  void deliver(const tcp::Segment& seg) override;

  /// Schedules the periodic idle-flow sweep until `until`.
  void start(SimTime until);
  /// Deschedules the pending sweep (no tombstone event is left behind).
  void stop();

  [[nodiscard]] const BackendStats& stats(int idx) const {
    return backends_[idx].stats;
  }
  [[nodiscard]] int tracked_connections(int idx) const {
    return backends_[idx].active;
  }
  [[nodiscard]] std::size_t flow_table_size() const { return flows_.size(); }
  [[nodiscard]] std::uint64_t no_backend_drops() const {
    return no_backend_drops_;
  }
  /// Tracked flows evicted when their backend went down. Each is a
  /// disrupted connection; the subset whose client keeps transmitting gets
  /// re-dispatched to a live replica.
  [[nodiscard]] std::uint64_t failover_evictions() const {
    return failover_evictions_;
  }

 private:
  struct Backend {
    net::Link* link = nullptr;
    bool up = true;
    int active = 0;  ///< tracked flows currently assigned here
    BackendStats stats;
  };
  struct FlowEntry {
    int backend = 0;
    SimTime last_seen;
  };

  /// Client-side endpoint identifies the flow (VIP side is constant).
  [[nodiscard]] static std::uint64_t flow_id(const tcp::Segment& seg,
                                             bool from_client);

  [[nodiscard]] int pick_backend(const tcp::Segment& seg);
  [[nodiscard]] int hash_backend(const tcp::Segment& seg) const;
  void dispatch(int idx, const tcp::Segment& seg);
  void sweep_loop(SimTime until);
  void rebuild_live();

  LoadBalancerConfig cfg_;
  std::vector<Backend> backends_;
  std::vector<int> live_;  ///< indices of up backends (hash dispatch is per-packet)
  std::unordered_map<std::uint64_t, FlowEntry> flows_;
  net::TimerHandle sweep_timer_;
  std::size_t rr_next_ = 0;
  std::uint64_t no_backend_drops_ = 0;
  std::uint64_t failover_evictions_ = 0;
};

}  // namespace tcpz::fleet
