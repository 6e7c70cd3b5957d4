// Unidirectional link with finite bandwidth, propagation delay and a bounded
// FIFO byte queue. The serialization/queueing model is the standard
// store-and-forward one: a packet begins transmission when the link becomes
// free; packets arriving while the backlog exceeds the queue cap are dropped.
#pragma once

#include <cstdint>

#include "tcp/segment.hpp"
#include "util/time.hpp"

namespace tcpz::net {

class Simulator;
class Node;

struct LinkStats {
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t drops = 0;
};

class Link {
 public:
  Link(Simulator& sim, Node& dst, double bandwidth_bps, SimTime delay,
       std::size_t queue_cap_bytes);

  /// Enqueues the segment for transmission; delivers it to the destination
  /// node after serialization + queueing + propagation, or drops it if the
  /// queue is over its cap.
  void transmit(const tcp::Segment& seg);

  [[nodiscard]] const LinkStats& stats() const { return stats_; }

  /// Bytes currently waiting or in transmission (derived from the busy
  /// horizon, so it needs no per-packet bookkeeping).
  [[nodiscard]] std::size_t backlog_bytes() const;

 private:
  Simulator& sim_;
  Node& dst_;
  double bandwidth_bps_;
  SimTime delay_;
  std::size_t queue_cap_bytes_;

  SimTime busy_until_ = SimTime::zero();
  LinkStats stats_;
};

}  // namespace tcpz::net
