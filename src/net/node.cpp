#include "net/node.hpp"

#include "net/link.hpp"
#include "net/simulator.hpp"

namespace tcpz::net {

Link* Node::route_for(std::uint32_t dst_addr) const {
  Link* link = nullptr;
  if (directory_ != nullptr) {
    if (const std::uint32_t* at = directory_->find(dst_addr)) {
      if (*at == kRemoteNode) {
        link = portal_;
      } else if (*at < first_hop_.size()) {
        link = first_hop_[*at];
      }
    }
  }
  return link != nullptr ? link : default_route_;
}

void Node::forward(const tcp::Segment& seg) {
  if (Link* link = route_for(seg.daddr)) {
    link->transmit(seg);
  } else {
    ++unroutable_;
  }
}

void Host::deliver(const tcp::Segment& seg) {
  if (seg.daddr != addr_) return;  // not ours; hosts do not forward
  ++rx_packets_;
  if (handler_) handler_(sim().now(), seg);
}

void Host::send(const tcp::Segment& seg) {
  ++tx_packets_;
  forward(seg);
}

}  // namespace tcpz::net
