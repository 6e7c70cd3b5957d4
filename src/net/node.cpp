#include "net/node.hpp"

#include "net/link.hpp"
#include "net/simulator.hpp"

namespace tcpz::net {

Node::Node(Simulator& sim, std::string name)
    : sim_(sim), name_(std::move(name)) {}

void Node::add_route(std::uint32_t dst_addr, Link* link) {
  routes_[dst_addr] = link;
}

Link* Node::route_for(std::uint32_t dst_addr) const {
  Link* const* link = routes_.find(dst_addr);
  return link != nullptr ? *link : default_route_;
}

void Node::forward(const tcp::Segment& seg) {
  if (Link* link = route_for(seg.daddr)) {
    link->transmit(seg);
  } else {
    ++unroutable_;
  }
}

Host::Host(Simulator& sim, std::string name, std::uint32_t addr)
    : Node(sim, std::move(name)), addr_(addr) {}

void Host::deliver(const tcp::Segment& seg) {
  if (seg.daddr != addr_) return;  // not ours; hosts do not forward
  ++rx_packets_;
  rx_bytes_ += seg.wire_size();
  if (handler_) handler_(sim().now(), seg);
}

void Host::send(const tcp::Segment& seg) {
  ++tx_packets_;
  tx_bytes_ += seg.wire_size();
  forward(seg);
}

}  // namespace tcpz::net
