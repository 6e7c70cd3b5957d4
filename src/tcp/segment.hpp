// TCP segments as exchanged by the userspace handshake stack. We model the
// fields the handshake and the puzzle extension touch; payload is carried as
// a byte count (the simulator accounts bandwidth, it does not need payload
// contents).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "tcp/options.hpp"

namespace tcpz::tcp {

/// Flag bit positions match the TCP header.
enum SegFlags : std::uint8_t {
  kFin = 0x01,
  kSyn = 0x02,
  kRst = 0x04,
  kPsh = 0x08,
  kAck = 0x10,
};

struct Segment {
  std::uint32_t saddr = 0;
  std::uint32_t daddr = 0;
  std::uint16_t sport = 0;
  std::uint16_t dport = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;
  std::uint16_t window = 65535;
  Options options;
  std::uint32_t payload_bytes = 0;

  [[nodiscard]] bool is_syn() const { return (flags & kSyn) && !(flags & kAck); }
  [[nodiscard]] bool is_syn_ack() const {
    return (flags & kSyn) && (flags & kAck);
  }
  [[nodiscard]] bool is_ack() const { return (flags & kAck) && !(flags & kSyn); }
  [[nodiscard]] bool is_rst() const { return flags & kRst; }

  /// On-wire size: 20 B IPv4 + 20 B TCP + padded options + payload.
  [[nodiscard]] std::uint32_t wire_size() const {
    return 40 + static_cast<std::uint32_t>(options.wire_size()) + payload_bytes;
  }

  [[nodiscard]] std::string summary() const;
};

/// Connection identity from the *server's* point of view: remote (client)
/// endpoint first. Equality/hash for use as a hash-table key.
struct FlowKey {
  std::uint32_t raddr = 0;
  std::uint16_t rport = 0;
  std::uint32_t laddr = 0;
  std::uint16_t lport = 0;

  bool operator==(const FlowKey&) const = default;

  [[nodiscard]] static FlowKey from_incoming(const Segment& seg) {
    return {seg.saddr, seg.sport, seg.daddr, seg.dport};
  }
};

struct FlowKeyHash {
  std::size_t operator()(const FlowKey& k) const {
    // 64-bit mix of the 96-bit tuple; splitmix-style finalizer.
    std::uint64_t h = (static_cast<std::uint64_t>(k.raddr) << 32) |
                      (static_cast<std::uint64_t>(k.rport) << 16) | k.lport;
    h ^= static_cast<std::uint64_t>(k.laddr) * 0x9e3779b97f4a7c15ull;
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 31;
    return static_cast<std::size_t>(h);
  }
};

/// Dotted-quad rendering of an IPv4 address held in host byte order.
[[nodiscard]] std::string ip_to_string(std::uint32_t addr);
/// Builds an address from octets, e.g. ipv4(10, 1, 1, 2).
[[nodiscard]] constexpr std::uint32_t ipv4(unsigned a, unsigned b, unsigned c,
                                           unsigned d) {
  return (a << 24) | (b << 16) | (c << 8) | d;
}

}  // namespace tcpz::tcp
