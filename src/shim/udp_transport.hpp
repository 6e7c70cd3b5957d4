// UDP loopback transport: runs the sans-I/O TCP state machines between real
// processes (or threads) by carrying encoded segments in UDP datagrams. It is
// the one socket path in the repo: wire::Host, wire::StormClient, the
// examples and the tests all move their bytes through it.
//
// The paper's artifact was a kernel patch; on a laptop without raw-socket
// privileges, UDP encapsulation over 127.0.0.1 is the closest runnable
// equivalent: real sockets, real scheduling, the full wire format of
// tcp/wire_format.hpp (TCP header + options + checksum) on every datagram. The
// endpoint map translates the model's IPv4 addresses to UDP ports.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "tcp/segment.hpp"
#include "tcp/wire_format.hpp"

namespace tcpz::shim {

struct TransportStats {
  std::uint64_t tx_datagrams = 0;
  std::uint64_t rx_datagrams = 0;
  std::uint64_t decode_errors = 0;  ///< datagrams the wire codec rejected
  std::uint64_t unroutable = 0;     ///< sends with no route for daddr
};

/// One endpoint: a bound, non-blocking UDP socket plus a model-address ->
/// UDP-port map. Routes are configured with add_route() and learned from
/// traffic: every decoded datagram makes its UDP source port the route for
/// its model saddr, so a reply goes back where the request came from — all
/// a stateless challenge needs (no per-flow state, only a return path).
/// Not thread-safe; use one per thread.
class UdpTransport {
 public:
  /// Binds 127.0.0.1:port (port 0 picks an ephemeral one). Throws
  /// std::runtime_error on socket errors.
  explicit UdpTransport(std::uint16_t port);
  ~UdpTransport();

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  [[nodiscard]] std::uint16_t bound_port() const { return bound_port_; }
  /// The socket, for callers that multiplex it (wire::Host's epoll loop).
  [[nodiscard]] int fd() const { return fd_; }

  /// Maps a model IPv4 address (as used in Segment saddr/daddr) to the UDP
  /// port of the process simulating that host.
  void add_route(std::uint32_t model_addr, std::uint16_t udp_port);

  /// Encodes and sends the segment toward its daddr's route. Returns false
  /// (and counts unroutable) when no route exists.
  bool send(const tcp::Segment& seg);

  /// Returns the next decodable segment. Reads first and waits (up to
  /// timeout_ms, once) only when the socket is empty, so recv(0) never
  /// blocks and draining costs one read per datagram plus one EAGAIN.
  /// Undecodable datagrams are counted and skipped. nullopt = nothing
  /// decodable arrived in time.
  [[nodiscard]] std::optional<tcp::Segment> recv(int timeout_ms);

  [[nodiscard]] const TransportStats& stats() const { return stats_; }

 private:
  int fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::unordered_map<std::uint32_t, std::uint16_t> routes_;
  TransportStats stats_;
};

}  // namespace tcpz::shim
