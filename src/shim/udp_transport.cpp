#include "shim/udp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace tcpz::shim {
namespace {

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

}  // namespace

UdpTransport::UdpTransport(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  if (fd_ < 0) {
    throw std::runtime_error(std::string("UdpTransport: socket: ") +
                             std::strerror(errno));
  }
  sockaddr_in addr = loopback(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd_);
    throw std::runtime_error(std::string("UdpTransport: bind: ") +
                             std::strerror(err));
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const int err = errno;
    ::close(fd_);
    throw std::runtime_error(std::string("UdpTransport: getsockname: ") +
                             std::strerror(err));
  }
  bound_port_ = ntohs(addr.sin_port);
}

UdpTransport::~UdpTransport() {
  if (fd_ >= 0) ::close(fd_);
}

void UdpTransport::add_route(std::uint32_t model_addr, std::uint16_t udp_port) {
  routes_[model_addr] = udp_port;
}

bool UdpTransport::send(const tcp::Segment& seg) {
  const auto it = routes_.find(seg.daddr);
  if (it == routes_.end()) {
    ++stats_.unroutable;
    return false;
  }
  const Bytes wire = tcp::encode_segment(seg);
  const sockaddr_in dst = loopback(it->second);
  const ssize_t n =
      ::sendto(fd_, wire.data(), wire.size(), 0,
               reinterpret_cast<const sockaddr*>(&dst), sizeof dst);
  if (n != static_cast<ssize_t>(wire.size())) return false;
  ++stats_.tx_datagrams;
  return true;
}

std::optional<tcp::Segment> UdpTransport::recv(int timeout_ms) {
  std::uint8_t buf[2048];
  bool waited = timeout_ms == 0;
  for (;;) {
    sockaddr_in src{};
    socklen_t slen = sizeof src;
    const ssize_t n = ::recvfrom(fd_, buf, sizeof buf, 0,
                                 reinterpret_cast<sockaddr*>(&src), &slen);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) return std::nullopt;
      if (waited) return std::nullopt;
      waited = true;
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, timeout_ms) <= 0) return std::nullopt;
      continue;
    }
    ++stats_.rx_datagrams;
    auto result = tcp::decode_segment(
        std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)));
    if (!result.segment) {
      ++stats_.decode_errors;
      continue;
    }
    routes_[result.segment->saddr] = ntohs(src.sin_port);
    return std::move(result.segment);
  }
}

}  // namespace tcpz::shim
