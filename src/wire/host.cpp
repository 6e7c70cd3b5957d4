#include "wire/host.hpp"

#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "obs/trace.hpp"

namespace tcpz::wire {
namespace {

/// epoll_wait timeout for a wait of `left`: whole milliseconds rounded up,
/// so the loop wakes at or after the deadline and never spins short of it.
int timeout_ms(SimTime left) {
  if (left <= SimTime::zero()) return 0;
  return static_cast<int>((left.nanos() + 999'999) / 1'000'000);
}

}  // namespace

Host::Host(HostConfig cfg, crypto::SecretKey secret, std::uint64_t seed,
           std::shared_ptr<const puzzle::PuzzleEngine> engine)
    : cfg_(cfg),
      listener_(cfg.listener, secret, seed, std::move(engine)),
      net_(cfg.udp_port) {
  if (cfg_.tick_interval <= SimTime::zero()) {
    throw std::invalid_argument("wire::Host: tick_interval must be positive");
  }
  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) {
    throw std::runtime_error(std::string("wire::Host: epoll_create1: ") +
                             std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = net_.fd();
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, net_.fd(), &ev) != 0) {
    const int err = errno;
    ::close(epoll_fd_);
    throw std::runtime_error(std::string("wire::Host: epoll_ctl: ") +
                             std::strerror(err));
  }
}

Host::~Host() {
  stop();
  join();
  ::close(epoll_fd_);
}

void Host::start() {
  if (thread_.joinable()) return;
  stopping_.store(false, std::memory_order_relaxed);
  const SimTime anchor = clock_.now();
  // The recorder slot is thread_local (single-writer contract, see
  // obs/trace.hpp): hand the caller's installed recorder to the loop thread,
  // which installs it for exactly the run() scope and is its only writer —
  // the documented "install before start(), read after join()" behavior.
  obs::Recorder* rec = obs::recorder();
  thread_ = std::thread([this, rec, anchor] {
    obs::ScopedRecorder scoped(rec);
    run(anchor);
  });
}

void Host::stop() { stopping_.store(true, std::memory_order_relaxed); }

void Host::join() {
  if (thread_.joinable()) thread_.join();
}

void Host::run(SimTime anchor) {
  // Ticks sit on the grid anchor + k * tick_interval; the wait for the next
  // grid point is the epoll timeout, so an idle socket costs one wakeup per
  // tick and a stop() is seen within one tick.
  const SimTime interval = cfg_.tick_interval;
  SimTime next_tick = anchor + interval;
  while (!stopping_.load(std::memory_order_relaxed)) {
    epoll_event ev;
    const int n =
        ::epoll_wait(epoll_fd_, &ev, 1, timeout_ms(next_tick - clock_.now()));
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    ++wakeups_;
    if (n > 0) drain_udp();
    const SimTime now = clock_.now();
    if (now >= next_tick) {
      // Missed grid points collapse into one tick: the listener's timers are
      // deadline-based, so one on_tick() at the current time does everything
      // the missed ones would have.
      on_tick(now);
      next_tick =
          anchor + interval * ((now - anchor).nanos() / interval.nanos() + 1);
    }
  }
  // Whatever reached the socket before stop() is still processed.
  drain_udp();
}

void Host::drain_udp() {
  while (const auto seg = net_.recv(0)) {
    transmit(listener_.on_segment(clock_.now(), *seg));
  }
}

void Host::on_tick(SimTime now) {
  ++ticks_;
  transmit(listener_.on_tick(now));
  drain_accepts(now);
}

void Host::drain_accepts(SimTime now) {
  if (cfg_.accept_rate == 0) return;
  if (cfg_.accept_rate > 0) {
    accept_tokens_ += cfg_.accept_rate * cfg_.tick_interval.to_seconds();
    // Bound the burst after an idle stretch to one second's worth.
    if (accept_tokens_ > cfg_.accept_rate) accept_tokens_ = cfg_.accept_rate;
  }
  while (cfg_.accept_rate < 0 || accept_tokens_ >= 1.0) {
    const auto conn = listener_.accept(now);
    if (!conn) break;
    if (cfg_.accept_rate > 0) accept_tokens_ -= 1.0;
    ++accepted_;
    listener_.close(conn->flow);
  }
}

void Host::transmit(const std::vector<tcp::Segment>& segs) {
  for (const tcp::Segment& seg : segs) (void)net_.send(seg);
}

HostStats Host::stats() const {
  return {net_.stats(), ticks_, wakeups_, accepted_};
}

void Host::publish_metrics(obs::Registry& reg, std::string_view labels) const {
  const HostStats s = stats();
  obs::register_metrics(reg, listener_.counters(), labels);
  reg.counter("wire.rx_datagrams", labels,
              static_cast<double>(s.rx_datagrams),
              "datagrams received by the wire host");
  reg.counter("wire.tx_datagrams", labels,
              static_cast<double>(s.tx_datagrams),
              "datagrams transmitted by the wire host");
  reg.counter("wire.decode_errors", labels,
              static_cast<double>(s.decode_errors),
              "datagrams the wire codec rejected");
  reg.counter("wire.unroutable", labels, static_cast<double>(s.unroutable),
              "segments with no learned return path");
  reg.counter("wire.ticks", labels, static_cast<double>(s.ticks),
              "timer ticks processed");
  reg.counter("wire.wakeups", labels, static_cast<double>(s.wakeups),
              "epoll wakeups");
  reg.counter("wire.accepted", labels, static_cast<double>(s.accepted),
              "connections drained via accept()");
}

}  // namespace tcpz::wire
