// wire::Host — the defense layer on an actual socket.
//
// Hosts an *unmodified* tcp::Listener (and through it an unmodified
// defense::DefensePolicy) behind a non-blocking epoll loop over one
// shim::UdpTransport: the transport's UDP socket carries the full wire
// format of tcp/wire_format.hpp (20-byte TCP header, challenge/solution
// options, genuine checksum) over loopback, and the epoll_wait timeout is
// the deadline of the next on_tick(). The listener still owns the userspace
// listen/accept queue pair sized by its ListenerConfig; the host only moves
// bytes and time.
//
// UDP encapsulation instead of raw TCP sockets is deliberate: the paper's
// artifact was a kernel patch, and without CAP_NET_RAW the closest runnable
// equivalent is the byte-exact segment codec on real sockets with real
// scheduling. What IS real here: the wire encoding of every option, the
// stateless challenge/cookie round trips, wall-clock time (via wire::Clock),
// kernel socket buffers and thread scheduling. What is NOT: congestion
// control, retransmission of data, path MTU — none of which the handshake
// defenses touch.
//
// Return routing is learned, not configured: the transport remembers the
// UDP source of the last datagram decoded from each model address and the
// host answers there — exactly how the listener's statelessness is meant to
// work (a challenge response needs no per-flow state, only a return path).
//
// Threading contract: everything inside run() — the listener, the policy,
// the transport, TCPZ_TRACE sites — is touched only by the host thread.
// Callers may use bound_port()/clock() at any time; counters(), stats(),
// listener() and publish_metrics() only before start() or after join().
// The global obs::Recorder is single-writer; in a wire run the host thread
// is that writer (Connector and the offense strategies have no trace
// sites), so install the recorder before start() and read it after join().
#pragma once

#include <atomic>
#include <memory>
#include <string_view>
#include <thread>

#include "crypto/secret.hpp"
#include "obs/registry.hpp"
#include "puzzle/engine.hpp"
#include "shim/udp_transport.hpp"
#include "tcp/listener.hpp"
#include "wire/clock.hpp"

namespace tcpz::wire {

/// The transport's counters plus the loop's own.
struct HostStats : shim::TransportStats {
  std::uint64_t ticks = 0;     ///< on_tick() calls (missed ticks collapse)
  std::uint64_t wakeups = 0;   ///< epoll_wait returns
  std::uint64_t accepted = 0;  ///< connections drained via accept()
};

struct HostConfig {
  /// The listener this host embodies (policy, backlogs, difficulty — all of
  /// it; local_addr is the model address peers aim their daddr at).
  tcp::ListenerConfig listener;
  /// Real UDP port to bind on 127.0.0.1; 0 picks an ephemeral one.
  std::uint16_t udp_port = 0;
  /// on_tick()/accept-drain cadence. Wall-clock milliseconds, not sim time:
  /// this is the granularity of SYN-ACK retransmission and policy control,
  /// and the most a stop() waits. Must be positive.
  SimTime tick_interval = SimTime::milliseconds(10);
  /// Application accept() draining, the wire stand-in for the simulator's
  /// service rate µ: negative = drain everything every tick (capacity
  /// benchmarking), 0 = never accept (fills the accept queue — the §5
  /// deception scenarios), positive = that many accepts per second.
  /// Accepted connections are closed at once, so long storms don't grow the
  /// listener's established set without bound.
  double accept_rate = -1.0;
};

/// Non-blocking epoll host for one listener. Construction binds the socket;
/// start() spawns the loop thread.
class Host {
 public:
  /// Engine may be null unless the policy needs one (same contract as
  /// tcp::Listener). Throws std::runtime_error on socket/epoll errors.
  Host(HostConfig cfg, crypto::SecretKey secret, std::uint64_t seed,
       std::shared_ptr<const puzzle::PuzzleEngine> engine = nullptr);
  ~Host();

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  void start();
  /// Asks the loop to exit; it notices within one tick_interval, after a
  /// last drain of the socket (idempotent, callable from any thread).
  void stop();
  /// Waits for the loop thread; after this the listener is safe to read.
  void join();

  [[nodiscard]] std::uint16_t bound_port() const { return net_.bound_port(); }
  [[nodiscard]] const Clock& clock() const { return clock_; }

  // -- host-thread-quiescent accessors (before start() / after join()) -------
  [[nodiscard]] tcp::Listener& listener() { return listener_; }
  [[nodiscard]] const tcp::ListenerCounters& counters() const {
    return listener_.counters();
  }
  [[nodiscard]] HostStats stats() const;
  /// Registers the listener counters plus every HostStats field (wire.*)
  /// under `labels` — the same metrics JSON shape a sim run produces.
  void publish_metrics(obs::Registry& reg, std::string_view labels) const;

 private:
  void run(SimTime anchor);
  void drain_udp();
  void on_tick(SimTime now);
  void drain_accepts(SimTime now);
  void transmit(const std::vector<tcp::Segment>& segs);

  HostConfig cfg_;
  Clock clock_;
  tcp::Listener listener_;
  shim::UdpTransport net_;
  int epoll_fd_ = -1;

  std::uint64_t ticks_ = 0;
  std::uint64_t wakeups_ = 0;
  std::uint64_t accepted_ = 0;
  double accept_tokens_ = 0;

  std::thread thread_;
  std::atomic<bool> stopping_{false};
};

}  // namespace tcpz::wire
