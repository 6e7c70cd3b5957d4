// wire::StormClient — a connection-storm load generator for wire::Host.
//
// Drives real connection attempts (sans-I/O tcp::Connector instances over
// the UDP loopback transport) at a configurable rate, concurrency cap and
// behaviour. The behaviour is an unmodified offense::AttackStrategy: the
// same strategy objects the simulator's botnet agent consults decide here
// whether a slot is a real connect (patched or legacy stack), a spoofed SYN
// or an idle beat, how to treat incoming segments (forward / bogus-ACK a
// challenge / ignore backscatter), and whether to pay for a challenge.
// Patched attempts solve challenges with a real puzzle::PuzzleEngine —
// genuine SHA-256 brute force on this thread, since Sha256PuzzleEngine
// solves against the challenge bytes alone (no server secret needed).
//
// Single-threaded and blocking: run() owns the calling thread until the
// configured duration elapses and the in-flight tail drains. Pair it with a
// started Host on another thread. It never touches the global trace
// recorder (Connector and the strategies have no trace sites), so the
// host thread stays the recorder's only writer.
#pragma once

#include <memory>
#include <string_view>
#include <unordered_map>

#include "obs/registry.hpp"
#include "offense/spec.hpp"
#include "puzzle/engine.hpp"
#include "shim/udp_transport.hpp"
#include "tcp/connector.hpp"
#include "util/rng.hpp"
#include "wire/clock.hpp"

namespace tcpz::wire {

struct StormConfig {
  /// Model address the storm's connection attempts originate from (spoofed
  /// SYNs draw their own random sources).
  std::uint32_t local_addr = tcp::ipv4(10, 2, 0, 1);
  std::uint32_t server_addr = tcp::ipv4(10, 1, 0, 1);
  std::uint16_t server_port = 80;
  /// Real UDP port of the target wire::Host (Host::bound_port()).
  std::uint16_t server_udp_port = 0;
  /// Attempt slots per second (the flood loop's emission rate).
  double conn_rate = 200.0;
  /// Concurrency cap: connect slots beyond it are counted skipped_full.
  std::size_t max_inflight = 64;
  /// Emission window; run() keeps draining in-flight attempts afterwards
  /// until they finish or time out.
  SimTime duration = SimTime::seconds(1);
  /// Recycle attempts that made no progress for this long.
  SimTime attempt_timeout = SimTime::milliseconds(500);
  SimTime syn_timeout = SimTime::milliseconds(250);
  int max_syn_retries = 2;
  /// Behaviour: any offense::StrategySpec (conn_flood patched/legacy,
  /// syn_flood, bogus_solution_flood, pulsed, ...).
  offense::StrategySpec strategy = offense::StrategySpec::conn_flood();
  /// Solver for patched attempts. May be null: challenges are then
  /// abandoned (counted solves_abandoned). Any secret works — solving needs
  /// only the challenge bytes.
  std::shared_ptr<const puzzle::PuzzleEngine> engine;
  std::uint64_t seed = 1;
  bool use_timestamps = true;
};

struct StormStats {
  std::uint64_t slots = 0;             ///< emission slots elapsed
  std::uint64_t attempts = 0;          ///< connector attempts launched
  std::uint64_t spoofed_syns = 0;
  std::uint64_t idle_slots = 0;
  std::uint64_t skipped_full = 0;      ///< connect slots lost to the cap
  std::uint64_t established = 0;       ///< handshakes completed (client view)
  std::uint64_t bogus_acks = 0;        ///< garbage-solution ACKs emitted
  std::uint64_t resets = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t solves = 0;
  std::uint64_t solves_abandoned = 0;
  std::uint64_t hash_ops = 0;          ///< real SHA-256 ops spent solving
  std::uint64_t rx_segments = 0;
  /// SYN -> established latency, in milliseconds of wall clock.
  obs::HistStats connect_ms;
  /// Wall-clock seconds from run() entry to exit (includes the drain tail).
  double elapsed_s = 0;

  [[nodiscard]] double established_per_s() const {
    return elapsed_s > 0 ? static_cast<double>(established) / elapsed_s : 0;
  }
};

/// Registers every StormStats field as storm.* metrics under `labels`
/// (counters, plus the connect latency histogram).
void register_metrics(obs::Registry& reg, const StormStats& s,
                      std::string_view labels);

class StormClient {
 public:
  /// Pass the host's clock (Host::clock()) so both sides stamp the same
  /// timeline; a default-constructed clock works too (the wire protocol
  /// only ever echoes server timestamps back).
  explicit StormClient(StormConfig cfg, Clock clock = Clock{});

  /// Runs the storm to completion and returns the statistics. Blocking;
  /// call at most once per StormClient.
  [[nodiscard]] StormStats run();

 private:
  struct Attempt {
    tcp::Connector connector;
    SimTime started;
    bool patched = false;
  };

  [[nodiscard]] offense::BotView view(SimTime now);
  void emit_slot(SimTime now);
  void handle_rx(SimTime now, const tcp::Segment& seg);
  /// Feeds connector output back through sends/solves; `port` keys the
  /// attempt (iterators don't survive the solve path).
  void apply(SimTime now, std::uint16_t port, tcp::ConnectorOutput out);
  void tick(SimTime now);
  void finish(std::uint16_t port, offense::Outcome outcome, SimTime now);
  [[nodiscard]] std::uint16_t alloc_port();
  [[nodiscard]] tcp::Segment make_spoofed_syn(SimTime now);
  void send_all(const std::vector<tcp::Segment>& segs);

  StormConfig cfg_;
  Clock clock_;
  shim::UdpTransport net_;
  Rng rng_;
  std::unique_ptr<offense::AttackStrategy> strategy_;
  std::unordered_map<std::uint16_t, Attempt> attempts_;
  std::uint16_t next_port_;
  StormStats stats_;
};

}  // namespace tcpz::wire
