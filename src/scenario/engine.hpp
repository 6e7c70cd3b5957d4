// The scenario engine behind scenario::run(), exposed as a class so the
// sharded driver (src/par/) can build one engine per worker shard and step
// them in bounded-lookahead rounds.
//
// An Engine owns one net::Simulator plus the slice of the Fig. 16 world a
// shard is responsible for. With no ShardEnv (or n_shards == 1) it builds
// the whole scenario — exactly what scenario::run() executes.
//
// With a ShardEnv, only the agents the env assigns to this shard are
// instantiated (plus the backbone-router skeleton every shard shares), and
// routes for remote addresses point at net::PortalNode egress portals: a
// segment bound for another shard is captured one propagation hop early,
// stamped with its analytic arrival time (see portal.hpp for the lookahead
// invariant), and handed to env.send. The par driver moves it across the
// round barrier and the owning shard re-injects it with inject() at its
// destination's access router — so the destination's access link keeps its
// full contention, which is the queueing direction that matters under flood.
#pragma once

#include <functional>
#include <memory>

#include "obs/export.hpp"
#include "scenario/spec.hpp"
#include "tcp/segment.hpp"

namespace tcpz::scenario {

/// Shard assignment handed to an Engine by the par driver. Owner vectors
/// are indexed by the agent's global index (bots flat in group order) and
/// must be identical on every shard — each engine derives both its own
/// agent set and the remote-address portal routes from them.
struct ShardEnv {
  int shard = 0;
  int n_shards = 1;
  std::vector<int> server_owner;  ///< size servers.count; fleet: all equal
  std::vector<int> client_owner;  ///< size n_discrete_clients(spec)
  std::vector<int> bot_owner;     ///< flat bot index, group order
  /// Receives (inject_time, segment) for cross-shard traffic captured by
  /// this shard's portals, on this shard's thread, during its round.
  std::function<void(SimTime, const tcp::Segment&)> send;
};

class Engine {
 public:
  /// env == nullptr (or env->n_shards == 1) builds the full scenario.
  /// Construction also starts every owned agent; the caller advances time
  /// with run_until. A recorder installed on the constructing thread (see
  /// obs/trace.hpp) witnesses construction-time trace events too.
  explicit Engine(const Spec& spec, const ShardEnv* env = nullptr);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Advances simulated time, processing every event with at <= t
  /// (inclusive, like net::Simulator::run_until).
  void run_until(SimTime t);

  /// Schedules a cross-shard segment for delivery at its destination's
  /// access router at time `at` (must be in this shard's future — the
  /// lookahead invariant guarantees it for barrier-drained messages).
  void inject(SimTime at, const tcp::Segment& seg);

  /// The conservative synchronization horizon this scenario supports: the
  /// minimum delay of any link cross-shard traffic traverses. Every
  /// cross-agent interaction flows through at least one such hop, so each
  /// shard may run `lookahead()` ahead of the others risk-free.
  [[nodiscard]] SimTime lookahead() const;

  /// Stops fleet control-plane timers and gathers reports. Vectors in the
  /// Result are full-size (global shape); slots owned by other shards are
  /// default-constructed — the par driver merges per-slot. Trace, tracks
  /// and wall_seconds are the caller's job (scenario::run / par::run).
  [[nodiscard]] Result collect();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Number of discrete client hosts a spec instantiates (the sampled cohort
/// under a hybrid model, n_clients otherwise).
[[nodiscard]] int n_discrete_clients(const Spec& spec);

/// The export track-naming table for a spec (0 = infra, 1..count = servers,
/// then one per bot flat in group order) — shared by scenario::run and the
/// par driver's post-merge export.
[[nodiscard]] obs::TrackNames track_names(const Spec& spec);

/// Model address plan (shared with src/par/ for owner lookups).
namespace addrs {
inline constexpr std::uint32_t kServerAddr = tcp::ipv4(10, 1, 0, 1);
inline constexpr std::uint16_t kServerPort = 80;
[[nodiscard]] inline std::uint32_t server(int i) {
  return kServerAddr + static_cast<std::uint32_t>(i);
}
[[nodiscard]] inline std::uint32_t client(int i) {
  return tcp::ipv4(10, 2, 0, 1) + static_cast<std::uint32_t>(i);
}
[[nodiscard]] inline std::uint32_t bot(int i) {
  return tcp::ipv4(10, 3, 0, 1) + static_cast<std::uint32_t>(i);
}
[[nodiscard]] inline bool is_bot(std::uint32_t addr) {
  return (addr & 0xffff0000u) == tcp::ipv4(10, 3, 0, 0);
}
}  // namespace addrs

}  // namespace tcpz::scenario
