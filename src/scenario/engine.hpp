// The scenario engine behind scenario::run(), exposed as a class so the
// sharded driver (src/par/) can build one engine per worker shard and step
// them in bounded-lookahead rounds.
//
// An Engine owns one net::Simulator plus the slice of the Fig. 16 world a
// shard is responsible for. Every agent is described once, by its entry in
// roster(spec); the engine builds hosts and agents, wires portals and
// collects reports by walking that table. With no ShardEnv (or n_shards ==
// 1) it builds the whole scenario — exactly what scenario::run() executes.
//
// With a ShardEnv, only the agents the env assigns to this shard are
// instantiated (plus the backbone-router skeleton every shard shares), and
// remote addresses route to net::PortalNode egress portals: a
// segment bound for another shard is captured one propagation hop early,
// stamped with its analytic arrival time (see portal.hpp for the lookahead
// invariant), and handed to env.send. The par driver moves it across the
// round barrier and the owning shard re-injects it with inject() at its
// destination's access router — so the destination's access link keeps its
// full contention, which is the queueing direction that matters under flood.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "obs/export.hpp"
#include "scenario/spec.hpp"
#include "tcp/segment.hpp"

namespace tcpz::scenario {

/// Agent roles, in roster order. The values are part of every agent's
/// seed id, so they are fixed.
enum class Role : std::uint8_t { kServer = 1, kClient = 2, kBot = 3 };

/// One agent of the Fig. 16 world: everything about it that construction,
/// shard placement, cross-shard routing, trace export and result merging
/// need, decided once by roster().
struct Agent {
  Role role = Role::kServer;
  std::uint8_t router = 1;  ///< access router: 1, 2 or 3 (Fig. 16 r1..r3)
  std::uint16_t track = 0;  ///< trace track; 0 = shared infra (clients)
  int index = 0;            ///< within the role; bots flat in group order
  int group = 0;            ///< attack group (bots), else 0
  int member = 0;           ///< index within the group (bots), else index
  std::uint32_t addr = 0;   ///< model address; fleet replicas share the VIP
  std::uint64_t seed_id = 0;  ///< stable id the agent's RNG seed derives from
};

/// Every agent `spec` instantiates, in build order: servers, then the
/// discrete clients, then bots in group order. A position in this vector
/// is the agent's roster index. Throws std::invalid_argument for an
/// invalid spec.
[[nodiscard]] std::vector<Agent> roster(const Spec& spec);

/// Shard assignment handed to an Engine by the par driver.
struct ShardEnv {
  int shard = 0;
  int n_shards = 1;
  /// Owner shard per roster index; identical on every shard — each engine
  /// derives both its own agent set and its portal routes from it.
  std::vector<int> owner;
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

  /// Stops fleet control-plane timers and gathers reports. Vectors in the
  /// Result are full-size (global shape); slots owned by other shards are
  /// default-constructed — the par driver merges per-slot. Trace, tracks
  /// and wall_seconds are the caller's job (scenario::run / par::run).
  /// The agents' reports move into the Result: call it once, after the
  /// last run_until.
  [[nodiscard]] Result collect();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Finishes a traced run for scenario::run and the par driver's post-merge
/// export: names the tracks (0 = infra, 1..count = servers, then one per
/// bot flat in group order), writes the Chrome trace and flows file
/// `spec.obs` asks for, and hands the recorder and names to `result`.
void export_trace(const Spec& spec, std::shared_ptr<obs::Recorder> recorder,
                  Result& result);

}  // namespace tcpz::scenario
