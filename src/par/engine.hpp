// Sharded multi-core simulation driver (the tentpole of the parallel
// engine): partitions a scenario's agents across N worker shards, each
// owning a private net::Simulator + scenario::Engine, and advances them in
// conservative bounded-lookahead rounds. Each shard runs freely up to
// `now + L` where L is the minimum cross-shard link delay (a property of
// the topology — every cross-agent interaction flows through at least one
// such hop); cross-shard segments are exchanged via SPSC mailboxes at a
// two-phase round barrier and re-injected with their analytic arrival
// times. See DESIGN.md, "Sharded engine", for the lookahead derivation,
// the determinism contract and the mailbox memory order.
//
// Determinism: a fixed (seed, shards) pair always produces the same result
// and trace digest — mailboxes are drained in fixed source-shard order, so
// event sequence numbers are assigned identically on every repeat. With
// shards == 1 the run is byte-identical to scenario::run (it is the same
// code path). Across different shard counts results are statistically
// equivalent, not bitwise equal: derived per-agent seeding keeps every
// agent's RNG stream shard-count-independent, but cross-shard queueing is
// approximated (each shard serializes remote egress on its own portal
// link), so packet interleavings differ.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "scenario/spec.hpp"
#include "util/time.hpp"

namespace tcpz::par {

struct ParSpec {
  int shards = 1;
  /// Synchronization horizon override; zero derives it from the topology
  /// (the minimum cross-shard link delay). A smaller value only adds
  /// barriers; a larger one would break causality, so it is rejected.
  SimTime lookahead = SimTime::zero();
};

/// The agent -> owner-shard assignment par::run uses (exposed for tests).
/// Fleet replicas (plus balancer, directory, fluid populations) stay on
/// shard 0 — they share in-memory state; everything else round-robins so
/// bot/client work spreads evenly.
struct ShardPlan {
  std::vector<int> server_owner;
  std::vector<int> client_owner;
  std::vector<int> bot_owner;  ///< flat, group order
  /// Model address -> owner (servers/VIP, clients, bots) for mail routing.
  std::unordered_map<std::uint32_t, int> addr_owner;
};

[[nodiscard]] ShardPlan plan_shards(const scenario::Spec& spec, int n_shards);

/// Runs `spec` on `par.shards` worker threads. shards == 1 delegates to
/// scenario::run (byte-identical single-thread semantics). Requires a
/// positive lookahead for shards > 1.
[[nodiscard]] scenario::Result run(const scenario::Spec& spec,
                                   const ParSpec& par);

}  // namespace tcpz::par
