// Sharded multi-core simulation driver (the tentpole of the parallel
// engine): partitions a scenario's agents across N worker shards, each
// owning a private net::Simulator + scenario::Engine, and advances them in
// conservative bounded-lookahead rounds. Each shard runs freely up to
// `now + L` where L = spec.net.link_delay, the minimum cross-shard link
// delay (a property of the topology — every cross-agent interaction flows
// through at least one such hop); cross-shard segments are exchanged via
// SPSC mailboxes at a two-phase round barrier and re-injected with their
// analytic arrival times. See DESIGN.md, "Sharded engine", for the
// lookahead derivation, the determinism contract and the mailbox memory
// order.
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

#include "scenario/engine.hpp"

namespace tcpz::par {

struct ParSpec {
  int shards = 1;
};

/// Where par::run places every agent (exposed for tests): the owner shard
/// of each roster index. Fleet replicas (plus balancer, directory, fluid
/// populations) stay on shard 0 — they share in-memory state; everything
/// else round-robins per role so bot/client work spreads evenly.
struct ShardPlan {
  std::vector<scenario::Agent> roster;
  std::vector<int> owner;  ///< per roster index
  /// Model address -> owner (servers/VIP, clients, bots) for mail routing.
  std::unordered_map<std::uint32_t, int> addr_owner;
};

[[nodiscard]] ShardPlan plan_shards(const scenario::Spec& spec, int n_shards);

/// Runs `spec` on `par.shards` worker threads. shards == 1 delegates to
/// scenario::run (byte-identical single-thread semantics). For shards > 1
/// the lookahead is spec.net.link_delay, which must be positive.
[[nodiscard]] scenario::Result run(const scenario::Spec& spec,
                                   const ParSpec& par);

}  // namespace tcpz::par
