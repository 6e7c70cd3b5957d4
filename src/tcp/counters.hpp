// Listener-side evaluation counters, split out of listener.hpp so the
// defense-policy layer (src/defense/), adaptive controller included, can
// consume counter snapshots without pulling in the full TCP state machine.
#pragma once

#include <cstdint>

namespace tcpz::tcp {

/// The single source of truth for the counter field list. Everything that
/// iterates over "every counter" — operator+= aggregation, the golden-trace
/// digest (tests/trace_digest.hpp), the metrics registry (obs/registry.cpp)
/// — expands this table, so a newly added field can never silently go
/// un-aggregated or un-serialized again.
///
/// X(name, help). Order is load-bearing: the golden-trace digests fold
/// fields in table order, so reordering or inserting mid-table changes
/// every golden (appending only perturbs digests through the new field's
/// value). Keep new fields at the end unless a recompute is intended.
#define TCPZ_LISTENER_COUNTER_FIELDS(X)                                        \
  X(syns_received, "SYN segments received")                                    \
  X(synacks_sent, "SYN-ACKs sent, all kinds")                                  \
  X(plain_synacks, "SYN-ACKs with no challenge and no cookie")                 \
  X(challenges_sent, "puzzle challenges minted")                               \
  X(cookies_sent, "SYN cookies minted")                                        \
  X(synack_retx, "SYN-ACK retransmissions")                                    \
  X(drops_queue_overflow, "SYNs dropped: listen queue full, no stateless answer possible") \
  X(drops_policy, "SYNs dropped by policy directive (defense::SynAction::kDrop)") \
  X(acks_received, "ACK segments received")                                    \
  X(solution_acks, "ACKs carrying a puzzle solution")                          \
  X(solutions_valid, "puzzle solutions verified")                              \
  X(solutions_invalid, "puzzle solutions with wrong bytes")                    \
  X(solutions_expired, "puzzle solutions outside the freshness window")        \
  X(solutions_bad_ackno, "solution ACKs not binding our stateless ISS")        \
  X(solutions_duplicate, "replays of an already-admitted flow")                \
  X(acks_ignored_accept_full, "solution ACKs ignored: accept queue full (deception)") \
  X(cookies_valid, "SYN-cookie ACKs decoded")                                  \
  X(cookies_invalid, "SYN-cookie ACKs that failed to decode")                  \
  X(cookie_drops_accept_full, "valid cookies dropped: accept queue full")      \
  X(acks_pending_accept, "handshakes done but parked: accept queue full")      \
  X(established_total, "connections admitted, all paths")                      \
  X(established_queue, "admitted via the stateful listen queue")               \
  X(established_cookie, "admitted via SYN-cookie decode")                      \
  X(established_puzzle, "admitted via puzzle solution")                        \
  X(half_open_expired, "half-open entries that exhausted retries")             \
  X(rsts_sent, "RSTs sent for unknown flows")                                  \
  X(data_segments, "data segments on established flows")                       \
  X(data_unknown_flow, "data segments matching no flow")                       \
  X(secret_rotations, "puzzle-secret epochs installed")                        \
  X(solutions_valid_prev_epoch, "solutions verified in the rotation overlap window") \
  X(solutions_replay_filtered, "cluster-level replay rejections")              \
  X(crypto_hash_ops, "hash operations charged to the server CPU model")        \
  X(fluid_syns_offered, "aggregate fluid-population SYN mass offered (whole users)") \
  X(fluid_enqueued, "fluid SYN mass admitted to the (virtual) listen queue")   \
  X(fluid_challenged, "fluid SYN mass answered with puzzle challenges")        \
  X(fluid_cookied, "fluid SYN mass answered with SYN cookies")                 \
  X(fluid_dropped, "fluid SYN mass dropped (queue overflow or policy)")        \
  X(fluid_solution_acks, "fluid solved-challenge mass re-offered as solution ACKs") \
  X(fluid_established, "fluid handshake mass admitted (accept room available)") \
  X(fluid_deceived, "fluid handshake mass ignored at full accept queue (deception)")

/// Everything the evaluation measures, in one place. All counters are
/// cumulative over the listener's lifetime. Fields are generated from
/// TCPZ_LISTENER_COUNTER_FIELDS — see the table for per-field docs.
struct ListenerCounters {
#define TCPZ_X(name, help) std::uint64_t name = 0;
  TCPZ_LISTENER_COUNTER_FIELDS(TCPZ_X)
#undef TCPZ_X

  /// SYNs dropped without a stateless answer, either cause. Kept as a helper
  /// because the two causes (queue overflow vs policy directive) were one
  /// field until the reason-code taxonomy needed them apart.
  [[nodiscard]] std::uint64_t drops_listen_full() const {
    return drops_queue_overflow + drops_policy;
  }
};

/// Field-wise accumulation, for fleet-level aggregation over replicas.
ListenerCounters& operator+=(ListenerCounters& into, const ListenerCounters& c);

}  // namespace tcpz::tcp
