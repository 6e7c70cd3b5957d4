// Layer probes for the traced pass: each times calls into one module's
// public functions on inputs shaped like the workload, and the per-op costs
// times the workload's own operation counts estimate each layer's busy
// share of the run.
#pragma once

#include <cstddef>
#include <cstdint>

#include "bench.hpp"
#include "defense/spec.hpp"
#include "puzzle/types.hpp"

namespace perfbench {

/// The workload shape the probes mimic.
struct ProbeShape {
  tcpz::defense::PolicySpec policy;
  /// Half-open entries the listener holds while probed (the workload's
  /// peak listen-queue depth).
  std::size_t listen_depth = 0;
  /// The probed listener's SYN backlog. 0 leaves room above listen_depth
  /// for every probed SYN (the stateful half-open path); the workload's
  /// own backlog, when the fill reaches it, puts an opportunistic puzzle
  /// policy on its engaged challenge path.
  std::size_t listen_backlog = 0;
  std::uint8_t sol_len = 4;
  tcpz::puzzle::Difficulty difficulty{2, 17};
  /// The simulator's oracle puzzle engine (true) or real SHA-256 puzzles.
  bool oracle = true;
};

/// Nanoseconds per operation of each probed call.
struct ProbeCosts {
  double event_ns = 0;
  double hmac_ns = 0;
  double sha256_block_ns = 0;
  double make_challenge_ns = 0;
  double verify_ns = 0;
  double solve_ns = 0;
  double listener_syn_ns = 0;
  double listener_ack_ns = 0;
  /// SYN / ACK on the stateful half-open path (an empty listen queue with
  /// room): what unchallenged handshakes cost. Equal to the two above when
  /// the workload's own path is the stateful one.
  double plain_syn_ns = 0;
  double plain_ack_ns = 0;
  double listener_tick_ns = 0;
  double connector_tick_ns = 0;
  double encode_ns = 0;
  double decode_ns = 0;
  double udp_send_ns = 0;
  double udp_recv_ns = 0;
};

/// Operation counts of one simulated run, the bases of the share estimates.
struct SimCounts {
  double run_s = 0;
  std::uint64_t events = 0;
  std::uint64_t syns = 0;
  std::uint64_t acks = 0;
  std::uint64_t challenges = 0;
  std::uint64_t solution_acks = 0;
  std::uint64_t cookies = 0;  ///< SYN-cookie encodes + decodes
  std::uint64_t listener_ticks = 0;
  std::uint64_t connector_ticks = 0;
};

ProbeCosts run_probes(const ProbeShape& shape);

/// Adds every *_ns probe metric.
void report_probe_costs(const ProbeCosts& c, Report& out);

/// Keyed-hash time of the listener's own crypto: a challenged SYN mints a
/// challenge and a stateless ISS, a solution ACK re-derives the ISS and
/// verifies, a cookie encode or decode is one HMAC.
double listener_crypto_ns(const ProbeCosts& c, const SimCounts& n);

/// Listener + Connector busy time outside crypto: challenged SYNs and
/// solution ACKs at the workload-path costs, the other SYNs and ACKs at the
/// stateful-path costs, plus ticks, minus listener_crypto_ns.
double tcp_ns(const ProbeCosts& c, const SimCounts& n);

/// Adds net.events and the net / crypto / tcp busy shares of a sim run.
void report_sim_shares(const ProbeCosts& c, const SimCounts& n, Report& out);

/// Adds the wire.* metrics as zero for workloads that never touch sockets.
void report_wire_absent(Report& out);

}  // namespace perfbench
