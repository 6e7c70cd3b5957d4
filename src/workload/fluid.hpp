// Hybrid fluid/discrete client population: the aggregate half.
//
// A FluidPopulation models N legitimate users as deterministic fluid flows
// instead of N discrete agents, so a scenario can carry millions of modeled
// users at a per-tick cost that is independent of N. Each simulation tick it
// advances one explicit-Euler step of an M/M/1-style flow balance:
//
//   offered    O(t)  = N*r_c*dt + retries            (open-loop demand, §6)
//   admission  split by the server's DefensePolicy   (admit_fluid_syns)
//   solving    dB/dt = challenged_in - min(B, N*lanes/T_s), B <= N*cap
//   service    dR/dt = established  - min(R, mu_f)
//
// where T_s = E[solve hashes]/hash_rate (the Fig. 3a price at the minted
// difficulty) and mu_f is this population's share of the server's service
// rate mu. Mass flows through the *real* tcp::Listener admission logic — one
// policy verdict per tick's mass, over a QueueView that folds the published
// fluid occupancy into the discrete depths — so defense policies cannot tell
// fluid pressure from discrete pressure, and the protection latch, SYN
// cookies, deception and adaptive difficulty all act on the aggregate
// exactly as they would on packets.
//
// Deliberate fluid approximations (each validated against the discrete
// model by tests/workload_test.cpp's tolerance fixture):
//  * Handshakes complete synchronously within a tick (RTT << dt).
//  * Retry timers become exponential drains at the same mean (mass *
//    dt/interval per tick) instead of per-attempt deadlines.
//  * Stateless-path mass refused at a full accept queue is the §5 deception
//    outcome: it fails fast (request answered by RST), like the discrete
//    client's reset path. Queue-path mass parks and re-offers instead,
//    holding listen-queue occupancy, like a discrete half-open entry.
//
// Everything is deterministic: no RNG anywhere, so a hybrid run's fluid
// contribution is a pure function of the spec (the discrete cohort keeps
// exact per-connection statistics).
#pragma once

#include <cstdint>

#include "puzzle/types.hpp"
#include "sim/cpu.hpp"
#include "sim/metrics.hpp"
#include "tcp/listener.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"
#include "workload/profiles.hpp"
#include "workload/spec.hpp"

namespace tcpz::workload {

struct FluidConfig {
  /// Modeled users aggregated into this population (may be fractional when
  /// a total is split across replicas).
  double users = 0;
  /// Per-user demand: request_rate (r_c), request/response bytes and the
  /// per-user solve backlog cap (max_pending_solves). The population split
  /// fields (kind, users, cohort_ratio) are not read here.
  ModelSpec model;
  /// Patched kernels solve challenges; unpatched mass counts a refusal.
  bool solve_puzzles = true;
  /// Per-user host: hash_rate prices a solve (Fig. 3a), solver_lanes bounds
  /// the concurrent in-kernel searches, cores is the utilization gauge's
  /// denominator.
  sim::CpuSpec cpu;
  /// This population's share of the server's service rate mu (req/s). The
  /// engine sets mu * fluid/(fluid + cohort) so fluid and discrete demand
  /// split the drain proportionally.
  double service_rate = profiles::kServiceRateMu;
  SimTime response_timeout = SimTime::seconds(10);
};

class FluidPopulation {
 public:
  /// `initial` is the difficulty assumed for solve pricing until the first
  /// challenge reports the actually-minted one. Series go into `series`,
  /// the caller's ledger; whole-user totals and the gauge into report().
  FluidPopulation(FluidConfig cfg, puzzle::Difficulty initial,
                  sim::RoleSeries& series);

  /// Advances one Euler step of length `dt`, pushing this tick's aggregate
  /// demand through `listener`'s fluid admission entry points and
  /// publishing the resulting queue occupancy.
  void step(SimTime now, SimTime dt, tcp::Listener& listener);

  /// Records the CPU-utilization gauge (call on the sample cadence).
  void sample(SimTime now);

  [[nodiscard]] sim::HostReport& report() { return report_; }
  [[nodiscard]] const sim::HostReport& report() const { return report_; }
  [[nodiscard]] const FluidConfig& config() const { return cfg_; }

  // -- flow-balance introspection (conservation tests) -----------------------
  [[nodiscard]] double solve_backlog() const { return solveq_; }
  [[nodiscard]] double syn_retry_backlog() const { return synretry_; }
  [[nodiscard]] double parked() const { return parked_; }
  [[nodiscard]] double service_backlog() const { return service_; }
  [[nodiscard]] double created() const { return created_; }
  [[nodiscard]] double completed() const { return completed_; }
  [[nodiscard]] double failed() const { return failed_; }
  [[nodiscard]] double refused() const { return refused_; }
  /// |created - (completed + failed + refused + in-flight pools)|. Exact
  /// conservation up to floating-point: every unit of offered mass is
  /// eventually completed, failed, refused, or still in a pool.
  [[nodiscard]] double conservation_error() const;

 private:
  void establish(SimTime now, double mass);
  void deceive(SimTime now, double mass);
  void fail(SimTime now, double mass);
  void refuse(SimTime now, double mass);

  FluidConfig cfg_;
  puzzle::Difficulty difficulty_;
  sim::HostReport report_;
  sim::RoleSeries& series_;

  // Pools (user mass).
  double solveq_ = 0;    ///< B: accepted challenges being solved
  double synretry_ = 0;  ///< dropped SYNs awaiting their retry timer
  double parked_ = 0;    ///< queue-path handshakes waiting for accept room
  double service_ = 0;   ///< R: established, awaiting the server's response

  // Conservation ledger.
  double created_ = 0;
  double completed_ = 0;
  double failed_ = 0;
  double refused_ = 0;

  // Utilization gauge state (last step's solver busy fraction).
  double solve_busy_ = 0;

  // Integer-total carries.
  FloorCarry c_attempts_, c_established_, c_completions_, c_failures_, c_rsts_,
      c_challenges_, c_refused_;
};

}  // namespace tcpz::workload
