// Host CPU model. Solving a puzzle costs hash_ops / hash_rate seconds of one
// core; the kernel patch solves inline (serially), so a host has a small
// number of "solver lanes" (1 for a stock client; attack tools may run
// more). Verification and per-packet costs are charged as instantaneous
// busy time. The utilisation gauge (Fig. 9) combines both.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/time.hpp"
#include "workload/profiles.hpp"

namespace tcpz::sim {

/// Defaults to the desktop client of Fig. 3a: 4 cores, one serial in-kernel
/// solver lane.
struct CpuSpec {
  /// SHA-256 ops/s per core (the paper's w_av / 0.4 s). Once a scenario
  /// has resolved a solver's spec for its proof-of-work kind, this is the
  /// solver's work rate: puzzle work units/s, mem_rate under memory-bound
  /// puzzles.
  double hash_rate = workload::profiles::kClientHashRate;
  int cores = 4;
  int solver_lanes = 1;  ///< concurrent in-kernel puzzle searches
  /// Random memory accesses/s per core, for memory-bound proof-of-work
  /// (§7's Abadi et al. alternative). Memory latencies vary far less across
  /// device classes than compute throughput does — that is the whole point.
  double mem_rate = 120e6;
};

/// The Fig. 3b server: 12 cores, hardware-accelerated hashing.
[[nodiscard]] inline CpuSpec server_cpu() {
  return CpuSpec{workload::profiles::kServerHashRate, 12, 1};
}

class CpuModel {
 public:
  explicit CpuModel(CpuSpec spec);

  [[nodiscard]] const CpuSpec& spec() const { return spec_; }

  [[nodiscard]] SimTime solve_duration(std::uint64_t hash_ops) const {
    return SimTime::from_seconds(static_cast<double>(hash_ops) / spec_.hash_rate);
  }

  /// Schedules a solve job of `hash_ops` work units on the earliest-free
  /// lane; returns its completion time (>= now + duration when queued
  /// behind earlier jobs).
  [[nodiscard]] SimTime submit_solve(SimTime now, std::uint64_t hash_ops);

  /// Number of lanes still busy at `now`.
  [[nodiscard]] int busy_lanes(SimTime now) const;

  /// Time at which the least-loaded solver lane becomes free (i.e. when the
  /// next submitted job would start).
  [[nodiscard]] SimTime earliest_lane_free() const;

  /// Solve jobs submitted and not yet finished at `now` (a gauge; nothing
  /// caps it).
  [[nodiscard]] int pending_jobs(SimTime now);

  /// Instantaneous work (verification, per-packet processing): accumulated
  /// and drained by the utilisation sampler.
  void charge_hash_ops(std::uint64_t ops) {
    charged_ns_ += static_cast<double>(ops) / spec_.hash_rate * 1e9;
  }
  void charge_seconds(double sec) { charged_ns_ += sec * 1e9; }

  /// Fraction of total CPU busy over the window ending at `now`: solver
  /// lanes occupied plus charged instantaneous work. Drains the charge
  /// accumulator; call on a fixed cadence.
  [[nodiscard]] double sample_utilization(SimTime now, SimTime window);

  /// True when no charge is pending and no job is left from the last
  /// sample's prune: every later sample reads +0.0 until new work arrives.
  [[nodiscard]] bool idle() const {
    return charged_ns_ == 0.0 && recent_jobs_.empty();
  }

 private:
  CpuSpec spec_;
  std::vector<SimTime> lane_free_;
  /// (start, end) of jobs whose lane time overlaps the current window; the
  /// sampler prunes finished entries.
  std::vector<std::pair<SimTime, SimTime>> recent_jobs_;
  double charged_ns_ = 0.0;
};

}  // namespace tcpz::sim
