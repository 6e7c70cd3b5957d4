#include "sim/cpu.hpp"

#include <stdexcept>

namespace tcpz::sim {

CpuModel::CpuModel(CpuSpec spec) : spec_(spec) {
  if (spec_.hash_rate <= 0 || spec_.cores <= 0 || spec_.solver_lanes <= 0) {
    throw std::invalid_argument("CpuModel: positive spec required");
  }
  spec_.solver_lanes = std::min(spec_.solver_lanes, spec_.cores);
  lane_free_.assign(static_cast<std::size_t>(spec_.solver_lanes),
                    SimTime::zero());
}

SimTime CpuModel::submit_solve(SimTime now, std::uint64_t hash_ops) {
  std::size_t lane = 0;
  for (std::size_t i = 1; i < lane_free_.size(); ++i) {
    if (lane_free_[i] < lane_free_[lane]) lane = i;
  }
  const SimTime start = std::max(now, lane_free_[lane]);
  const SimTime end = start + solve_duration(hash_ops);
  lane_free_[lane] = end;
  recent_jobs_.emplace_back(start, end);
  return end;
}

SimTime CpuModel::earliest_lane_free() const {
  SimTime best = lane_free_[0];
  for (const SimTime t : lane_free_) best = std::min(best, t);
  return best;
}

int CpuModel::busy_lanes(SimTime now) const {
  int busy = 0;
  for (const SimTime t : lane_free_) {
    if (t > now) ++busy;
  }
  return busy;
}

int CpuModel::pending_jobs(SimTime now) {
  // Count jobs that have not completed yet; prune long-finished ones so the
  // vector stays small.
  int pending = 0;
  std::erase_if(recent_jobs_, [&](const auto& job) {
    return job.second + SimTime::seconds(30) < now;
  });
  for (const auto& [start, end] : recent_jobs_) {
    if (end > now) ++pending;
  }
  return pending;
}

double CpuModel::sample_utilization(SimTime now, SimTime window) {
  const SimTime from = now - window;
  double busy_ns = charged_ns_;
  charged_ns_ = 0.0;

  std::erase_if(recent_jobs_, [&](const auto& job) { return job.second <= from; });
  for (const auto& [start, end] : recent_jobs_) {
    const SimTime s = std::max(start, from);
    const SimTime e = std::min(end, now);
    if (e > s) busy_ns += static_cast<double>((e - s).nanos());
  }

  const double total_ns =
      static_cast<double>(window.nanos()) * static_cast<double>(spec_.cores);
  if (total_ns <= 0) return 0.0;
  return std::clamp(busy_ns / total_ns, 0.0, 1.0);
}

}  // namespace tcpz::sim
