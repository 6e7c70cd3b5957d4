// Time-binned accumulators for the experiment metrics: throughput per second,
// queue occupancy over time, CPU utilisation over time. Every figure in the
// paper's evaluation that has "Time (seconds)" on the x-axis is produced from
// one of these.
#pragma once

#include <cstddef>
#include <vector>

#include "util/time.hpp"

namespace tcpz {

/// Accumulates weighted events into one-second time bins starting at t=0.
/// `rate_at(i)` converts a bin's total into a per-second rate, which is how
/// throughput (bits per bin -> bps) and packet rates (packets per bin -> pps)
/// are reported.
class TimeSeries {
 public:
  /// Every report bins by the second, the x-axis unit of the paper's plots.
  static constexpr SimTime kBinWidth = SimTime::seconds(1);

  void add(SimTime t, double weight = 1.0);

  [[nodiscard]] std::size_t bins() const { return bins_.size(); }
  [[nodiscard]] double total(std::size_t bin) const;
  /// Bin total divided by bin width in seconds (e.g. bytes -> bytes/s).
  [[nodiscard]] double rate_at(std::size_t bin) const;

  /// Mean of rate_at over bins [from, to). Out-of-range bins count as zero,
  /// so averaging over a window longer than the data is well-defined.
  [[nodiscard]] double mean_rate(std::size_t from, std::size_t to) const;

 private:
  std::vector<double> bins_;
};

/// Samples an instantaneous gauge (queue depth, CPU busy fraction) on demand;
/// stores (time, value) pairs. Used where the paper plots a level rather than
/// a rate.
class GaugeSeries {
 public:
  void record(SimTime t, double value);

  struct Point {
    SimTime t;
    double value;
  };

  [[nodiscard]] const std::vector<Point>& points() const { return points_; }
  [[nodiscard]] bool empty() const { return points_.empty(); }

  /// Maximum value observed in [from, to].
  [[nodiscard]] double max_in(SimTime from, SimTime to) const;
  /// Mean of recorded values in [from, to] (unweighted by duration; the
  /// experiment harness samples gauges on a fixed cadence, so this is a time
  /// average).
  [[nodiscard]] double mean_in(SimTime from, SimTime to) const;

 private:
  std::vector<Point> points_;
};

}  // namespace tcpz
