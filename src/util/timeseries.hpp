// Time-binned accumulators for the experiment metrics: throughput per second,
// queue occupancy over time, CPU utilisation over time. Every figure in the
// paper's evaluation that has "Time (seconds)" on the x-axis is produced from
// one of these.
#pragma once

#include <cstddef>
#include <cstdint>
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
  /// Adds `other` bin by bin; the result has the longer of the two lengths.
  TimeSeries& operator+=(const TimeSeries& other);

  [[nodiscard]] std::size_t bins() const { return bins_.size(); }
  [[nodiscard]] double total(std::size_t bin) const;
  /// Sum of every bin.
  [[nodiscard]] double sum() const;
  /// Bin total divided by bin width in seconds (e.g. bytes -> bytes/s).
  [[nodiscard]] double rate_at(std::size_t bin) const;

  /// Mean of rate_at over bins [from, to). Out-of-range bins count as zero,
  /// so averaging over a window longer than the data is well-defined.
  [[nodiscard]] double mean_rate(std::size_t from, std::size_t to) const;

 private:
  std::vector<double> bins_;
};

/// Samples an instantaneous gauge (queue depth, CPU busy fraction) on a fixed
/// time grid. Used where the paper plots a level rather than a rate.
///
/// Storage keeps no time per sample: the first two samples fix `first` and
/// `step`, and sample i is at `first + i * step`. A sample off that grid
/// throws std::logic_error. Leading samples that are bit-exact +0.0 (a client
/// that never solves records nothing else) are only counted; the values from
/// the first other sample onward are stored.
class GaugeSeries {
 public:
  void record(SimTime t, double value);
  /// Appends k samples of +0.0, as k record() calls on the grid (first,
  /// step) would: an empty series takes that grid, a non-empty one must
  /// already be on it (std::logic_error otherwise). While no other value has
  /// been stored this only bumps the counts.
  void record_zeros(std::size_t k, SimTime first, SimTime step);

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] SimTime time_at(std::size_t i) const {
    return first_ + step_ * static_cast<std::int64_t>(i);
  }
  [[nodiscard]] double value_at(std::size_t i) const {
    return i < zeros_ ? 0.0 : values_[i - zeros_];
  }
  /// The last sample's value; the series must not be empty.
  [[nodiscard]] double back() const { return value_at(count_ - 1); }

  struct Point {
    SimTime t;
    double value;
  };
  /// A materialized copy of every (time, value) sample, for callers that
  /// want one; the indexed accessors above allocate nothing.
  [[nodiscard]] std::vector<Point> points() const;

  /// Maximum value observed in [from, to].
  [[nodiscard]] double max_in(SimTime from, SimTime to) const;
  /// Mean of recorded values in [from, to] (unweighted by duration; the
  /// experiment harness samples gauges on a fixed cadence, so this is a time
  /// average).
  [[nodiscard]] double mean_in(SimTime from, SimTime to) const;

 private:
  SimTime first_;
  SimTime step_;
  std::size_t count_ = 0;
  std::size_t zeros_ = 0;  ///< leading +0.0 samples, not stored
  std::vector<double> values_;
};

}  // namespace tcpz
