// Small statistics toolkit used by the metrics collectors and the benchmark
// harnesses: streaming moments, percentiles/CDFs over stored samples, and
// boxplot summaries (Fig. 12 of the paper is a boxplot).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace tcpz {

/// Streaming mean/variance via Welford's algorithm. O(1) memory; numerically
/// stable for long runs.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Stores samples and answers order-statistics queries. Sorting is lazy and
/// cached; adding a sample invalidates the cache.
class SampleSet {
 public:
  void add(double x);
  void reserve(std::size_t n) { samples_.reserve(n); }

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Linear-interpolated quantile, q in [0, 1]. Empty set returns 0.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }

  /// Empirical CDF evaluated at the given points: fraction of samples <= x.
  [[nodiscard]] std::vector<double> cdf_at(const std::vector<double>& xs) const;

  /// The sorted samples (useful for dumping a full empirical CDF).
  [[nodiscard]] const std::vector<double>& sorted() const;

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_valid_ = true;
};

/// Five-number summary plus mean, as plotted in a boxplot.
struct BoxplotStats {
  double min = 0, q1 = 0, median = 0, q3 = 0, max = 0, mean = 0;
  std::size_t count = 0;

  [[nodiscard]] static BoxplotStats from(const SampleSet& s);
};

/// Floor-carry accumulation of fractional (fluid) mass into an integer
/// total: the sub-unit remainder carries over to the next add, so long runs
/// count every whole unit. Mass must be non-negative.
struct FloorCarry {
  double frac = 0;
  void add(std::uint64_t& total, double mass) {
    frac += mass;
    const double whole = std::floor(frac);
    total += static_cast<std::uint64_t>(whole);
    frac -= whole;
  }
};

}  // namespace tcpz
