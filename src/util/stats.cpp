#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace tcpz {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void SampleSet::add(double x) {
  samples_.push_back(x);
  sorted_valid_ = samples_.size() <= 1;
}

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

const std::vector<double>& SampleSet::sorted() const {
  if (!sorted_valid_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_valid_ = true;
  }
  return samples_;
}

double SampleSet::min() const { return samples_.empty() ? 0.0 : sorted().front(); }
double SampleSet::max() const { return samples_.empty() ? 0.0 : sorted().back(); }

double SampleSet::quantile(double q) const {
  if (samples_.empty()) return 0.0;
  const auto& s = sorted();
  if (s.size() == 1) return s[0];
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(s.size() - 1);
  const auto idx = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(idx);
  if (idx + 1 >= s.size()) return s.back();
  return s[idx] * (1.0 - frac) + s[idx + 1] * frac;
}

std::vector<double> SampleSet::cdf_at(const std::vector<double>& xs) const {
  std::vector<double> out;
  out.reserve(xs.size());
  const auto& s = sorted();
  for (double x : xs) {
    const auto it = std::upper_bound(s.begin(), s.end(), x);
    out.push_back(s.empty() ? 0.0
                            : static_cast<double>(it - s.begin()) /
                                  static_cast<double>(s.size()));
  }
  return out;
}

BoxplotStats BoxplotStats::from(const SampleSet& s) {
  BoxplotStats b;
  b.count = s.count();
  if (s.empty()) return b;
  b.min = s.min();
  b.q1 = s.quantile(0.25);
  b.median = s.median();
  b.q3 = s.quantile(0.75);
  b.max = s.max();
  b.mean = s.mean();
  return b;
}

}  // namespace tcpz
