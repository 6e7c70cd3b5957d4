#include "util/timeseries.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>

namespace tcpz {

void TimeSeries::add(SimTime t, double weight) {
  if (t.nanos() < 0) return;
  const auto bin = static_cast<std::size_t>(t.nanos() / kBinWidth.nanos());
  if (bin >= bins_.size()) bins_.resize(bin + 1, 0.0);
  bins_[bin] += weight;
}

TimeSeries& TimeSeries::operator+=(const TimeSeries& other) {
  const std::size_t n = other.bins_.size();
  if (n > bins_.size()) bins_.resize(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) bins_[i] += other.bins_[i];
  return *this;
}

double TimeSeries::total(std::size_t bin) const {
  return bin < bins_.size() ? bins_[bin] : 0.0;
}

double TimeSeries::sum() const {
  double s = 0.0;
  for (const double b : bins_) s += b;
  return s;
}

double TimeSeries::rate_at(std::size_t bin) const {
  return total(bin) / kBinWidth.to_seconds();
}

double TimeSeries::mean_rate(std::size_t from, std::size_t to) const {
  if (to <= from) return 0.0;
  double sum = 0.0;
  for (std::size_t i = from; i < to; ++i) sum += rate_at(i);
  return sum / static_cast<double>(to - from);
}

void GaugeSeries::record(SimTime t, double value) {
  if (count_ == 0) {
    first_ = t;
  } else {
    if (count_ == 1) step_ = t - first_;
    if (step_ <= SimTime::zero() || t != time_at(count_)) {
      throw std::logic_error("GaugeSeries: sample off the fixed time grid");
    }
  }
  if (values_.empty() && std::bit_cast<std::uint64_t>(value) == 0) {
    ++zeros_;
  } else {
    values_.push_back(value);
  }
  ++count_;
}

void GaugeSeries::record_zeros(std::size_t k, SimTime first, SimTime step) {
  if (k == 0) return;
  if (count_ == 0) first_ = first;
  if (count_ <= 1) step_ = step;
  if (step_ <= SimTime::zero() || first != first_ || step != step_) {
    throw std::logic_error("GaugeSeries: zeros off the fixed time grid");
  }
  if (values_.empty()) {
    zeros_ += k;
  } else {
    values_.insert(values_.end(), k, 0.0);
  }
  count_ += k;
}

std::vector<GaugeSeries::Point> GaugeSeries::points() const {
  std::vector<Point> out;
  out.reserve(count_);
  for (std::size_t i = 0; i < count_; ++i) {
    out.push_back({time_at(i), value_at(i)});
  }
  return out;
}

double GaugeSeries::max_in(SimTime from, SimTime to) const {
  double best = 0.0;
  for (std::size_t i = 0; i < count_; ++i) {
    const SimTime t = time_at(i);
    if (t >= from && t <= to) best = std::max(best, value_at(i));
  }
  return best;
}

double GaugeSeries::mean_in(SimTime from, SimTime to) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < count_; ++i) {
    const SimTime t = time_at(i);
    if (t >= from && t <= to) {
      sum += value_at(i);
      ++n;
    }
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace tcpz
