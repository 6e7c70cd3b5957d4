#include "util/timeseries.hpp"

#include <algorithm>

namespace tcpz {

void TimeSeries::add(SimTime t, double weight) {
  if (t.nanos() < 0) return;
  const auto bin = static_cast<std::size_t>(t.nanos() / kBinWidth.nanos());
  if (bin >= bins_.size()) bins_.resize(bin + 1, 0.0);
  bins_[bin] += weight;
}

double TimeSeries::total(std::size_t bin) const {
  return bin < bins_.size() ? bins_[bin] : 0.0;
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
  points_.push_back({t, value});
}

double GaugeSeries::max_in(SimTime from, SimTime to) const {
  double best = 0.0;
  for (const auto& p : points_) {
    if (p.t >= from && p.t <= to) best = std::max(best, p.value);
  }
  return best;
}

double GaugeSeries::mean_in(SimTime from, SimTime to) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& p : points_) {
    if (p.t >= from && p.t <= to) {
      sum += p.value;
      ++n;
    }
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace tcpz
