#include "core/adaptive.hpp"

#include <stdexcept>

namespace tcpz {

AdaptiveDifficultyController::AdaptiveDifficultyController(AdaptiveConfig cfg)
    : cfg_(cfg), current_(cfg.base) {
  if (cfg_.base.m < 1 || cfg_.base.m > cfg_.m_max) {
    throw std::invalid_argument("AdaptiveConfig: need 1 <= base.m <= m_max");
  }
  if (cfg_.patience < 1) {
    throw std::invalid_argument("AdaptiveConfig: patience must be >= 1");
  }
  if (cfg_.low_demand < 0 || cfg_.high_demand <= cfg_.low_demand) {
    throw std::invalid_argument("AdaptiveConfig: need high_demand > low_demand >= 0");
  }
}

puzzle::Difficulty AdaptiveDifficultyController::update(
    SimTime now, const tcp::ListenerCounters& counters) {
  if (!primed_) {
    primed_ = true;
    last_update_ = now;
    last_challenges_ = counters.challenges_sent;
    last_valid_ = counters.solutions_valid;
    return current_;
  }
  const SimTime elapsed = now - last_update_;
  if (elapsed < kPeriod) return current_;

  const double secs = elapsed.to_seconds();
  const std::uint64_t challenges =
      counters.challenges_sent - last_challenges_;
  const std::uint64_t valid = counters.solutions_valid - last_valid_;
  last_update_ = now;
  last_challenges_ = counters.challenges_sent;
  last_valid_ = counters.solutions_valid;

  last_demand_ = static_cast<double>(challenges) / secs;
  last_yield_ = challenges
                    ? static_cast<double>(valid) / static_cast<double>(challenges)
                    : 0.0;

  if (last_demand_ >= cfg_.high_demand) {
    ++high_streak_;
    low_streak_ = 0;
  } else if (last_demand_ <= cfg_.low_demand) {
    ++low_streak_;
    high_streak_ = 0;
  } else {
    high_streak_ = 0;
    low_streak_ = 0;
  }

  if (high_streak_ >= cfg_.patience && current_.m < cfg_.m_max) {
    ++current_.m;
    ++steps_up_;
    high_streak_ = 0;
  } else if (low_streak_ >= cfg_.patience) {
    // Relax toward (but never below) the planned base.
    if (current_.m > cfg_.base.m) {
      --current_.m;
      ++steps_down_;
    }
    low_streak_ = 0;
  }
  return current_;
}

}  // namespace tcpz
