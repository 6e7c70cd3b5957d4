// Adaptive difficulty control — the closed control loop §7 sketches as
// future work: "adapt the difficulty of the sent puzzles based on the
// behavior of the observed traffic at the server".
//
// The controller watches the listener's counters on a fixed cadence and
// derives two signals per period:
//   * challenge demand  — SYNs answered with a challenge per second
//     (how hard the connection-establishment channel is being hit), and
//   * solve yield       — valid solutions per challenge
//     (how willing/able the current client mix is to pay).
// It steps m up when demand stays above `high_demand` (the flood is not yet
// rate-limited) and steps it down toward the planned base when demand stays
// below `low_demand` (so legitimate clients stop over-paying after the
// attack fades). k is held at the planned value: m is the exponential knob
// (Fig. 6), k only shifts the verify/guess trade-off.
#pragma once

#include <cstdint>

#include "puzzle/types.hpp"
#include "tcp/counters.hpp"
#include "util/time.hpp"

namespace tcpz {

struct AdaptiveConfig {
  /// The Nash plan: the resting point, and the floor m never steps below.
  puzzle::Difficulty base{2, 17};
  std::uint8_t m_max = 22;
  /// Challenged-SYN rates (per second) bounding the dead band.
  double high_demand = 2000.0;
  double low_demand = 200.0;
  /// Consecutive periods a signal must persist before a step (debounce).
  int patience = 3;

  bool operator==(const AdaptiveConfig&) const = default;
};

class AdaptiveDifficultyController {
 public:
  explicit AdaptiveDifficultyController(AdaptiveConfig cfg);

  /// The control period: one demand/yield observation per second.
  static constexpr SimTime kPeriod = SimTime::seconds(1);

  /// Feed a counters snapshot; returns the difficulty to use from now on.
  /// Call on a cadence of kPeriod or finer (extra calls within a period are
  /// ignored and return the current setting).
  [[nodiscard]] puzzle::Difficulty update(SimTime now,
                                          const tcp::ListenerCounters& counters);

  [[nodiscard]] puzzle::Difficulty current() const { return current_; }
  /// Demand and yield observed in the last completed period.
  [[nodiscard]] double last_demand() const { return last_demand_; }
  [[nodiscard]] double last_yield() const { return last_yield_; }
  [[nodiscard]] std::uint64_t steps_up() const { return steps_up_; }
  [[nodiscard]] std::uint64_t steps_down() const { return steps_down_; }

 private:
  AdaptiveConfig cfg_;
  puzzle::Difficulty current_;

  bool primed_ = false;
  SimTime last_update_;
  std::uint64_t last_challenges_ = 0;
  std::uint64_t last_valid_ = 0;

  double last_demand_ = 0.0;
  double last_yield_ = 0.0;
  int high_streak_ = 0;
  int low_streak_ = 0;
  std::uint64_t steps_up_ = 0;
  std::uint64_t steps_down_ = 0;
};

}  // namespace tcpz
