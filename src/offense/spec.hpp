// Declarative, value-type description of an attack strategy — what scenario
// specs, attack-group lists, bot configs and result files carry around, and
// what the concrete strategies read their knobs from; the offense-side
// mirror of defense::PolicySpec. A spec is copyable and comparable where a
// live strategy (stateful, non-copyable) is not; build() turns it into a
// fresh AttackStrategy instance.
#pragma once

#include <memory>

#include "offense/strategy.hpp"
#include "workload/profiles.hpp"

namespace tcpz::offense {

struct StrategySpec {
  enum class Kind : std::uint8_t {
    kSynFlood,            ///< spoofed SYNs, never completes a handshake
    kConnFlood,           ///< real handshakes (patched or legacy stack)
    kBogusSolutionFlood,  ///< garbage solutions, burns verification CPU (§7)
    kPulsed,              ///< shrew-style on/off duty cycle
    kGameAdaptive,        ///< best-response solve-vs-spray split (§3-§4 game)
    kMultiTarget,         ///< spreads attempts across every replica
  };

  Kind kind = Kind::kConnFlood;

  /// Patched kernel? Patched bots solve challenges; legacy bots plain-ACK
  /// them (kConnFlood, kPulsed, kMultiTarget).
  bool patched = true;

  // -- kPulsed --
  SimTime pulse_period = SimTime::seconds(20);  ///< full on+off cycle length
  double pulse_duty = 0.25;  ///< fraction of the period spent on
  bool pulse_spoofed = false;  ///< burst spoofed SYNs instead of connects

  // -- kGameAdaptive --
  /// The attacker's per-connection valuation w_a, in expected hash
  /// operations it is willing to pay (the §3 follower's utility currency).
  double valuation = 1.5e5;
  /// Believed server service rate µ for the congestion term of Eq. (4).
  double mu = workload::profiles::kServiceRateMu;
  /// Price assumed until the first challenge is observed.
  puzzle::Difficulty assumed{2, 17};
  /// The bot's emission rate (slots per second), so the best-response rate
  /// converts to a per-slot solve probability. The scenario engine fills it
  /// from the attack group's rate.
  double slot_rate = 500.0;

  // -- kMultiTarget --
  bool spread_spoofed = false;  ///< spread spoofed SYNs instead of connects

  bool operator==(const StrategySpec&) const = default;

  // -- canonical specs -------------------------------------------------------
  [[nodiscard]] static StrategySpec of(Kind k) {
    StrategySpec s;
    s.kind = k;
    return s;
  }
  [[nodiscard]] static StrategySpec syn_flood() { return of(Kind::kSynFlood); }
  [[nodiscard]] static StrategySpec conn_flood(bool patched = true) {
    StrategySpec s = of(Kind::kConnFlood);
    s.patched = patched;
    return s;
  }
  [[nodiscard]] static StrategySpec bogus_solution_flood() {
    return of(Kind::kBogusSolutionFlood);
  }
  [[nodiscard]] static StrategySpec pulsed(SimTime period, double duty,
                                           bool spoofed = false,
                                           bool patched = true) {
    StrategySpec s = of(Kind::kPulsed);
    s.pulse_period = period;
    s.pulse_duty = duty;
    s.pulse_spoofed = spoofed;
    s.patched = patched;
    return s;
  }
  [[nodiscard]] static StrategySpec game_adaptive(
      double valuation, double mu = workload::profiles::kServiceRateMu) {
    StrategySpec s = of(Kind::kGameAdaptive);
    s.valuation = valuation;
    s.mu = mu;
    return s;
  }
  [[nodiscard]] static StrategySpec multi_target(bool patched = true) {
    StrategySpec s = of(Kind::kMultiTarget);
    s.patched = patched;
    return s;
  }

  /// Builds a fresh strategy instance.
  [[nodiscard]] std::unique_ptr<AttackStrategy> build() const;
};

[[nodiscard]] const char* to_string(StrategySpec::Kind kind);

}  // namespace tcpz::offense
