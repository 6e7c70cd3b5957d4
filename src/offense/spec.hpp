// Declarative, value-type description of an attack strategy — what scenario
// specs, attack-group lists and result files carry around; the offense-side
// mirror of defense::PolicySpec. A spec is copyable and comparable where a
// live strategy (stateful, non-copyable) is not; build() turns it into a
// fresh AttackStrategy instance.
#pragma once

#include <memory>

#include "offense/strategies.hpp"

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

  // kPulsed knobs (semantics documented on PulsedConfig).
  SimTime pulse_period = SimTime::seconds(20);
  double pulse_duty = 0.25;
  bool pulse_spoofed = false;

  // kGameAdaptive knobs (semantics documented on GameAdaptiveConfig).
  double valuation = 1.5e5;
  double mu = 1100.0;
  puzzle::Difficulty assumed{2, 17};
  /// Filled by the scenario engine from the attack group's emission rate.
  double slot_rate = 500.0;

  // kMultiTarget knobs.
  bool spread_spoofed = false;

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
  [[nodiscard]] static StrategySpec game_adaptive(double valuation,
                                                  double mu = 1100.0) {
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

  /// Factory form, for AttackerAgentConfig::strategy.
  [[nodiscard]] StrategyFactory factory() const {
    return [spec = *this] { return spec.build(); };
  }
};

[[nodiscard]] const char* to_string(StrategySpec::Kind kind);

}  // namespace tcpz::offense
