// Concrete attack strategies.
//
// The paper's three (SYN flood, connection flood, bogus-solution flood)
// consume no randomness of their own, so a fixed-seed scenario reproduces
// byte-for-byte (tests/scenario_trace_test.cpp pins all three).
//
// The others open the attacker models the paper only gestures at:
//  * PulsedStrategy      — shrew-style on/off duty cycles aimed at the
//                          opportunistic latch hysteresis (burst while
//                          protection is down, go quiet until it disengages);
//  * GameAdaptiveStrategy— a rational attacker that observes the minted
//                          difficulty and re-plans its solve-vs-spray split
//                          from the §3-§4 game's best response;
//  * MultiTargetStrategy — fleet-aware: spreads attempts across every
//                          addressable replica instead of concentrating on
//                          one (the scenario engine's multi-server topology).
// Mixed heterogeneous botnets are not a strategy: the scenario engine takes
// a vector of attack groups, each with its own strategy and CpuSpec.
#pragma once

#include "offense/spec.hpp"
#include "offense/strategy.hpp"

namespace tcpz::offense {

/// Spoofed-source SYNs at the configured rate; all backscatter ignored.
class SynFloodStrategy final : public AttackStrategy {
 public:
  [[nodiscard]] const char* name() const override { return "syn-flood"; }
  [[nodiscard]] SlotDecision on_slot(const BotView&) override {
    return {SlotAction::kSpoofedSyn, false, 0};
  }
  [[nodiscard]] RxAction on_rx(const BotView&, const tcp::Segment&) override {
    return RxAction::kIgnore;
  }
};

/// Real three-way handshakes. Patched bots solve challenges (serially,
/// through the CPU model); legacy bots plain-ACK them and believe they
/// connected.
class ConnFloodStrategy final : public AttackStrategy {
 public:
  explicit ConnFloodStrategy(bool patched) : patched_(patched) {}
  [[nodiscard]] const char* name() const override {
    return patched_ ? "conn-flood" : "conn-flood-legacy";
  }
  [[nodiscard]] SlotDecision on_slot(const BotView&) override {
    return {SlotAction::kConnect, patched_, 0};
  }

 private:
  bool patched_;
};

/// Completes the exchange but answers challenges with garbage bytes
/// instantly, forcing the server to spend verification work (§7).
class BogusSolutionFloodStrategy final : public AttackStrategy {
 public:
  [[nodiscard]] const char* name() const override {
    return "bogus-solution-flood";
  }
  [[nodiscard]] SlotDecision on_slot(const BotView&) override {
    // Looks like a legacy stack to the connector; the agent intercepts the
    // challenge SYN-ACK itself (on_rx) and bogus-ACKs it.
    return {SlotAction::kConnect, false, 0};
  }
  [[nodiscard]] RxAction on_rx(const BotView&,
                               const tcp::Segment& seg) override {
    return seg.is_syn_ack() && seg.options.challenge ? RxAction::kBogusAck
                                                     : RxAction::kForward;
  }
};

/// Shrew-style duty-cycled attack. The phase is anchored at attack_start, so
/// a burst hits, latches the opportunistic protection, and the off phase is
/// the bet that the hold timer expires (protection disengages) before the
/// next burst — the classic way to ride control-loop hysteresis.
class PulsedStrategy final : public AttackStrategy {
 public:
  explicit PulsedStrategy(const StrategySpec& spec) : spec_(spec) {}
  [[nodiscard]] const char* name() const override { return "pulsed"; }
  [[nodiscard]] SlotDecision on_slot(const BotView& v) override;

 private:
  StrategySpec spec_;
};

/// A rational attacker playing the paper's own game: it treats the observed
/// puzzle difficulty as the posted price ℓ(p) and splits each slot between
/// *solving* (a patched connection attempt, paying the price) and *spraying*
/// (a free spoofed SYN) so that its solving rate tracks the best response
/// x*(ℓ) = argmax w log(1+x) − ℓx − 1/(µ−x) of Eq. (4), recomputed through
/// game::solve_equilibrium whenever the minted difficulty changes (e.g. when
/// the §7 adaptive defense retunes m). When the price exceeds the valuation
/// it abandons solving entirely but keeps a trickle of probe connects alive
/// so a later price decrease is observed and triggers a re-plan.
class GameAdaptiveStrategy final : public AttackStrategy {
 public:
  explicit GameAdaptiveStrategy(const StrategySpec& spec);
  [[nodiscard]] const char* name() const override { return "game-adaptive"; }
  [[nodiscard]] SlotDecision on_slot(const BotView& v) override;
  [[nodiscard]] ChallengeAction on_challenge(
      const BotView& v, const puzzle::Challenge& challenge) override;
  void on_outcome(const BotView& v, Outcome outcome) override;

  /// The best-response solving rate x*(ℓ) currently planned (attempts/s).
  [[nodiscard]] double planned_solve_rate() const { return solve_rate_; }
  /// The price ℓ(p) the plan responds to (expected hashes per connection;
  /// 0 once the attacker has inferred the server posts no price).
  [[nodiscard]] double observed_price() const { return price_; }
  [[nodiscard]] std::uint64_t replans() const { return replans_; }

 private:
  void replan(puzzle::Difficulty diff);

  /// Consecutive unchallenged establishments before the attacker concludes
  /// the server is undefended (price 0) and takes every slot.
  static constexpr int kFreeRideStreak = 8;
  /// When fully priced out, the fraction of slots spent on patched probe
  /// connects so a later difficulty decrease is still observed (the probes
  /// are abandoned at the challenge, so they cost no solver time).
  static constexpr double kProbeProbability = 0.02;

  StrategySpec spec_;
  puzzle::Difficulty observed_;
  double price_ = 0.0;
  double solve_rate_ = 0.0;
  double solve_prob_ = 0.0;
  int unchallenged_streak_ = 0;
  std::uint64_t replans_ = 0;
};

/// Fleet-aware flood: round-robins attempts across every addressable
/// replica, so no single server sees the full rate (and per-server
/// protection latches see 1/n of the flood each).
class MultiTargetStrategy final : public AttackStrategy {
 public:
  explicit MultiTargetStrategy(const StrategySpec& spec) : spec_(spec) {}
  [[nodiscard]] const char* name() const override { return "multi-target"; }
  [[nodiscard]] SlotDecision on_slot(const BotView& v) override {
    const std::size_t target = next_++ % (v.n_targets ? v.n_targets : 1);
    return {spec_.spread_spoofed ? SlotAction::kSpoofedSyn
                                 : SlotAction::kConnect,
            spec_.patched, target};
  }

 private:
  StrategySpec spec_;
  std::size_t next_ = 0;
};

}  // namespace tcpz::offense
