// The concrete defense policies: the paper's three modes as first-class
// policies, the §7 adaptive closed loop as a decorator, and the "backup
// option" composed into a hybrid. See defense/policy.hpp for the contract.
#pragma once

#include <memory>
#include <string>

#include "defense/adaptive.hpp"
#include "defense/policy.hpp"
#include "defense/spec.hpp"

namespace tcpz::defense {

/// Stock TCP: no defense. SYNs drop when the listen queue is full.
class NonePolicy final : public DefensePolicy {
 public:
  [[nodiscard]] const char* name() const override { return "none"; }
  [[nodiscard]] SynDecision on_syn(SimTime now, const QueueView& q) override;
  [[nodiscard]] AckDecision on_ack(SimTime now,
                                   const QueueView& q) const override;
  [[nodiscard]] bool protection_active(const QueueView& q) const override;
};

/// The comparison baseline: stateless SYN cookies once the listen queue is
/// full (Linux semantics — cookies only under pressure).
class SynCookiePolicy final : public DefensePolicy {
 public:
  [[nodiscard]] const char* name() const override { return "syncookies"; }
  [[nodiscard]] SynDecision on_syn(SimTime now, const QueueView& q) override;
  [[nodiscard]] AckDecision on_ack(SimTime now,
                                   const QueueView& q) const override;
  [[nodiscard]] bool protection_active(const QueueView& q) const override;
};

/// The paper's defense: opportunistic client puzzles. Off in normal
/// operation (plain SYN-ACKs); once the listen queue saturates — which a
/// connection flood reaches indirectly, by parking handshake-complete
/// entries in SYN_RECV — every SYN is answered with a stateless challenge.
/// This class *is* the §5 opportunistic controller, moved out of the
/// listener: the latch + hold state lives here, fed by observe().
class PuzzlePolicy final : public DefensePolicy {
 public:
  explicit PuzzlePolicy(const PolicySpec& spec) : spec_(spec) {}

  [[nodiscard]] const char* name() const override { return "puzzles"; }
  void observe(SimTime now, const QueueView& q) override;
  [[nodiscard]] SynDecision on_syn(SimTime now, const QueueView& q) override;
  [[nodiscard]] AckDecision on_ack(SimTime now,
                                   const QueueView& q) const override;
  [[nodiscard]] bool protection_active(const QueueView& q) const override;
  [[nodiscard]] bool requires_engine() const override {
    return !spec_.cookie_fallback;
  }

  [[nodiscard]] bool latched() const { return latched_; }

 private:
  PolicySpec spec_;
  bool latched_ = false;
  SimTime hold_until_ = SimTime::zero();
};

/// The paper's "backup option" made composable: SYN cookies defend the
/// listen queue, puzzles price the accept queue. A SYN-flood (half-open
/// pressure, accept queue idle) is absorbed statelessly by cookies at zero
/// client cost; a connection flood (accept-queue pressure from completed
/// handshakes) engages puzzle challenges, which cookies alone cannot stop.
/// Challenge takes precedence once accept-side protection is latched.
class HybridPolicy final : public DefensePolicy {
 public:
  explicit HybridPolicy(const PolicySpec& spec) : spec_(spec) {}

  [[nodiscard]] const char* name() const override { return "hybrid"; }
  void observe(SimTime now, const QueueView& q) override;
  [[nodiscard]] SynDecision on_syn(SimTime now, const QueueView& q) override;
  [[nodiscard]] AckDecision on_ack(SimTime now,
                                   const QueueView& q) const override;
  [[nodiscard]] bool protection_active(const QueueView& q) const override;
  [[nodiscard]] bool requires_engine() const override { return true; }

  [[nodiscard]] bool latched() const { return latched_; }

 private:
  PolicySpec spec_;
  bool latched_ = false;
  SimTime hold_until_ = SimTime::zero();
};

/// Decorator: wraps any puzzle-minting policy and closes the §7 loop by
/// retuning the difficulty from the challenge demand / solve yield observed
/// in the listener counters on every tick. This moves the
/// AdaptiveDifficultyController *inside* the defense layer — it used to be
/// bolted onto the server agent externally.
class AdaptivePuzzlePolicy final : public DefensePolicy {
 public:
  AdaptivePuzzlePolicy(std::unique_ptr<DefensePolicy> inner,
                       AdaptiveConfig cfg);

  [[nodiscard]] const char* name() const override { return name_.c_str(); }
  void observe(SimTime now, const QueueView& q) override {
    inner_->observe(now, q);
  }
  [[nodiscard]] SynDecision on_syn(SimTime now, const QueueView& q) override {
    return inner_->on_syn(now, q);
  }
  [[nodiscard]] AckDecision on_ack(SimTime now,
                                   const QueueView& q) const override {
    return inner_->on_ack(now, q);
  }
  [[nodiscard]] TickDecision on_tick(
      SimTime now, const QueueView& q,
      const tcp::ListenerCounters& counters) override;
  [[nodiscard]] bool protection_active(const QueueView& q) const override {
    return inner_->protection_active(q);
  }
  [[nodiscard]] bool requires_engine() const override {
    return inner_->requires_engine();
  }

  [[nodiscard]] const AdaptiveDifficultyController& controller() const {
    return controller_;
  }
  [[nodiscard]] const DefensePolicy& inner() const { return *inner_; }

 private:
  std::unique_ptr<DefensePolicy> inner_;
  AdaptiveDifficultyController controller_;
  std::string name_;
};

}  // namespace tcpz::defense
