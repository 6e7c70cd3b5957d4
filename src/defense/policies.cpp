#include "defense/policies.hpp"

#include <stdexcept>

namespace tcpz::defense {

// ---------------------------------------------------------------------------
// NonePolicy
// ---------------------------------------------------------------------------

SynDecision NonePolicy::on_syn(SimTime now, const QueueView& q) {
  (void)now;
  if (q.listen_full) return {SynAction::kDrop, DropReason::kOverflow};
  return {SynAction::kEnqueue};
}

AckDecision NonePolicy::on_ack(SimTime now, const QueueView& q) const {
  (void)now;
  (void)q;
  return {};
}

bool NonePolicy::protection_active(const QueueView& q) const {
  (void)q;
  return false;
}

// ---------------------------------------------------------------------------
// SynCookiePolicy
// ---------------------------------------------------------------------------

SynDecision SynCookiePolicy::on_syn(SimTime now, const QueueView& q) {
  (void)now;
  if (q.listen_full) return {SynAction::kCookie};
  return {SynAction::kEnqueue};
}

AckDecision SynCookiePolicy::on_ack(SimTime now, const QueueView& q) const {
  (void)now;
  (void)q;
  // Cookies keep validating after the queue drains: a cookie minted under
  // pressure may be acknowledged seconds later.
  return {.check_solution = false, .check_cookie = true};
}

bool SynCookiePolicy::protection_active(const QueueView& q) const {
  return q.listen_full;
}

// ---------------------------------------------------------------------------
// PuzzlePolicy — the §5 opportunistic controller
// ---------------------------------------------------------------------------

void PuzzlePolicy::observe(SimTime now, const QueueView& q) {
  // §5: puzzles are "enabled when the socket's [SYN] queue is full". A
  // connection flood reaches this state indirectly: the accept queue (and
  // the application's workers) fill first, final ACKs park in SYN_RECV, and
  // the parked entries saturate the listen queue — which is the saturation
  // Fig. 10 shows. Once in effect, protection persists (the hold) and
  // challenges keep flowing "even if the accept queue overflows".
  const double w = spec_.protection_engage_water;
  const bool engaged =
      q.listen_full || static_cast<double>(q.listen_depth) >=
                           w * static_cast<double>(q.listen_capacity);
  if (engaged) {
    latched_ = true;
    hold_until_ = now + spec_.protection_hold;
  } else if (latched_ && now >= hold_until_) {
    latched_ = false;
  }
}

SynDecision PuzzlePolicy::on_syn(SimTime now, const QueueView& q) {
  (void)now;
  if (protection_active(q) && q.has_engine) return {SynAction::kChallenge};
  // §5's backup: degrade to SYN cookies when puzzles are requested but no
  // engine is installed.
  if (!q.has_engine && spec_.cookie_fallback && q.listen_full) {
    return {SynAction::kCookie};
  }
  if (q.listen_full) return {SynAction::kDrop};
  return {SynAction::kEnqueue};
}

AckDecision PuzzlePolicy::on_ack(SimTime now, const QueueView& q) const {
  (void)now;
  return {.check_solution = q.has_engine,
          .check_cookie = !q.has_engine && spec_.cookie_fallback};
}

bool PuzzlePolicy::protection_active(const QueueView& q) const {
  return spec_.always_challenge || latched_ || q.listen_full;
}

// ---------------------------------------------------------------------------
// HybridPolicy — cookies for the listen queue, puzzles for the accept queue
// ---------------------------------------------------------------------------

void HybridPolicy::observe(SimTime now, const QueueView& q) {
  const double w = spec_.protection_engage_water;
  const bool engaged =
      q.accept_full || static_cast<double>(q.accept_depth) >=
                           w * static_cast<double>(q.accept_capacity);
  if (engaged) {
    latched_ = true;
    hold_until_ = now + spec_.protection_hold;
  } else if (latched_ && now >= hold_until_) {
    latched_ = false;
  }
}

SynDecision HybridPolicy::on_syn(SimTime now, const QueueView& q) {
  (void)now;
  // Accept-side pressure means completed handshakes are the weapon — only
  // pricing the handshake helps, so challenges take precedence.
  if (protection_active(q) && q.has_engine) return {SynAction::kChallenge};
  // Pure half-open pressure: absorb statelessly at zero client cost.
  if (q.listen_full) return {SynAction::kCookie};
  return {SynAction::kEnqueue};
}

AckDecision HybridPolicy::on_ack(SimTime now, const QueueView& q) const {
  (void)now;
  return {.check_solution = q.has_engine, .check_cookie = true};
}

bool HybridPolicy::protection_active(const QueueView& q) const {
  return spec_.always_challenge || latched_ || q.accept_full;
}

// ---------------------------------------------------------------------------
// AdaptivePuzzlePolicy — the §7 closed loop as a decorator
// ---------------------------------------------------------------------------

AdaptivePuzzlePolicy::AdaptivePuzzlePolicy(std::unique_ptr<DefensePolicy> inner,
                                           AdaptiveConfig cfg)
    : inner_(std::move(inner)), controller_(cfg) {
  if (!inner_) {
    throw std::invalid_argument("AdaptivePuzzlePolicy: inner policy required");
  }
  name_ = std::string("adaptive+") + inner_->name();
}

TickDecision AdaptivePuzzlePolicy::on_tick(
    SimTime now, const QueueView& q, const tcp::ListenerCounters& counters) {
  TickDecision d = inner_->on_tick(now, q, counters);
  // The controller wins over the inner policy: the closed loop is the outer
  // authority on difficulty.
  d.difficulty = controller_.update(now, counters);
  return d;
}

}  // namespace tcpz::defense
