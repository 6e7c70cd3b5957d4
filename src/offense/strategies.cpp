#include "offense/strategies.hpp"

#include <algorithm>

#include "game/model.hpp"

namespace tcpz::offense {

tcp::Segment make_bogus_solution_ack(SimTime now, const tcp::Segment& synack,
                                     Rng& rng) {
  const tcp::ChallengeOption& ch = *synack.options.challenge;
  tcp::Segment ack;
  ack.saddr = synack.daddr;
  ack.daddr = synack.saddr;
  ack.sport = synack.dport;
  ack.dport = synack.sport;
  ack.seq = synack.ack;
  ack.ack = synack.seq + 1;
  ack.flags = tcp::kAck;
  const auto now_ms = static_cast<std::uint32_t>(now.nanos() / 1'000'000);
  if (synack.options.ts) {
    ack.options.ts = tcp::TimestampsOption{now_ms, synack.options.ts->tsval};
  }
  tcp::SolutionOption sol;
  sol.mss = 1460;
  sol.wscale = 7;
  if (!synack.options.ts) {
    sol.embedded_ts = ch.embedded_ts.value_or(now_ms);
  }
  sol.solutions.resize(static_cast<std::size_t>(ch.k) * ch.sol_len);
  for (auto& b : sol.solutions) {
    b = static_cast<std::uint8_t>(rng.next());
  }
  ack.options.solution = std::move(sol);
  return ack;
}

SlotDecision PulsedStrategy::on_slot(const BotView& v) {
  SlotDecision on{
      spec_.pulse_spoofed ? SlotAction::kSpoofedSyn : SlotAction::kConnect,
      spec_.patched, 0};
  if (spec_.pulse_period <= SimTime::zero() || spec_.pulse_duty >= 1.0) {
    return on;
  }
  if (spec_.pulse_duty <= 0.0) return {SlotAction::kIdle, spec_.patched, 0};
  const std::int64_t period = spec_.pulse_period.nanos();
  const std::int64_t phase = (v.now - v.attack_start).nanos() % period;
  const auto on_ns =
      static_cast<std::int64_t>(spec_.pulse_duty * static_cast<double>(period));
  if (phase < on_ns) return on;
  return {SlotAction::kIdle, spec_.patched, 0};
}

GameAdaptiveStrategy::GameAdaptiveStrategy(const StrategySpec& spec)
    : spec_(spec), observed_(spec.assumed) {
  replan(observed_);
  replans_ = 0;  // the initial plan from the assumed price is not a re-plan
}

void GameAdaptiveStrategy::replan(puzzle::Difficulty diff) {
  observed_ = diff;
  price_ = diff.expected_solve_hashes();
  // The attacker is one follower of the §3 game; its best response to the
  // posted price is the single-user equilibrium rate.
  game::GameConfig g;
  g.valuations = {spec_.valuation};
  g.mu = spec_.mu;
  const game::Equilibrium eq = game::solve_equilibrium(g, price_);
  solve_rate_ = eq.exists ? eq.total_rate : 0.0;
  solve_prob_ = spec_.slot_rate > 0.0
                    ? std::clamp(solve_rate_ / spec_.slot_rate, 0.0, 1.0)
                    : 0.0;
  ++replans_;
}

SlotDecision GameAdaptiveStrategy::on_slot(const BotView& v) {
  if (v.rng != nullptr && v.rng->bernoulli(solve_prob_)) {
    return {SlotAction::kConnect, true, 0};
  }
  // Fully priced out: spraying alone would make the state absorbing — no
  // patched connect, no challenge, no chance to ever see the price drop
  // (e.g. the §7 adaptive loop easing off after the flood subsides). A
  // trickle of probe connects keeps observing the posted difficulty; while
  // the price stays unpayable, on_challenge abandons them for free.
  if (solve_rate_ <= 0.0 && v.rng != nullptr &&
      v.rng->bernoulli(kProbeProbability)) {
    return {SlotAction::kConnect, true, 0};
  }
  // Spray: the price is not worth paying for this slot; a spoofed SYN costs
  // nothing and still pressures the listen queue.
  return {SlotAction::kSpoofedSyn, false, 0};
}

ChallengeAction GameAdaptiveStrategy::on_challenge(
    const BotView&, const puzzle::Challenge& challenge) {
  // Any challenge means a price is posted: a free-ride inference (price 0)
  // is invalidated, and a difficulty change triggers a re-plan.
  const bool free_riding = price_ == 0.0;
  unchallenged_streak_ = 0;
  if (challenge.diff != observed_ || free_riding) replan(challenge.diff);
  // A price above the valuation makes solving a losing trade; abandon the
  // attempt instead of queueing a search the plan says not to pay for.
  return solve_rate_ > 0.0 ? ChallengeAction::kSolve
                           : ChallengeAction::kAbandon;
}

void GameAdaptiveStrategy::on_outcome(const BotView&, Outcome outcome) {
  if (outcome != Outcome::kEstablished) return;
  // Establishments that were never challenged accumulate evidence that the
  // server posts no price; past the threshold the best response is to take
  // every slot (a challenged establishment cannot build a streak — the
  // challenge reset it moments earlier).
  if (price_ == 0.0) return;
  if (++unchallenged_streak_ >= kFreeRideStreak) {
    price_ = 0.0;
    solve_rate_ = spec_.slot_rate;
    solve_prob_ = 1.0;
    ++replans_;
  }
}

}  // namespace tcpz::offense
