#include "sim/attacker_agent.hpp"

#include "obs/trace.hpp"

namespace tcpz::sim {
namespace {

/// CPU charged per sent or received packet. Userspace raw-packet crafting on
/// commodity zombie hardware is far more expensive than kernel fast-path
/// processing; at 500 pps this puts a bot around the 50-60% CPU the paper's
/// Fig. 9 shows for attackers.
constexpr double kPerPacketCpuSec = 0.7e-3;

/// The flood tool abandons an attempt that has not completed after this
/// long (an admitted solve gets three times as long).
constexpr SimTime kAttemptTimeout = SimTime::seconds(1);
constexpr std::uint32_t kAttemptTimeoutMs = wire_ms(kAttemptTimeout);

}  // namespace

AttackerAgent::AttackerAgent(net::Simulator& sim, net::Host& host,
                             AttackerAgentConfig cfg, std::uint64_t seed,
                             RoleSeries& series)
    : sim_(sim), host_(host), cfg_(std::move(cfg)), cpu_(cfg_.cpu),
      rng_(seed), series_(series) {
  if (cfg_.targets.empty()) {
    throw std::invalid_argument("attacker: at least one target is required");
  }
  strategy_ = cfg_.strategy.build();
}

offense::BotView AttackerAgent::view(SimTime now) {
  offense::BotView v;
  v.now = now;
  v.attack_start = cfg_.attack_start;
  v.n_targets = cfg_.targets.size();
  v.rng = &rng_;
  return v;
}

void AttackerAgent::start(net::Cadence& slots, net::Cadence& ticks,
                          net::Cadence& samples) {
  host_.set_handler([this](SimTime now, const tcp::Segment& seg) {
    on_segment(now, seg);
  });
  sim_.schedule_at(cfg_.attack_start, [this, &slots, &ticks] {
    slots.join([this](SimTime now) { slot(now); });
    ticks.join([this](SimTime now) { tick(now); });
  });
  samples.join([this, w = samples.period()](SimTime now) { sample(now, w); });
}

void AttackerAgent::send_all(const std::vector<tcp::Segment>& segs) {
  for (const tcp::Segment& seg : segs) {
    series_.tx_bytes.add(sim_.now(), seg.wire_size());
    cpu_.charge_seconds(kPerPacketCpuSec);
    host_.send(seg);
  }
}

void AttackerAgent::slot(SimTime now) {
  // The cadence also fires at the first grid instant at or after its end.
  if (now >= cfg_.attack_end) return;
  // Constant-rate emission (hping3/nping "--rate" behaviour); the strategy
  // decides what each slot carries.
  const offense::SlotDecision d = strategy_->on_slot(view(now));
  const std::size_t target = d.target < cfg_.targets.size() ? d.target : 0;
  switch (d.action) {
    case offense::SlotAction::kSpoofedSyn:
      TCPZ_TRACE(now, obs::Code::kSlotSpoofedSyn, cfg_.trace_track, target);
      send_spoofed_syn(now, target);
      break;
    case offense::SlotAction::kConnect:
      TCPZ_TRACE(now, obs::Code::kSlotConnect, cfg_.trace_track, target,
                 d.patched ? 1 : 0);
      launch_attempt(now, d.patched, target);
      break;
    case offense::SlotAction::kIdle:
      TCPZ_TRACE(now, obs::Code::kSlotIdle, cfg_.trace_track);
      break;
  }
}

void AttackerAgent::send_spoofed_syn(SimTime now, std::size_t target) {
  tcp::Segment syn;
  // Random routable-looking but unowned source (100.64/10 space).
  syn.saddr = tcp::ipv4(100, 64, 0, 0) |
              static_cast<std::uint32_t>(rng_.uniform_u64(1u << 22));
  syn.sport = static_cast<std::uint16_t>(1024 + rng_.uniform_u64(60000));
  syn.daddr = cfg_.targets[target].addr;
  syn.dport = cfg_.targets[target].port;
  syn.seq = static_cast<std::uint32_t>(rng_.next());
  syn.flags = tcp::kSyn;
  syn.options.mss = 1460;
  series_.attempts.add(now, 1.0);
  ++report_.total_attempts;
  send_all({syn});
}

void AttackerAgent::launch_attempt(SimTime now, bool patched,
                                   std::size_t target) {
  if (static_cast<int>(attempts_.size()) >= cfg_.max_inflight) return;
  std::uint16_t sport = 0;
  for (int tries = 0; tries < 64; ++tries) {
    std::uint16_t cand = next_sport_++;
    if (next_sport_ < 1024) next_sport_ = 1024;
    if (cand >= 1024 && !attempts_.contains(cand)) {
      sport = cand;
      break;
    }
  }
  if (sport == 0) return;

  tcp::ConnectorConfig ccfg;
  ccfg.local_addr = host_.addr();
  ccfg.local_port = sport;
  ccfg.remote_addr = cfg_.targets[target].addr;
  ccfg.remote_port = cfg_.targets[target].port;
  // A legacy-stack attempt (unpatched bot, or a bogus-solution flooder that
  // intercepts the challenge itself in on_segment) looks like an unpatched
  // kernel to the Connector.
  ccfg.solve_puzzles = patched;
  ccfg.max_syn_retries = 0;  // flood tools do not retransmit

  auto [it, inserted] = attempts_.emplace(
      sport, Attempt{tcp::Connector(ccfg, rng_.next()), now, {}});
  launches_.push_back({wire_ms(now), sport});
  series_.attempts.add(now, 1.0);
  ++report_.total_attempts;
  apply(now, sport, it->second.connector.start(now));
}

void AttackerAgent::apply(SimTime now, std::uint16_t sport,
                          tcp::ConnectorOutput out) {
  send_all(out.segments);

  const auto it = attempts_.find(sport);
  if (it == attempts_.end()) return;
  Attempt& attempt = it->second;

  if (out.solve) {
    ++report_.challenges_seen;
    // The in-kernel solver is serial; the flood tool abandons an attempt
    // (closing its socket and thereby aborting any queued solve) after
    // kAttemptTimeout. A solve is therefore only worth starting if the
    // strategy wants to pay AND a lane frees up before the tool gives up —
    // the latter is what pins the per-bot completion rate to its solver
    // throughput regardless of the flood rate (Figs. 13-14).
    const offense::ChallengeAction ca =
        strategy_->on_challenge(view(now), *out.solve);
    if (ca == offense::ChallengeAction::kAbandon || !cfg_.engine ||
        cpu_.earliest_lane_free() > now + kAttemptTimeout) {
      ++report_.solves_refused;
      TCPZ_TRACE(now, obs::Code::kChallengeAbandon, cfg_.trace_track, sport,
                 ca == offense::ChallengeAction::kAbandon ? 0 : 1);
      TCPZ_TRACE(now, obs::Code::kOutcomeSolveRefused, cfg_.trace_track,
                 sport);
      strategy_->on_outcome(view(now), offense::Outcome::kSolveRefused);
      // The attempt keeps holding its in-flight slot until the tool times
      // it out (tick), throttling the measured attack rate.
      return;
    }
    TCPZ_TRACE(now, obs::Code::kChallengeSolve, cfg_.trace_track, sport,
               (static_cast<std::uint64_t>(out.solve->diff.k) << 8) |
                   out.solve->diff.m);
    std::uint64_t hash_ops = 0;
    const puzzle::Solution solution = cfg_.engine->solve(
        *out.solve, attempt.connector.flow_binding(), rng_, hash_ops);
    const SimTime done = cpu_.submit_solve(now, hash_ops);
    // Cancellable completion: erase_attempt deschedules it, so the event
    // only ever fires for the attempt that scheduled it (a recycled sport
    // always carries a fresh timer).
    attempt.solve_timer = sim_.schedule_at(done, [this, sport, solution] {
      const auto it2 = attempts_.find(sport);
      if (it2 == attempts_.end()) return;
      const SimTime t = sim_.now();
      apply(t, sport, it2->second.connector.on_solved(t, solution));
    });
    return;
  }

  if (out.established) {
    // Connection floods hold the connection and send nothing further; the
    // in-flight slot is recycled immediately.
    series_.established.add(now, 1.0);
    ++report_.total_established;
    erase_attempt(it);
    TCPZ_TRACE(now, obs::Code::kOutcomeEstablished, cfg_.trace_track, sport);
    strategy_->on_outcome(view(now), offense::Outcome::kEstablished);
    return;
  }

  if (out.failed) {
    const bool reset = out.reason == tcp::ConnectFail::kReset;
    if (reset) ++report_.total_rsts;
    series_.failures.add(now, 1.0);
    ++report_.total_failures;
    erase_attempt(it);
    TCPZ_TRACE(now,
               reset ? obs::Code::kOutcomeReset : obs::Code::kOutcomeTimeout,
               cfg_.trace_track, sport);
    strategy_->on_outcome(view(now), reset ? offense::Outcome::kReset
                                           : offense::Outcome::kTimeout);
  }
}

void AttackerAgent::erase_attempt(AttemptMap::iterator it) {
  sim_.cancel(it->second.solve_timer);
  attempts_.erase(it);
}

void AttackerAgent::on_segment(SimTime now, const tcp::Segment& seg) {
  series_.rx_bytes.add(now, seg.wire_size());
  cpu_.charge_seconds(kPerPacketCpuSec);
  const offense::RxAction rx = strategy_->on_rx(view(now), seg);
  if (rx == offense::RxAction::kIgnore) return;  // backscatter is ignored

  const auto it = attempts_.find(seg.dport);
  if (it == attempts_.end()) return;

  if (rx == offense::RxAction::kBogusAck && seg.is_syn_ack() &&
      seg.options.challenge) {
    ++report_.challenges_seen;
    TCPZ_TRACE(now, obs::Code::kBogusAck, cfg_.trace_track, seg,
               (static_cast<std::uint64_t>(seg.options.challenge->k) << 8) |
                   seg.options.challenge->m);
    send_all({offense::make_bogus_solution_ack(now, seg, rng_)});
    series_.established.add(now, 1.0);  // it *believes* it connected
    ++report_.total_established;
    erase_attempt(it);
    strategy_->on_outcome(view(now), offense::Outcome::kEstablished);
    return;
  }

  apply(now, seg.dport, it->second.connector.on_segment(now, seg));
}

bool AttackerAgent::settle(SimTime now, std::uint16_t sport) {
  const auto it = attempts_.find(sport);
  if (it == attempts_.end()) return true;
  // Attempts with an admitted solve in progress get a grace period (the
  // kernel finishes a running search even when the tool has lost interest).
  const Attempt& attempt = it->second;
  const bool solving =
      attempt.connector.state() == tcp::ConnectorState::kSolving &&
      static_cast<bool>(attempt.solve_timer);
  const SimTime limit = solving ? kAttemptTimeout * 3 : kAttemptTimeout;
  if (now - attempt.started <= limit) return false;
  series_.failures.add(now, 1.0);
  ++report_.total_failures;
  // Descheduling the admitted solve models the tool closing its socket: the
  // queued search is abandoned rather than firing as a tombstone.
  erase_attempt(it);
  TCPZ_TRACE(now, obs::Code::kOutcomeTimeout, cfg_.trace_track, sport);
  strategy_->on_outcome(view(now), offense::Outcome::kTimeout);
  return true;
}

void AttackerAgent::tick(SimTime now) {
  // Recycle in-flight slots whose attempt went nowhere. No attempt is stale
  // before kAttemptTimeout, so only the grace list and the launches come
  // due are checked, not the whole table. A stamp rounds down, so a launch
  // is due no later than its attempt; settle() applies the exact limit, to
  // whichever attempt now holds the port.
  std::erase_if(grace_,
                [&](std::uint16_t sport) { return settle(now, sport); });
  const std::uint32_t now_ms = wire_ms(now);
  while (!launches_.empty() &&
         now_ms - launches_.front().at_ms >= kAttemptTimeoutMs) {
    const std::uint16_t sport = launches_.front().sport;
    launches_.pop_front();
    if (!settle(now, sport)) grace_.push_back(sport);
  }
}

void AttackerAgent::sample(SimTime now, SimTime window) {
  report_.cpu.record(now, cpu_.sample_utilization(now, window));
}

}  // namespace tcpz::sim
