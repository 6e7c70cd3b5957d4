#include "sim/client_agent.hpp"

#include <stdexcept>

namespace tcpz::sim {

ClientAgent::ClientAgent(net::Simulator& sim, net::Host& host,
                         ClientAgentConfig cfg, std::uint64_t seed,
                         net::Cadence& ticks, net::Cadence& samples)
    : sim_(sim),
      host_(host),
      ticks_(ticks),
      samples_(samples),
      cfg_(std::move(cfg)),
      cpu_(cfg_.cpu),
      rng_(seed) {}

void ClientAgent::start(SimTime until) {
  until_ = until;
  host_.set_handler([this](SimTime now, const tcp::Segment& seg) {
    on_segment(now, seg);
  });
  sim_.schedule_at(SimTime::zero(), [this] { request_loop(); });
  // Idle until the first attempt starts; every client is sampled.
  tick_id_ = ticks_.join([this](SimTime now) { tick(now); },
                         /*active=*/false);
  samples_.join([this](SimTime now) { sample(now); });
}

void ClientAgent::send_all(const std::vector<tcp::Segment>& segs) {
  for (const tcp::Segment& seg : segs) {
    report_.tx_bytes.add(sim_.now(), seg.wire_size());
    host_.send(seg);
  }
}

void ClientAgent::request_loop() {
  if (sim_.now() >= until_) return;
  const SimTime next =
      sim_.now() + exp_interarrival(rng_, cfg_.model.request_rate);
  if (next >= until_) return;
  sim_.schedule_at(next, [this] {
    start_attempt(sim_.now());
    request_loop();
  });
}

void ClientAgent::start_attempt(SimTime now) {
  // Find a source port not used by a live attempt.
  std::uint16_t sport = 0;
  for (int tries = 0; tries < 64; ++tries) {
    std::uint16_t cand = next_sport_++;
    if (next_sport_ < 1024) next_sport_ = 1024;
    if (cand < 1024) continue;
    if (!attempts_.contains(cand)) {
      sport = cand;
      break;
    }
  }
  if (sport == 0) return;  // implausible: >64k live attempts

  tcp::ConnectorConfig ccfg;
  ccfg.local_addr = host_.addr();
  ccfg.local_port = sport;
  ccfg.remote_addr = cfg_.server_addr;
  ccfg.remote_port = cfg_.server_port;
  ccfg.solve_puzzles = cfg_.solve_puzzles;

  auto [it, inserted] = attempts_.emplace(
      sport, Attempt{tcp::Connector(ccfg, rng_.next()), now,
                     now + cfg_.response_timeout, false, 0, 0});
  if (attempts_.size() == 1) ticks_.set_active(tick_id_, true);
  report_.attempts.add(now, 1.0);
  ++report_.total_attempts;
  apply(now, sport, it->second, it->second.connector.start(now));
}

void ClientAgent::apply(SimTime now, std::uint16_t sport, Attempt& attempt,
                        tcp::ConnectorOutput out) {
  send_all(out.segments);

  if (out.solve) {
    ++report_.challenges_seen;
    if (pending_solves_ >= cfg_.model.max_pending_solves) {
      ++report_.solves_refused;
      report_.refusals.add(now, 1.0);
      finish_attempt(now, sport, false);
      return;
    }
    if (!cfg_.engine) {
      throw std::logic_error("ClientAgent: challenged but no puzzle engine");
    }
    std::uint64_t hash_ops = 0;
    const puzzle::Solution solution = cfg_.engine->solve(
        *out.solve, attempt.connector.flow_binding(), rng_, hash_ops);
    const SimTime done = cpu_.submit_solve(now, hash_ops);
    ++pending_solves_;
    const std::uint64_t token = next_solve_token_++;
    attempt.solve_token = token;
    sim_.schedule_at(done, [this, sport, token, solution] {
      --pending_solves_;
      const auto it = attempts_.find(sport);
      if (it == attempts_.end() || it->second.solve_token != token) return;
      const SimTime t = sim_.now();
      apply(t, sport, it->second, it->second.connector.on_solved(t, solution));
    });
    return;
  }

  if (out.established) {
    report_.established.add(now, 1.0);
    ++report_.total_established;
    report_.conn_time_ms.add((now - attempt.started).to_millis());
    if (!attempt.request_sent) {
      attempt.request_sent = true;
      send_all({attempt.connector.make_data_segment(
          now, cfg_.model.request_bytes)});
    }
    return;
  }

  if (out.failed) {
    if (out.reason == tcp::ConnectFail::kReset) ++report_.total_rsts;
    finish_attempt(now, sport, false);
  }
}

void ClientAgent::finish_attempt(SimTime now, std::uint16_t sport,
                                 bool success) {
  if (success) {
    report_.completions.add(now, 1.0);
    ++report_.total_completions;
  } else {
    report_.failures.add(now, 1.0);
    ++report_.total_failures;
  }
  attempts_.erase(sport);
  if (attempts_.empty()) ticks_.set_active(tick_id_, false);
}

void ClientAgent::on_segment(SimTime now, const tcp::Segment& seg) {
  report_.rx_bytes.add(now, seg.wire_size());
  const auto it = attempts_.find(seg.dport);
  if (it == attempts_.end()) return;
  Attempt& attempt = it->second;

  // Response payload for an established attempt.
  if (attempt.connector.state() == tcp::ConnectorState::kEstablished &&
      seg.payload_bytes > 0 && !seg.is_rst()) {
    attempt.rx_payload += seg.payload_bytes;
    if (attempt.rx_payload >= cfg_.model.response_bytes) {
      finish_attempt(now, seg.dport, true);
    }
    return;
  }

  apply(now, seg.dport, attempt, attempt.connector.on_segment(now, seg));
}

void ClientAgent::tick(SimTime now) {
  // Collect expirations first: apply/finish mutate the map.
  std::vector<std::uint16_t> expired;
  std::vector<std::uint16_t> live;
  live.reserve(attempts_.size());
  for (auto& [sport, attempt] : attempts_) {
    (now > attempt.deadline ? expired : live).push_back(sport);
  }
  for (const std::uint16_t sport : live) {
    const auto it = attempts_.find(sport);
    if (it == attempts_.end()) continue;
    apply(now, sport, it->second, it->second.connector.on_tick(now));
  }
  for (const std::uint16_t sport : expired) {
    if (attempts_.contains(sport)) finish_attempt(now, sport, false);
  }
}

void ClientAgent::sample(SimTime now) {
  report_.cpu.record(now, cpu_.sample_utilization(now, samples_.period()));
}

}  // namespace tcpz::sim
