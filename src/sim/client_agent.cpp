#include "sim/client_agent.hpp"

#include <stdexcept>

namespace tcpz::sim {

ClientAgent::ClientAgent(net::Simulator& sim, net::Host& host,
                         ClientAgentConfig cfg, std::uint64_t seed,
                         net::Cadence& ticks, net::Cadence& samples,
                         HostReport& report, RoleSeries& series)
    : sim_(sim),
      host_(host),
      ticks_(ticks),
      samples_(samples),
      cfg_(std::move(cfg)),
      cpu_(cfg_.cpu),
      rng_(seed),
      report_(report),
      series_(series) {}

void ClientAgent::start(SimTime until) {
  until_ = until;
  host_.set_handler([this](SimTime now, const tcp::Segment& seg) {
    on_segment(now, seg);
  });
  sim_.schedule_at(SimTime::zero(), [this] { request_loop(); });
  // Idle on ticks until the first attempt starts, on samples until the
  // first solve.
  tick_id_ = ticks_.join([this](SimTime now) { tick(now); },
                         /*active=*/false);
  sample_id_ = samples_.join([this](SimTime now) { sample(now); },
                             /*active=*/false);
}

HostReport& ClientAgent::report() {
  pad_cpu_gauge();
  return report_;
}

void ClientAgent::send_all(const std::vector<tcp::Segment>& segs) {
  for (const tcp::Segment& seg : segs) {
    series_.tx_bytes.add(sim_.now(), seg.wire_size());
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
  series_.attempts.add(now, 1.0);
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
      series_.refusals.add(now, 1.0);
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
    pad_cpu_gauge();
    samples_.set_active(sample_id_, true);
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
    series_.established.add(now, 1.0);
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
    series_.completions.add(now, 1.0);
    ++report_.total_completions;
  } else {
    series_.failures.add(now, 1.0);
    ++report_.total_failures;
  }
  attempts_.erase(sport);
  if (attempts_.empty()) ticks_.set_active(tick_id_, false);
}

void ClientAgent::on_segment(SimTime now, const tcp::Segment& seg) {
  series_.rx_bytes.add(now, seg.wire_size());
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
  // Live attempts first, then expired ones, each in map order. Deadlines
  // never change, so the two passes split the attempts as they stood at the
  // call. apply and finish_attempt erase at most the attempt they are given
  // (sends only schedule deliveries), so each pass steps past an attempt
  // before handing it over, and no list of ports is built.
  for (auto it = attempts_.begin(); it != attempts_.end();) {
    auto& [sport, attempt] = *it++;
    if (now <= attempt.deadline) {
      apply(now, sport, attempt, attempt.connector.on_tick(now));
    }
  }
  for (auto it = attempts_.begin(); it != attempts_.end();) {
    const auto& [sport, attempt] = *it++;
    if (now > attempt.deadline) finish_attempt(now, sport, false);
  }
}

void ClientAgent::sample(SimTime now) {
  report_.cpu.record(now, cpu_.sample_utilization(now, samples_.period()));
  // Nothing left to show: every later sample reads +0.0 until the next
  // solve is submitted, which rejoins.
  if (cpu_.idle()) samples_.set_active(sample_id_, false);
}

void ClientAgent::pad_cpu_gauge() {
  report_.cpu.record_zeros(samples_.fired() - report_.cpu.size(),
                           samples_.first_firing(), samples_.period());
}

}  // namespace tcpz::sim
