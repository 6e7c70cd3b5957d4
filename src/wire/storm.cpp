#include "wire/storm.hpp"

namespace tcpz::wire {
namespace {

/// First client port; attempts cycle upward through the ephemeral range.
constexpr std::uint16_t kBasePort = 20'000;

}  // namespace

StormClient::StormClient(StormConfig cfg, Clock clock)
    : cfg_(cfg),
      clock_(clock),
      net_(0),
      rng_(cfg.seed),
      strategy_(cfg.strategy.build()),
      next_port_(kBasePort) {
  net_.add_route(cfg_.server_addr, cfg_.server_udp_port);
}

offense::BotView StormClient::view(SimTime now) {
  offense::BotView v;
  v.now = now;
  v.attack_start = SimTime::zero();
  v.n_targets = 1;
  v.rng = &rng_;
  return v;
}

StormStats StormClient::run() {
  const SimTime t0 = clock_.now();
  const SimTime end = t0 + cfg_.duration;
  // Backstop for the drain tail: everything in flight either finishes or
  // gets recycled within attempt_timeout, so anything beyond that is a bug
  // we bound rather than hang on.
  const SimTime hard_stop = end + cfg_.attempt_timeout + SimTime::seconds(1);
  const SimTime tick_every = SimTime::milliseconds(10);
  SimTime next_tick = t0 + tick_every;
  std::uint64_t slot = 0;
  const auto slot_time = [&](std::uint64_t i) {
    return t0 + SimTime::from_seconds(static_cast<double>(i) / cfg_.conn_rate);
  };

  for (;;) {
    SimTime now = clock_.now();
    if (now >= end && attempts_.empty()) break;
    if (now >= hard_stop) break;

    SimTime deadline = next_tick;
    if (now < end && slot_time(slot) < deadline) deadline = slot_time(slot);
    int timeout_ms = 0;
    if (deadline > now) {
      timeout_ms = static_cast<int>((deadline - now).nanos() / 1'000'000);
      if (timeout_ms > 10) timeout_ms = 10;
    }
    if (auto seg = net_.recv(timeout_ms)) {
      ++stats_.rx_segments;
      handle_rx(clock_.now(), *seg);
      // Drain whatever else queued while we were busy, without waiting.
      while (auto more = net_.recv(0)) {
        ++stats_.rx_segments;
        handle_rx(clock_.now(), *more);
      }
    }

    now = clock_.now();
    if (now >= next_tick) {
      tick(now);
      next_tick = now + tick_every;
    }
    while (now < end && slot_time(slot) <= now) {
      emit_slot(now);
      ++slot;
    }
  }

  stats_.elapsed_s = (clock_.now() - t0).to_seconds();
  return stats_;
}

void StormClient::emit_slot(SimTime now) {
  ++stats_.slots;
  const auto d = strategy_->on_slot(view(now));
  switch (d.action) {
    case offense::SlotAction::kIdle:
      ++stats_.idle_slots;
      return;
    case offense::SlotAction::kSpoofedSyn:
      (void)net_.send(make_spoofed_syn(now));
      ++stats_.spoofed_syns;
      return;
    case offense::SlotAction::kConnect:
      break;
  }
  if (attempts_.size() >= cfg_.max_inflight) {
    ++stats_.skipped_full;
    return;
  }
  tcp::ConnectorConfig ccfg;
  ccfg.local_addr = cfg_.local_addr;
  ccfg.local_port = alloc_port();
  ccfg.remote_addr = cfg_.server_addr;
  ccfg.remote_port = cfg_.server_port;
  ccfg.solve_puzzles = d.patched;
  ccfg.syn_timeout = cfg_.syn_timeout;
  ccfg.max_syn_retries = cfg_.max_syn_retries;
  ccfg.use_timestamps = cfg_.use_timestamps;
  const std::uint16_t port = ccfg.local_port;
  Attempt a{tcp::Connector(ccfg, rng_.next()), now, d.patched};
  auto out = a.connector.start(now);
  attempts_.emplace(port, std::move(a));
  ++stats_.attempts;
  apply(now, port, std::move(out));
}

void StormClient::handle_rx(SimTime now, const tcp::Segment& seg) {
  const auto it = attempts_.find(seg.dport);
  if (it == attempts_.end()) return;  // backscatter for a recycled attempt
  switch (strategy_->on_rx(view(now), seg)) {
    case offense::RxAction::kIgnore:
      return;
    case offense::RxAction::kBogusAck:
      if (seg.is_syn_ack() && seg.options.challenge) {
        (void)net_.send(offense::make_bogus_solution_ack(now, seg, rng_));
        ++stats_.bogus_acks;
        // The bot believes it connected (§7); the attempt is done here.
        finish(seg.dport, offense::Outcome::kEstablished, now);
      }
      return;
    case offense::RxAction::kForward:
      apply(now, seg.dport, it->second.connector.on_segment(now, seg));
      return;
  }
}

void StormClient::apply(SimTime now, std::uint16_t port,
                        tcp::ConnectorOutput out) {
  send_all(out.segments);
  const auto it = attempts_.find(port);
  if (it == attempts_.end()) return;

  if (out.solve) {
    const bool pay =
        cfg_.engine != nullptr &&
        strategy_->on_challenge(view(now), *out.solve) ==
            offense::ChallengeAction::kSolve;
    if (!pay) {
      ++stats_.solves_abandoned;
      finish(port, offense::Outcome::kSolveRefused, now);
      return;
    }
    std::uint64_t ops = 0;
    const auto sol = cfg_.engine->solve(
        *out.solve, it->second.connector.flow_binding(), rng_, ops);
    stats_.hash_ops += ops;
    ++stats_.solves;
    // Re-read the clock: the brute force burned real time.
    apply(now, port, it->second.connector.on_solved(clock_.now(), sol));
    return;
  }
  if (out.established) {
    ++stats_.established;
    stats_.connect_ms.add((now - it->second.started).to_millis());
    finish(port, offense::Outcome::kEstablished, now);
  } else if (out.failed) {
    if (out.reason == tcp::ConnectFail::kReset) {
      ++stats_.resets;
      finish(port, offense::Outcome::kReset, now);
    } else {
      ++stats_.timeouts;
      finish(port, offense::Outcome::kTimeout, now);
    }
  }
}

void StormClient::tick(SimTime now) {
  std::vector<std::uint16_t> ports;
  ports.reserve(attempts_.size());
  for (const auto& [port, attempt] : attempts_) ports.push_back(port);
  for (const std::uint16_t port : ports) {
    const auto it = attempts_.find(port);
    if (it == attempts_.end()) continue;
    if (now - it->second.started >= cfg_.attempt_timeout) {
      ++stats_.timeouts;
      finish(port, offense::Outcome::kTimeout, now);
      continue;
    }
    apply(now, port, it->second.connector.on_tick(now));
  }
}

void StormClient::finish(std::uint16_t port, offense::Outcome outcome,
                         SimTime now) {
  attempts_.erase(port);
  strategy_->on_outcome(view(now), outcome);
}

std::uint16_t StormClient::alloc_port() {
  for (;;) {
    const std::uint16_t p = next_port_++;
    if (next_port_ < kBasePort) next_port_ = kBasePort;  // wrapped
    if (p >= kBasePort && !attempts_.contains(p)) return p;
  }
}

tcp::Segment StormClient::make_spoofed_syn(SimTime now) {
  tcp::Segment syn;
  syn.saddr = tcp::ipv4(10, 200, static_cast<unsigned>(rng_.uniform_u64(256)),
                        static_cast<unsigned>(rng_.uniform_u64(256)));
  syn.daddr = cfg_.server_addr;
  syn.sport = static_cast<std::uint16_t>(1024 + rng_.uniform_u64(60'000));
  syn.dport = cfg_.server_port;
  syn.seq = static_cast<std::uint32_t>(rng_.next());
  syn.flags = tcp::kSyn;
  syn.options.mss = 1460;
  syn.options.wscale = 7;
  if (cfg_.use_timestamps) {
    syn.options.ts = tcp::TimestampsOption{wire_ms(now), 0};
  }
  return syn;
}

void StormClient::send_all(const std::vector<tcp::Segment>& segs) {
  for (const auto& seg : segs) (void)net_.send(seg);
}

void register_metrics(obs::Registry& reg, const StormStats& s,
                      std::string_view labels) {
  reg.counter("storm.slots", labels, static_cast<double>(s.slots),
              "emission slots elapsed");
  reg.counter("storm.attempts", labels, static_cast<double>(s.attempts),
              "connector attempts launched");
  reg.counter("storm.spoofed_syns", labels,
              static_cast<double>(s.spoofed_syns), "spoofed SYNs emitted");
  reg.counter("storm.idle_slots", labels, static_cast<double>(s.idle_slots),
              "slots the strategy idled");
  reg.counter("storm.skipped_full", labels,
              static_cast<double>(s.skipped_full),
              "connect slots lost to the in-flight cap");
  reg.counter("storm.established", labels, static_cast<double>(s.established),
              "handshakes completed (client view)");
  reg.counter("storm.bogus_acks", labels, static_cast<double>(s.bogus_acks),
              "garbage-solution ACKs emitted");
  reg.counter("storm.resets", labels, static_cast<double>(s.resets),
              "attempts ended by RST");
  reg.counter("storm.timeouts", labels, static_cast<double>(s.timeouts),
              "attempts recycled by timeout");
  reg.counter("storm.solves", labels, static_cast<double>(s.solves),
              "challenges solved (real SHA-256)");
  reg.counter("storm.solves_abandoned", labels,
              static_cast<double>(s.solves_abandoned),
              "challenges refused or unsolvable");
  reg.counter("storm.hash_ops", labels, static_cast<double>(s.hash_ops),
              "hash operations spent solving");
  reg.counter("storm.rx_segments", labels, static_cast<double>(s.rx_segments),
              "segments received");
  reg.histogram("storm.connect_ms", labels, s.connect_ms,
                "SYN to established latency (wall-clock ms)");
  reg.gauge("storm.established_per_s", labels, s.established_per_s(),
            "established handshakes per second of storm runtime");
}

}  // namespace tcpz::wire
