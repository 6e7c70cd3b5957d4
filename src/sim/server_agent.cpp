#include "sim/server_agent.hpp"

namespace tcpz::sim {
namespace {

/// CPU charged per received packet (syscall/softirq cost).
constexpr double kPerPacketCpuSec = 2e-6;

}  // namespace

ServerAgent::ServerAgent(net::Simulator& sim, net::Host& host,
                         ServerAgentConfig cfg, crypto::SecretKey secret,
                         std::uint64_t seed,
                         std::shared_ptr<const puzzle::PuzzleEngine> engine)
    : sim_(sim),
      host_(host),
      cfg_(std::move(cfg)),
      listener_(cfg_.listener, secret, seed, std::move(engine)),
      cpu_(cfg_.cpu),
      rng_(seed ^ 0x5e77e57ull) {
  listener_.set_data_handler(
      [this](SimTime now, const tcp::FlowKey& flow, const tcp::Segment& seg) {
        on_request(now, flow, seg);
      });
  listener_.set_establish_handler(
      [this](SimTime now, const tcp::AcceptedConnection& conn) {
        const bool attacker =
            cfg_.is_attacker && cfg_.is_attacker(conn.flow.raddr);
        (attacker ? report_.established_attacker : report_.established_client)
            .add(now, 1.0);
      });
}

void ServerAgent::start(SimTime until, net::Cadence& ticks,
                        net::Cadence& samples) {
  until_ = until;
  host_.set_handler([this](SimTime now, const tcp::Segment& seg) {
    on_segment(now, seg);
  });
  service_loop();
  ticks.join([this](SimTime now) { tick(now); });
  samples.join([this, w = samples.period()](SimTime now) { sample(now, w); });
}

void ServerAgent::send_all(const std::vector<tcp::Segment>& segs) {
  for (const tcp::Segment& seg : segs) {
    report_.tx_bytes.add(sim_.now(), seg.wire_size());
    if (seg.options.challenge) {
      report_.challenge_synacks.add(sim_.now(), 1.0);
    } else if (seg.is_syn_ack()) {
      report_.plain_synacks.add(sim_.now(), 1.0);
    }
    host_.send(seg);
  }
}

void ServerAgent::on_segment(SimTime now, const tcp::Segment& seg) {
  report_.rx_bytes.add(now, seg.wire_size());
  cpu_.charge_seconds(kPerPacketCpuSec);
  send_all(listener_.on_segment(now, seg));
  cpu_.charge_hash_ops(listener_.take_hash_ops());
}

void ServerAgent::on_request(SimTime now, const tcp::FlowKey& flow,
                             const tcp::Segment& seg) {
  if (WorkerState* worker = workers_.find(flow)) {
    if (!worker->has_request) {
      worker->has_request = true;
      ready_.push_back(flow);
    }
    return;
  }
  // Request arrived before a worker accepted the connection.
  early_requests_[flow] += seg.payload_bytes;
  (void)now;
}

void ServerAgent::respond_and_close(SimTime now, const tcp::FlowKey& flow) {
  tcp::Segment resp;
  resp.saddr = flow.laddr;
  resp.daddr = flow.raddr;
  resp.sport = flow.lport;
  resp.dport = flow.rport;
  resp.flags = tcp::kAck | tcp::kPsh;
  resp.payload_bytes = cfg_.response_bytes;
  report_.responses.add(now, 1.0);
  send_all({resp});

  workers_.erase(flow);
  early_requests_.erase(flow);
  listener_.close(flow);
}

void ServerAgent::drain_accept_queue(SimTime now) {
  while (static_cast<int>(workers_.size()) < cfg_.n_workers) {
    auto conn = listener_.accept(now);
    if (!conn) break;
    const bool has_request = early_requests_.contains(conn->flow);
    if (has_request) {
      ready_.push_back(conn->flow);
    } else {
      idle_.push_back({conn->flow, now});
    }
    workers_.try_emplace(conn->flow, WorkerState{now, has_request});
  }
}

void ServerAgent::service_loop() {
  if (sim_.now() >= until_) return;
  // One request completion per Exp(µ).
  const SimTime next = sim_.now() + exp_interarrival(rng_, cfg_.service_rate);
  sim_.schedule_at(std::min(next, until_), [this] {
    const SimTime now = sim_.now();
    while (!ready_.empty()) {
      const tcp::FlowKey flow = ready_.front();
      ready_.pop_front();
      const WorkerState* worker = workers_.find(flow);
      if (worker == nullptr || !worker->has_request) continue;  // stale
      respond_and_close(now, flow);
      break;
    }
    drain_accept_queue(now);
    service_loop();
  });
}

void ServerAgent::tick(SimTime now) {
  // §7 closed-loop difficulty control now lives inside the defense layer:
  // the listener consults its policy's on_tick here.
  send_all(listener_.on_tick(now));
  cpu_.charge_hash_ops(listener_.take_hash_ops());

  // Reap workers pinned by request-less connections (flood bots). Only
  // workers accepted over app_idle_timeout ago can be due; they head idle_.
  while (!idle_.empty() &&
         now - idle_.front().accepted_at > cfg_.app_idle_timeout) {
    const IdleWorker due = idle_.front();
    idle_.pop_front();
    const WorkerState* worker = workers_.find(due.flow);
    if (worker == nullptr || worker->has_request ||
        worker->accepted_at != due.accepted_at) {
      continue;
    }
    listener_.close(due.flow);
    early_requests_.erase(due.flow);
    workers_.erase(due.flow);
  }
  // Early requests whose connection evaporated (closed before accept).
  early_requests_.erase_if([this](const tcp::FlowKey& flow, std::uint32_t) {
    return !listener_.is_established(flow);
  });
  drain_accept_queue(now);
}

void ServerAgent::sample(SimTime now, SimTime window) {
  report_.listen_queue.record(now,
                              static_cast<double>(listener_.listen_depth()));
  report_.accept_queue.record(now,
                              static_cast<double>(listener_.accept_depth()));
  report_.cpu.record(now, cpu_.sample_utilization(now, window));
  report_.difficulty_m.record(
      now, static_cast<double>(listener_.config().difficulty.m));
}

}  // namespace tcpz::sim
