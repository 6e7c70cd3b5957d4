#include "fleet/load_balancer.hpp"

#include <stdexcept>

#include "obs/trace.hpp"

namespace tcpz::fleet {

const char* to_string(BalancePolicy p) {
  switch (p) {
    case BalancePolicy::kRoundRobin: return "round-robin";
    case BalancePolicy::kFiveTupleHash: return "5-tuple-hash";
    case BalancePolicy::kLeastConnections: return "least-connections";
  }
  return "unknown";
}

LoadBalancer::LoadBalancer(net::Simulator& sim, LoadBalancerConfig cfg)
    : net::Node(sim), cfg_(cfg) {
  if (cfg_.vip == 0) {
    throw std::invalid_argument("LoadBalancer: a VIP address is required");
  }
}

void LoadBalancer::rebuild_live() {
  live_.clear();
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    if (backends_[i].up) live_.push_back(static_cast<int>(i));
  }
}

int LoadBalancer::add_backend(net::Link* link) {
  Backend b;
  b.link = link;
  backends_.push_back(b);
  rebuild_live();
  return static_cast<int>(backends_.size()) - 1;
}

void LoadBalancer::set_backend_up(int idx, bool up) {
  Backend& b = backends_[static_cast<std::size_t>(idx)];
  if (b.up == up) return;
  b.up = up;
  rebuild_live();
  if (!up) {
    // Health-check eviction: drop the dead replica's flows so client
    // retransmissions get re-dispatched. Each evicted flow is a disrupted
    // connection that will move replicas if the client keeps transmitting.
    for (auto it = flows_.begin(); it != flows_.end();) {
      if (it->second.backend == idx) {
        ++failover_evictions_;
        TCPZ_TRACE(sim().now(), obs::Code::kLbEvict, /*track=*/0,
                   static_cast<std::uint64_t>(idx), it->first);
        it = flows_.erase(it);
      } else {
        ++it;
      }
    }
    b.active = 0;
  }
}

std::uint64_t LoadBalancer::flow_id(const tcp::Segment& seg, bool from_client) {
  const std::uint32_t addr = from_client ? seg.saddr : seg.daddr;
  const std::uint16_t port = from_client ? seg.sport : seg.dport;
  return (static_cast<std::uint64_t>(addr) << 16) | port;
}

int LoadBalancer::hash_backend(const tcp::Segment& seg) const {
  if (live_.empty()) return -1;
  // splitmix-style finalizer over the client 5-tuple half (the VIP half is
  // constant). Re-hashing "mod live set" after a failure moves roughly 1/n
  // of the flows — the disruption DSR hash balancers actually exhibit.
  std::uint64_t h = (static_cast<std::uint64_t>(seg.saddr) << 16) ^ seg.sport;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return live_[h % live_.size()];
}

int LoadBalancer::pick_backend(const tcp::Segment& seg) {
  if (cfg_.policy == BalancePolicy::kFiveTupleHash) {
    const int idx = hash_backend(seg);
    if (idx >= 0 && seg.is_syn()) {
      ++backends_[static_cast<std::size_t>(idx)].stats.new_flows;
    }
    return idx;
  }

  const std::uint64_t id = flow_id(seg, /*from_client=*/true);
  if (const auto it = flows_.find(id); it != flows_.end()) {
    it->second.last_seen = sim().now();
    return it->second.backend;  // always up: down backends evict their flows
  }

  // New (or evicted) flow: choose among live backends.
  int chosen = -1;
  if (cfg_.policy == BalancePolicy::kRoundRobin) {
    for (std::size_t probe = 0; probe < backends_.size(); ++probe) {
      const std::size_t idx = (rr_next_ + probe) % backends_.size();
      if (backends_[idx].up) {
        chosen = static_cast<int>(idx);
        rr_next_ = idx + 1;
        break;
      }
    }
  } else {  // kLeastConnections
    for (std::size_t i = 0; i < backends_.size(); ++i) {
      if (!backends_[i].up) continue;
      if (chosen < 0 ||
          backends_[i].active < backends_[static_cast<std::size_t>(chosen)].active) {
        chosen = static_cast<int>(i);
      }
    }
  }
  if (chosen < 0) return -1;

  // A RST for an untracked flow does not open a new table entry.
  if (!seg.is_rst()) {
    flows_.emplace(id, FlowEntry{chosen, sim().now()});
    Backend& b = backends_[static_cast<std::size_t>(chosen)];
    ++b.active;
    ++b.stats.new_flows;
  }
  return chosen;
}

void LoadBalancer::dispatch(int idx, const tcp::Segment& seg) {
  Backend& b = backends_[static_cast<std::size_t>(idx)];
  ++b.stats.dispatched_packets;
  b.stats.dispatched_bytes += seg.wire_size();
  b.link->transmit(seg);
}

void LoadBalancer::deliver(const tcp::Segment& seg) {
  if (seg.daddr != cfg_.vip) {
    // Transit traffic: replica responses heading out. A RST from the VIP
    // side ends the tracked flow.
    if (seg.saddr == cfg_.vip && seg.is_rst()) {
      if (const auto it = flows_.find(flow_id(seg, /*from_client=*/false));
          it != flows_.end()) {
        --backends_[static_cast<std::size_t>(it->second.backend)].active;
        flows_.erase(it);
      }
    }
    forward(seg);
    return;
  }

  const int idx = pick_backend(seg);
  if (idx < 0) {
    ++no_backend_drops_;
    TCPZ_TRACE(sim().now(), obs::Code::kLbNoBackend, /*track=*/0, seg);
    return;
  }
  TCPZ_TRACE(sim().now(), obs::Code::kLbPick, /*track=*/0, seg,
             static_cast<std::uint64_t>(idx));
  dispatch(idx, seg);

  if (seg.is_rst()) {
    if (const auto it = flows_.find(flow_id(seg, /*from_client=*/true));
        it != flows_.end()) {
      --backends_[static_cast<std::size_t>(it->second.backend)].active;
      flows_.erase(it);
    }
  }
}

void LoadBalancer::sweep_loop(SimTime until) {
  if (sim().now() >= until) return;
  sweep_timer_ = sim().schedule_in(cfg_.sweep_interval, [this, until] {
    const SimTime now = sim().now();
    for (auto it = flows_.begin(); it != flows_.end();) {
      if (now - it->second.last_seen > cfg_.flow_idle_timeout) {
        --backends_[static_cast<std::size_t>(it->second.backend)].active;
        it = flows_.erase(it);
      } else {
        ++it;
      }
    }
    sweep_loop(until);
  });
}

void LoadBalancer::start(SimTime until) {
  if (cfg_.policy != BalancePolicy::kFiveTupleHash) sweep_loop(until);
}

void LoadBalancer::stop() {
  (void)sim().cancel(sweep_timer_);
  sweep_timer_.reset();
}

}  // namespace tcpz::fleet
