#include "par/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "par/mailbox.hpp"
#include "scenario/engine.hpp"

namespace tcpz::par {

using scenario::Spec;

ShardPlan plan_shards(const Spec& spec, int n_shards) {
  ShardPlan plan;
  const int n = n_shards;
  if (spec.fleet.enabled) {
    // Replicas share a balancer, secret directory and replay cache — one
    // shard owns the whole service edge.
    plan.server_owner.assign(static_cast<std::size_t>(spec.servers.count), 0);
    plan.addr_owner[scenario::addrs::kServerAddr] = 0;
  } else {
    for (int i = 0; i < spec.servers.count; ++i) {
      const int owner = i % n;
      plan.server_owner.push_back(owner);
      plan.addr_owner[scenario::addrs::server(i)] = owner;
    }
  }
  const int n_clients = scenario::n_discrete_clients(spec);
  for (int i = 0; i < n_clients; ++i) {
    const int owner = i % n;
    plan.client_owner.push_back(owner);
    plan.addr_owner[scenario::addrs::client(i)] = owner;
  }
  int bot = 0;
  for (const scenario::AttackSpec& g : spec.attacks) {
    for (int i = 0; i < g.count; ++i, ++bot) {
      const int owner = bot % n;
      plan.bot_owner.push_back(owner);
      plan.addr_owner[scenario::addrs::bot(bot)] = owner;
    }
  }
  return plan;
}

namespace {

/// Per-shard worker state, cache-line padded: result collection and error
/// slots are written by different threads and must never share a line.
struct alignas(64) ShardSlot {
  scenario::Result result;
  std::shared_ptr<obs::Recorder> recorder;
  std::exception_ptr error;
};

}  // namespace

scenario::Result run(const Spec& spec, const ParSpec& par) {
  if (par.shards < 1) {
    throw std::invalid_argument("par: shards must be >= 1");
  }
  if (par.shards == 1) return scenario::run(spec);

  const auto wall_start = std::chrono::steady_clock::now();
  const int n = par.shards;

  // The conservative horizon: every link in the scenario topology has
  // propagation delay spec.net.link_delay, and every cross-shard segment is
  // captured at least one such hop before its destination (net/portal.hpp),
  // so shards may run L ahead of each other risk-free.
  SimTime lookahead = spec.net.link_delay;
  if (lookahead <= SimTime::zero()) {
    throw std::invalid_argument(
        "par: net.link_delay must be positive — it is the conservative "
        "lookahead bound");
  }
  if (par.lookahead > SimTime::zero()) {
    if (par.lookahead > lookahead) {
      throw std::invalid_argument(
          "par: lookahead override exceeds the topology's minimum "
          "cross-shard link delay");
    }
    lookahead = par.lookahead;
  }

  const ShardPlan plan = plan_shards(spec, n);
  std::vector<Mailbox> boxes(static_cast<std::size_t>(n) *
                             static_cast<std::size_t>(n));
  SpinBarrier barrier(n);
  std::vector<ShardSlot> slots(static_cast<std::size_t>(n));

  const auto worker = [&](int s) {
    ShardSlot& slot = slots[static_cast<std::size_t>(s)];
    // Per-shard flight recorder, installed in this thread's slot — the
    // single-writer contract (obs/trace.hpp): this thread is the ring's
    // only writer; the merge below runs after join.
    std::optional<obs::ScopedRecorder> scoped;
    if (spec.obs.trace) {
      slot.recorder = std::make_shared<obs::Recorder>(spec.obs.ring_capacity,
                                                      spec.obs.categories);
      scoped.emplace(slot.recorder.get());
    }

    // The engine keeps a pointer to the env for its whole lifetime (the
    // portal sinks call env.send mid-round), so it must outlive `eng`.
    scenario::ShardEnv env;
    std::unique_ptr<scenario::Engine> eng;
    try {
      env.shard = s;
      env.n_shards = n;
      env.server_owner = plan.server_owner;
      env.client_owner = plan.client_owner;
      env.bot_owner = plan.bot_owner;
      env.send = [&boxes, &plan, s, n](SimTime at, const tcp::Segment& seg) {
        // Portals only ever see destinations with installed routes, and
        // routes exist exactly for planned remote addresses.
        const int dst = plan.addr_owner.at(seg.daddr);
        boxes[static_cast<std::size_t>(s) * static_cast<std::size_t>(n) +
              static_cast<std::size_t>(dst)]
            .msgs.push_back({at, seg});
      };
      eng = std::make_unique<scenario::Engine>(spec, &env);
    } catch (...) {
      slot.error = std::current_exception();
    }

    // Bounded-lookahead rounds. Every shard executes the same round count,
    // so the barrier protocol stays balanced even if this shard failed —
    // a dead shard just drains its inboxes into the void.
    bool sense = false;
    SimTime now = SimTime::zero();
    while (now < spec.duration) {
      const SimTime horizon = std::min(spec.duration, now + lookahead);
      if (eng) {
        try {
          eng->run_until(horizon);  // write phase: portals fill outboxes
        } catch (...) {
          slot.error = std::current_exception();
          eng.reset();
        }
      }
      barrier.arrive_and_wait(sense);
      // Drain phase: fixed source order makes event sequence numbers — and
      // therefore tie-breaking among same-timestamp events — deterministic.
      for (int src = 0; src < n; ++src) {
        auto& inbox = boxes[static_cast<std::size_t>(src) *
                                static_cast<std::size_t>(n) +
                            static_cast<std::size_t>(s)]
                          .msgs;
        if (eng) {
          try {
            for (const ShardMsg& msg : inbox) eng->inject(msg.at, msg.seg);
          } catch (...) {
            slot.error = std::current_exception();
            eng.reset();
          }
        }
        inbox.clear();
      }
      barrier.arrive_and_wait(sense);
      now = horizon;
    }
    if (eng) {
      try {
        slot.result = eng->collect();
      } catch (...) {
        slot.error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) threads.emplace_back(worker, s);
  for (std::thread& t : threads) t.join();
  for (const ShardSlot& slot : slots) {
    if (slot.error) std::rethrow_exception(slot.error);
  }

  // Merge: each global slot comes from its owning shard; scalar fields live
  // where their owner does (the fleet control plane and the fluid
  // populations follow server 0's shard).
  std::uint64_t total_events = 0;
  for (const ShardSlot& slot : slots) {
    total_events += slot.result.events_processed;
  }
  const int infra = plan.server_owner[0];
  scenario::Result merged =
      std::move(slots[static_cast<std::size_t>(infra)].result);
  merged.cluster = {};
  for (int i = 0; i < spec.servers.count; ++i) {
    const int owner = plan.server_owner[static_cast<std::size_t>(i)];
    if (owner != infra) {
      merged.servers[static_cast<std::size_t>(i)] = std::move(
          slots[static_cast<std::size_t>(owner)]
              .result.servers[static_cast<std::size_t>(i)]);
    }
    merged.cluster += merged.servers[static_cast<std::size_t>(i)].counters;
  }
  for (std::size_t i = 0; i < plan.client_owner.size(); ++i) {
    const int owner = plan.client_owner[i];
    if (owner != infra) {
      merged.clients[i] =
          std::move(slots[static_cast<std::size_t>(owner)].result.clients[i]);
    }
  }
  {
    std::size_t bot = 0;
    for (std::size_t g = 0; g < spec.attacks.size(); ++g) {
      for (int i = 0; i < spec.attacks[g].count; ++i, ++bot) {
        const int owner = plan.bot_owner[bot];
        if (owner != infra) {
          merged.groups[g].bots[static_cast<std::size_t>(i)] = std::move(
              slots[static_cast<std::size_t>(owner)]
                  .result.groups[g]
                  .bots[static_cast<std::size_t>(i)]);
        }
      }
    }
  }
  merged.events_processed = total_events;

  if (spec.obs.trace) {
    // Merge the per-shard rings into one recorder, ordered by sim time.
    // stable_sort on the shard-order concatenation gives a deterministic
    // total order: ties resolve by shard index, then per-shard ring order.
    std::vector<obs::TraceEvent> all;
    std::size_t total = 0;
    for (const ShardSlot& slot : slots) total += slot.recorder->size();
    all.reserve(total);
    for (const ShardSlot& slot : slots) {
      slot.recorder->for_each(
          [&all](const obs::TraceEvent& ev) { all.push_back(ev); });
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                       return a.t < b.t;
                     });
    auto rec = std::make_shared<obs::Recorder>(spec.obs.ring_capacity,
                                               spec.obs.categories);
    for (const obs::TraceEvent& ev : all) rec->append(ev);
    merged.tracks = scenario::track_names(spec);
    if (!spec.obs.chrome_trace_path.empty()) {
      obs::write_chrome_trace(*rec, merged.tracks,
                              spec.obs.chrome_trace_path);
    }
    if (!spec.obs.flows_path.empty()) {
      if (std::FILE* f = std::fopen(spec.obs.flows_path.c_str(), "w")) {
        obs::write_flows(f, obs::reconstruct_flows(*rec));
        std::fclose(f);
      }
    }
    merged.trace = std::move(rec);
  }

  merged.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return merged;
}

}  // namespace tcpz::par
