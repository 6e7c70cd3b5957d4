#include "par/engine.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "obs/trace.hpp"
#include "par/mailbox.hpp"
#include "scenario/engine.hpp"

namespace tcpz::par {

using scenario::Spec;

ShardPlan plan_shards(const Spec& spec, int n_shards) {
  ShardPlan plan;
  plan.roster = scenario::roster(spec);
  for (const scenario::Agent& a : plan.roster) {
    // Replicas share a balancer, secret directory and replay cache — one
    // shard owns the whole service edge.
    const int owner =
        spec.fleet.enabled && a.role == scenario::Role::kServer
            ? 0
            : a.index % n_shards;
    plan.owner.push_back(owner);
    plan.addr_owner[a.addr] = owner;
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
  const SimTime lookahead = spec.net.link_delay;
  if (lookahead <= SimTime::zero()) {
    throw std::invalid_argument(
        "par: net.link_delay must be positive — it is the conservative "
        "lookahead bound");
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
      env.owner = plan.owner;
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

  // Merge: each agent's report comes from its owning shard; scalar fields
  // live where their owner does (the fleet control plane and the fluid
  // populations follow server 0's shard). The other shards' role ledgers
  // are added to the infra shard's bin by bin, in shard order.
  std::uint64_t total_events = 0;
  for (const ShardSlot& slot : slots) {
    total_events += slot.result.events_processed;
  }
  const int infra = plan.owner[0];
  scenario::Result merged =
      std::move(slots[static_cast<std::size_t>(infra)].result);
  for (std::size_t k = 0; k < plan.roster.size(); ++k) {
    const int owner = plan.owner[k];
    if (owner == infra) continue;
    const scenario::Agent& a = plan.roster[k];
    scenario::Result& from = slots[static_cast<std::size_t>(owner)].result;
    const auto i = static_cast<std::size_t>(a.index);
    if (a.role == scenario::Role::kServer) {
      merged.servers[i] = std::move(from.servers[i]);
    } else if (a.role == scenario::Role::kClient) {
      merged.clients[i] = std::move(from.clients[i]);
    } else {
      const auto g = static_cast<std::size_t>(a.group);
      const auto m = static_cast<std::size_t>(a.member);
      merged.groups[g].bots[m] = std::move(from.groups[g].bots[m]);
    }
  }
  merged.cluster = {};
  for (const sim::ServerReport& server : merged.servers) {
    merged.cluster += server.counters;
  }
  for (int s = 0; s < n; ++s) {
    if (s == infra) continue;
    const scenario::Result& from = slots[static_cast<std::size_t>(s)].result;
    merged.legit += from.legit;
    for (std::size_t g = 0; g < merged.groups.size(); ++g) {
      merged.groups[g].series += from.groups[g].series;
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
    scenario::export_trace(spec, std::move(rec), merged);
  }

  merged.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return merged;
}

}  // namespace tcpz::par
