// The scenario engine (see spec.hpp and engine.hpp). One code path builds
// every topology — single server, addressable multi-server group,
// load-balanced fleet — and runs any mix of attack groups against it.
// Fixed-seed traces are pinned by tests/scenario_trace_test.cpp.
//
// The construction lives in Engine (engine.hpp) so the sharded driver in
// src/par/ can instantiate one engine per worker shard; scenario::run() is
// the classic whole-world single-thread entry point on top of it.
#include "scenario/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "crypto/secret.hpp"
#include "fleet/replay_cache.hpp"
#include "fleet/secret_directory.hpp"
#include "net/cadence.hpp"
#include "net/portal.hpp"
#include "net/topology.hpp"
#include "puzzle/engine.hpp"
#include "scenario/spec.hpp"
#include "sim/attacker_agent.hpp"
#include "sim/client_agent.hpp"
#include "sim/server_agent.hpp"
#include "workload/fluid.hpp"

namespace tcpz::scenario {
namespace {

enum class Role : std::uint64_t { kServer = 1, kClient = 2, kBot = 3 };

/// Per-agent seed: a stable (role, group, index) id hashed against the spec
/// seed, so no agent's stream depends on how many others exist.
std::uint64_t agent_seed(std::uint64_t root, Role role, std::uint64_t group,
                         std::uint64_t index) {
  const std::uint64_t id =
      (static_cast<std::uint64_t>(role) << 56) | (group << 32) | index;
  return Rng::derive_seed(root, id);
}

void validate(const Spec& spec) {
  if (spec.servers.count < 1) {
    throw std::invalid_argument("scenario: servers.count must be >= 1");
  }
  const std::size_t n_policies = spec.servers.policies.size();
  if (n_policies > 1 &&
      n_policies != static_cast<std::size_t>(spec.servers.count)) {
    throw std::invalid_argument(
        "scenario: servers.policies must be empty, a single spec, or one "
        "per server");
  }
  if (!spec.events.empty() && !spec.fleet.enabled) {
    throw std::invalid_argument(
        "scenario: health events require the fleet topology");
  }
  for (const TimelineEvent& ev : spec.events) {
    if (ev.server < 0 || ev.server >= spec.servers.count) {
      throw std::invalid_argument("scenario: event references unknown server");
    }
  }
  for (const AttackSpec& a : spec.attacks) {
    if (a.count < 0) {
      throw std::invalid_argument("scenario: attack group count must be >= 0");
    }
    // An empty group never emits, so its rate is irrelevant — "no attack"
    // baselines (count = 0, rate = 0) stay valid.
    if (a.count > 0 && a.rate <= 0.0) {
      throw std::invalid_argument("scenario: attack group rate must be > 0");
    }
  }
}

}  // namespace

std::string AttackSpec::label() const {
  // The built strategy's own name keeps distinctions the kind alone loses
  // (e.g. "conn-flood-legacy" for an unpatched stack), exactly as the
  // defense side threads policy_name() into reports.
  return name.empty() ? strategy.build()->name() : name;
}

Spec Spec::scaled() const {
  Spec s = *this;
  s.duration = SimTime::seconds(120);
  s.attack_start = SimTime::seconds(30);
  s.attack_end = SimTime::seconds(80);
  return s;
}

defense::PolicySpec Spec::server_policy(int i) const {
  if (servers.policies.empty()) return defense::PolicySpec::puzzles();
  if (servers.policies.size() == 1) return servers.policies[0];
  return servers.policies[static_cast<std::size_t>(i)];
}

double AttackGroupReport::measured_rate(std::size_t from,
                                        std::size_t to) const {
  double sum = 0;
  for (const auto& b : bots) sum += b.attempts.mean_rate(from, to);
  return sum;
}

std::uint64_t AttackGroupReport::total_established() const {
  std::uint64_t sum = 0;
  for (const auto& b : bots) sum += b.total_established;
  return sum;
}

std::uint64_t AttackGroupReport::total_attempts() const {
  std::uint64_t sum = 0;
  for (const auto& b : bots) sum += b.total_attempts;
  return sum;
}

namespace {
/// Applies `fn` to every legitimate-population report: the discrete cohort
/// and the fluid aggregates (each of the latter stands for many users).
template <typename F>
void for_each_legit(const Result& r, F&& fn) {
  for (const auto& c : r.clients) fn(c);
  for (const auto& c : r.fluid) fn(c);
}
}  // namespace

double Result::client_rx_mbps(std::size_t from, std::size_t to) const {
  double sum = 0;
  for_each_legit(*this,
                 [&](const sim::HostReport& c) { sum += c.rx_mbps(from, to); });
  return sum;
}

double Result::client_success_ratio() const {
  std::uint64_t attempts = 0, completions = 0;
  for_each_legit(*this, [&](const sim::HostReport& c) {
    attempts += c.total_attempts;
    completions += c.total_completions;
  });
  return attempts ? static_cast<double>(completions) /
                        static_cast<double>(attempts)
                  : 0.0;
}

double Result::client_wire_success_pct(std::size_t from,
                                       std::size_t to) const {
  double attempts = 0, completions = 0, refused = 0;
  for_each_legit(*this, [&](const sim::HostReport& c) {
    for (std::size_t t = from; t < to; ++t) {
      attempts += c.attempts.total(t);
      completions += c.completions.total(t);
      refused += c.refusals.total(t);
    }
  });
  const double wire = attempts - refused;
  // Completions bin later than their attempts (solve + RTT + response), so
  // a window can complete slightly more than it started; clamp to 100.
  return wire > 0 ? std::min(100.0, 100.0 * completions / wire) : 0.0;
}

double Result::client_success_pct(std::size_t from, std::size_t to) const {
  double attempts = 0, completions = 0;
  for_each_legit(*this, [&](const sim::HostReport& c) {
    for (std::size_t t = from; t < to; ++t) {
      attempts += c.attempts.total(t);
      completions += c.completions.total(t);
    }
  });
  return attempts > 0 ? 100.0 * completions / attempts : 0.0;
}

double Result::mean_client_cpu(SimTime from, SimTime to) const {
  double sum = 0;
  for (const auto& c : clients) sum += c.cpu.mean_in(from, to);
  return clients.empty() ? 0.0 : sum / static_cast<double>(clients.size());
}

double Result::mean_bot_cpu(SimTime from, SimTime to) const {
  double sum = 0;
  std::size_t n = 0;
  for (const auto& g : groups) {
    for (const auto& b : g.bots) {
      sum += b.cpu.mean_in(from, to);
      ++n;
    }
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

double Result::bot_measured_rate(std::size_t from, std::size_t to) const {
  double sum = 0;
  for (const auto& g : groups) sum += g.measured_rate(from, to);
  return sum;
}

double Result::attacker_cps(std::size_t from, std::size_t to) const {
  double sum = 0;
  for (const auto& s : servers) sum += s.attacker_cps(from, to);
  return sum;
}

int n_discrete_clients(const Spec& spec) {
  const workload::ModelSpec wmodel = spec.workload.model_spec();
  return wmodel.kind == workload::ModelSpec::Kind::kHybridFluid
             ? static_cast<int>(wmodel.cohort_size())
             : spec.workload.n_clients;
}

obs::TrackNames track_names(const Spec& spec) {
  obs::TrackNames tracks;
  tracks.emplace_back(0, "infra");
  for (int i = 0; i < spec.servers.count; ++i) {
    tracks.emplace_back(
        static_cast<std::uint16_t>(1 + i),
        (spec.fleet.enabled ? "replica" : "server") + std::to_string(i));
  }
  int bot = 0;
  for (const AttackSpec& g : spec.attacks) {
    for (int i = 0; i < g.count; ++i, ++bot) {
      tracks.emplace_back(
          static_cast<std::uint16_t>(1 + spec.servers.count + bot),
          "bot" + std::to_string(bot) + ":" + g.label());
    }
  }
  return tracks;
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

struct Engine::Impl {
  // Declaration order is construction AND (reverse) destruction order: the
  // simulator outlives the topology, which outlives the agents' hosts.
  Spec spec;
  const ShardEnv* env;
  bool sharded;
  workload::ModelSpec wmodel;
  int n_discrete;

  net::Simulator sim;
  net::Topology topo{sim};

  net::Router* r1 = nullptr;
  net::Router* r2 = nullptr;
  net::Router* r3 = nullptr;
  fleet::LoadBalancer* lb = nullptr;
  std::vector<net::Host*> server_hosts;  ///< nullptr slots = other shards
  std::vector<net::Host*> client_hosts;
  std::vector<net::Host*> bot_hosts;
  /// Cross-shard egress (sharded only): portals and their feeder links live
  /// outside the Topology so compute_routes never considers them.
  std::vector<std::unique_ptr<net::PortalNode>> portals;
  std::vector<std::unique_ptr<net::Link>> portal_links;

  std::optional<crypto::SecretKey> secret;
  std::shared_ptr<const puzzle::PuzzleEngine> engine;
  std::optional<fleet::SecretDirectory> directory;
  std::optional<fleet::ReplayCache> replay_cache;

  std::vector<std::unique_ptr<sim::ServerAgent>> servers;  ///< nullptr = remote
  /// The discrete clients' shared tick and sample timers (per shard: each
  /// shard's engine has its own simulator).
  net::Cadence client_ticks{sim, spec.tick_interval, spec.duration};
  net::Cadence client_samples{sim, spec.sample_interval, spec.duration};
  std::vector<std::unique_ptr<sim::ClientAgent>> clients;
  std::vector<std::unique_ptr<workload::FluidPopulation>> fluids;
  std::vector<tcp::Listener*> fluid_listeners;
  std::vector<std::unique_ptr<sim::AttackerAgent>> bots;

  /// Owned model address -> the access router cross-shard injections enter
  /// at (the last contended hop — access-link queueing stays exact).
  std::unordered_map<std::uint32_t, net::Node*> inject_points;
  int n_fluid_targets = 0;
  bool finalized = false;

  [[nodiscard]] bool owns_server(int i) const {
    return !sharded ||
           env->server_owner[static_cast<std::size_t>(i)] == env->shard;
  }
  [[nodiscard]] bool owns_client(int i) const {
    return !sharded ||
           env->client_owner[static_cast<std::size_t>(i)] == env->shard;
  }
  [[nodiscard]] bool owns_bot(int i) const {
    return !sharded ||
           env->bot_owner[static_cast<std::size_t>(i)] == env->shard;
  }
  /// The fleet control plane (balancer, directory, health events) lives
  /// with server 0 — the par driver keeps a fleet's servers on one shard.
  [[nodiscard]] bool owns_infra() const { return owns_server(0); }

  Impl(const Spec& s, const ShardEnv* e)
      : spec(s),
        env(e),
        sharded(e != nullptr && e->n_shards > 1),
        wmodel(s.workload.model_spec()),
        n_discrete(n_discrete_clients(s)) {
    validate(spec);
    if (sharded) validate_env();
    build();
  }

  void validate_env() const {
    if (!env->send) {
      throw std::invalid_argument("scenario::Engine: ShardEnv::send unset");
    }
    std::size_t n_bots = 0;
    for (const AttackSpec& g : spec.attacks) {
      n_bots += static_cast<std::size_t>(g.count);
    }
    if (env->server_owner.size() !=
            static_cast<std::size_t>(spec.servers.count) ||
        env->client_owner.size() != static_cast<std::size_t>(n_discrete) ||
        env->bot_owner.size() != n_bots) {
      throw std::invalid_argument(
          "scenario::Engine: ShardEnv owner vectors mis-sized");
    }
    if (spec.fleet.enabled) {
      for (const int o : env->server_owner) {
        if (o != env->server_owner[0]) {
          throw std::invalid_argument(
              "scenario::Engine: fleet replicas must share one shard (they "
              "share a balancer, directory and replay cache)");
        }
      }
    }
  }

  void build() {
    // Fig. 16: three fully connected backbone routers; the service edge
    // (server, server group, or balancer + fleet) hangs off r1. Every shard
    // carries the router triangle — local traffic uses its local replica.
    r1 = topo.add_router("r1");
    r2 = topo.add_router("r2");
    r3 = topo.add_router("r3");
    const net::LinkSpec backbone{spec.net.backbone_bps, spec.net.link_delay,
                                 4u << 20};
    topo.connect(r1, r2, backbone);
    topo.connect(r2, r3, backbone);
    topo.connect(r1, r3, backbone);

    const net::LinkSpec server_link{spec.net.server_link_bps,
                                    spec.net.link_delay, 4u << 20};
    if (spec.fleet.enabled) {
      if (owns_infra()) {
        fleet::LoadBalancerConfig lcfg;
        lcfg.vip = addrs::kServerAddr;
        lcfg.policy = spec.fleet.balance;
        lcfg.flow_idle_timeout = spec.fleet.lb_flow_idle_timeout;
        lb = static_cast<fleet::LoadBalancer*>(topo.add_node(
            std::make_unique<fleet::LoadBalancer>(sim, "lb", lcfg)));
        topo.advertise(lb, addrs::kServerAddr);
        topo.connect(lb, r1,
                     {spec.fleet.lb_uplink_bps, spec.net.link_delay, 4u << 20});
        // Replicas terminate VIP traffic directly (DSR); their hosts carry
        // the VIP address but are not advertised — the balancer owns the
        // route.
        for (int i = 0; i < spec.servers.count; ++i) {
          net::Host* h = topo.add_host("replica" + std::to_string(i),
                                       addrs::kServerAddr, /*advertise=*/false);
          auto [to_replica, from_replica] = topo.connect(lb, h, server_link);
          (void)from_replica;
          lb->add_backend(to_replica);
          server_hosts.push_back(h);
        }
      } else {
        server_hosts.assign(static_cast<std::size_t>(spec.servers.count),
                            nullptr);
      }
    } else {
      // Each server is independently addressable at 10.1.0.1+i; fleet-aware
      // strategies spread their attempts across the list.
      for (int i = 0; i < spec.servers.count; ++i) {
        if (!owns_server(i)) {
          server_hosts.push_back(nullptr);
          continue;
        }
        net::Host* h = topo.add_host(
            spec.servers.count == 1 ? "server" : "server" + std::to_string(i),
            addrs::server(i));
        topo.connect(h, r1, server_link);
        server_hosts.push_back(h);
      }
    }

    // Discrete legitimate clients: all of them under the open-loop model,
    // the sampled cohort under a hybrid model (the fluid remainder never
    // gets hosts — it enters the listeners as aggregate mass).
    const net::LinkSpec host_link{spec.net.host_link_bps, spec.net.link_delay,
                                  1u << 20};
    for (int i = 0; i < n_discrete; ++i) {
      if (!owns_client(i)) {
        client_hosts.push_back(nullptr);
        continue;
      }
      net::Host* h =
          topo.add_host("client" + std::to_string(i), addrs::client(i));
      topo.connect(h, i % 2 == 0 ? r2 : r3, host_link);
      client_hosts.push_back(h);
    }
    {
      int bot = 0;
      for (const AttackSpec& g : spec.attacks) {
        for (int i = 0; i < g.count; ++i, ++bot) {
          if (!owns_bot(bot)) {
            bot_hosts.push_back(nullptr);
            continue;
          }
          net::Host* h =
              topo.add_host("bot" + std::to_string(bot), addrs::bot(bot));
          topo.connect(h, bot % 2 == 0 ? r3 : r2, host_link);
          bot_hosts.push_back(h);
        }
      }
    }
    topo.compute_routes();
    if (sharded) install_portals();

    // Crypto. Non-fleet: one shared oracle engine — the servers verify with
    // the same secret the oracle derives "solutions" from (DESIGN.md,
    // Substitutions). Fleet: the SecretDirectory owns secret + engine and
    // rotates them; a down-level replica simply never subscribes. Every
    // shard derives identical objects from the spec seed, so client/bot
    // shards solve against the same challenges the server shard mints.
    if (spec.fleet.enabled) {
      fleet::SecretDirectoryConfig dcfg;
      dcfg.seed = spec.seed;
      dcfg.rotation_interval = spec.fleet.rotation_interval;
      dcfg.overlap = spec.fleet.rotation_overlap;
      dcfg.engine.sol_len = spec.servers.sol_len;
      dcfg.engine.expiry_ms = spec.servers.puzzle_expiry_ms;
      directory.emplace(dcfg);
      // Replay entries die with the puzzle expiry (plus clock slack).
      replay_cache.emplace(spec.servers.puzzle_expiry_ms + 1000);
      engine = directory->current_engine();
    } else {
      secret = crypto::SecretKey::from_seed(spec.seed);
      puzzle::EngineConfig ecfg;
      ecfg.sol_len = spec.servers.sol_len;
      ecfg.expiry_ms = spec.servers.puzzle_expiry_ms;
      engine = std::make_shared<puzzle::OraclePuzzleEngine>(*secret, ecfg);
    }

    // Capacity: the fleet splits the ServerSpec pool across replicas
    // (apples-to-apples sharding) or replicates it (scale-out); standalone
    // servers always get the spec as written.
    const int div = spec.fleet.enabled && spec.fleet.divide_capacity
                        ? spec.servers.count
                        : 1;
    const bool clamp = spec.fleet.enabled;
    const int workers = std::max(1, spec.servers.n_workers / div);
    const double service_rate = spec.servers.service_rate / div;
    const std::size_t listen_backlog =
        clamp ? std::max<std::size_t>(
                    16, spec.servers.listen_backlog /
                            static_cast<std::size_t>(div))
              : spec.servers.listen_backlog;
    const std::size_t accept_backlog =
        clamp ? std::max<std::size_t>(
                    16, spec.servers.accept_backlog /
                            static_cast<std::size_t>(div))
              : spec.servers.accept_backlog;

    for (int i = 0; i < spec.servers.count; ++i) {
      if (!owns_server(i)) {
        servers.push_back(nullptr);
        continue;
      }
      const defense::PolicySpec pspec = spec.server_policy(i);
      sim::ServerAgentConfig scfg;
      scfg.listener.local_addr =
          spec.fleet.enabled ? addrs::kServerAddr : addrs::server(i);
      scfg.listener.local_port = addrs::kServerPort;
      scfg.listener.listen_backlog = listen_backlog;
      scfg.listener.accept_backlog = accept_backlog;
      scfg.listener.difficulty = spec.servers.difficulty;
      scfg.listener.policy = pspec.factory();
      // Track 0 is shared infrastructure; servers take 1..count.
      scfg.listener.trace_track = static_cast<std::uint16_t>(1 + i);
      scfg.service_rate = service_rate;
      scfg.n_workers = workers;
      scfg.response_bytes = spec.workload.response_bytes;
      scfg.app_idle_timeout = spec.servers.app_idle_timeout;
      scfg.cpu = spec.servers.cpu;
      scfg.tick_interval = spec.tick_interval;
      scfg.sample_interval = spec.sample_interval;
      scfg.is_attacker = addrs::is_bot;
      const bool puzzles = pspec.wants_engine();
      servers.push_back(std::make_unique<sim::ServerAgent>(
          sim, *server_hosts[static_cast<std::size_t>(i)], scfg,
          spec.fleet.enabled ? directory->current_secret() : *secret,
          agent_seed(spec.seed, Role::kServer, 0,
                     static_cast<std::uint64_t>(i)),
          puzzles ? engine : nullptr));
      if (spec.fleet.enabled && puzzles) {
        directory->subscribe(&servers.back()->listener());
        if (spec.fleet.shared_replay_cache) {
          fleet::ReplayCache* rc = &*replay_cache;
          servers.back()->listener().set_replay_filter(
              [rc](const tcp::FlowKey& flow, std::uint32_t ts,
                   std::uint32_t now_ms) {
                return rc->check_and_insert(flow, ts, now_ms);
              });
        }
      }
      servers.back()->start(spec.duration);
    }
    if (spec.fleet.enabled && owns_infra()) {
      directory->start(sim, spec.duration);
      lb->start(spec.duration);
      // Health schedule (applied through the balancer's health state).
      for (const TimelineEvent& ev : spec.events) {
        fleet::LoadBalancer* b = lb;
        sim.schedule_at(ev.at,
                        [b, ev] { b->set_backend_up(ev.server, ev.up); });
      }
    }

    // Clients target the first address (the VIP / the canonical server).
    // One engine instance suffices across secret rotations: oracle
    // solutions derive from the challenge bytes alone, exactly like a real
    // brute-force solver.
    for (int i = 0; i < n_discrete; ++i) {
      if (!owns_client(i)) {
        clients.push_back(nullptr);
        continue;
      }
      sim::ClientAgentConfig ccfg;
      ccfg.model = wmodel.factory();
      ccfg.server_addr = addrs::kServerAddr;
      ccfg.server_port = addrs::kServerPort;
      ccfg.request_rate = spec.workload.request_rate;
      ccfg.request_bytes = spec.workload.request_bytes;
      ccfg.response_bytes = spec.workload.response_bytes;
      ccfg.solve_puzzles = spec.workload.solve_puzzles;
      ccfg.engine = engine;
      ccfg.cpu = spec.workload.cpu;
      if (spec.pow == PowKind::kMemoryBound) {
        ccfg.solve_ops_rate = spec.workload.cpu.mem_rate;
      }
      ccfg.max_pending_solves = spec.workload.max_pending_solves;
      ccfg.response_timeout = spec.workload.response_timeout;
      clients.push_back(std::make_unique<sim::ClientAgent>(
          sim, *client_hosts[static_cast<std::size_t>(i)], ccfg,
          agent_seed(spec.seed, Role::kClient, 0,
                     static_cast<std::uint64_t>(i)),
          client_ticks, client_samples));
      clients.back()->start(spec.duration);
    }

    // Hybrid fluid remainder: the users beyond the sampled cohort enter the
    // listeners as aggregate mass, one population per server that takes
    // legitimate traffic (the fleet's balancer spreads clients across
    // replicas; addressable groups send them all to the canonical first
    // server, and the fluid mass follows suit). Deterministic — no hosts,
    // no packets, no RNG draws — so adding fluid users never perturbs any
    // discrete agent's stream. Populations are co-located with the server
    // shard (they feed listeners directly, no links involved).
    if (wmodel.kind == workload::ModelSpec::Kind::kHybridFluid &&
        wmodel.fluid_users() > 0) {
      const int n_targets = spec.fleet.enabled ? spec.servers.count : 1;
      n_fluid_targets = n_targets;
      const double per_users = static_cast<double>(wmodel.fluid_users()) /
                               static_cast<double>(n_targets);
      const double cohort_per =
          static_cast<double>(n_discrete) / static_cast<double>(n_targets);
      const double service_share = spec.servers.service_rate /
                                   static_cast<double>(div);
      for (int i = 0; i < n_targets; ++i) {
        if (!owns_server(i)) continue;
        workload::FluidConfig fc;
        fc.users = per_users;
        fc.request_rate = wmodel.request_rate;
        fc.request_bytes = wmodel.request_bytes;
        fc.response_bytes = wmodel.response_bytes;
        fc.solve_puzzles = spec.workload.solve_puzzles;
        fc.hash_rate = spec.workload.cpu.hash_rate;
        fc.solver_lanes = spec.workload.cpu.solver_lanes;
        fc.cores = spec.workload.cpu.cores;
        fc.max_pending_solves = wmodel.max_pending_solves;
        // Proportional share of the replica's drain rate between the fluid
        // mass and the discrete cohort aimed at the same listener.
        fc.service_rate = service_share * per_users /
                          std::max(1.0, per_users + cohort_per);
        fc.response_timeout = spec.workload.response_timeout;
        fluids.push_back(std::make_unique<workload::FluidPopulation>(
            fc, spec.servers.difficulty));
        fluid_listeners.push_back(
            &servers[static_cast<std::size_t>(i)]->listener());
      }
      // The step/sample drivers, all scheduled here up front (bounded by
      // duration, a few thousand events). Order at equal timestamps is
      // schedule order: at the first tick instant the step fires after the
      // servers' ticks and the client tick cadence, which were armed
      // earlier in this build. From the second instant on it fires before
      // every agent tick, because agent timers re-arm at an earlier
      // instant, after this whole pre-schedule. The drivers stay
      // pre-scheduled: they already cost one event per instant for all
      // populations together, so a cadence would save nothing, and
      // self-re-arming would move every later step behind the server and
      // client ticks.
      if (!fluids.empty()) {
        auto* fl = &fluids;
        auto* ls = &fluid_listeners;
        const SimTime dt = spec.tick_interval;
        for (SimTime t = dt; t <= spec.duration; t += dt) {
          sim.schedule_at(t, [fl, ls, t, dt] {
            for (std::size_t i = 0; i < fl->size(); ++i) {
              (*fl)[i]->step(t, dt, *(*ls)[i]);
            }
          });
        }
        for (SimTime t = spec.sample_interval; t <= spec.duration;
             t += spec.sample_interval) {
          sim.schedule_at(t, [fl, t] {
            for (auto& f : *fl) f->sample(t);
          });
        }
      }
    }

    // Bots, one agent per group member. Every bot gets the full target
    // list; which target a given slot aims at is the strategy's call.
    std::vector<sim::AttackTarget> targets;
    if (spec.fleet.enabled) {
      targets.push_back({addrs::kServerAddr, addrs::kServerPort});
    } else {
      for (int i = 0; i < spec.servers.count; ++i) {
        targets.push_back({addrs::server(i), addrs::kServerPort});
      }
    }
    {
      std::size_t host_idx = 0;
      std::uint64_t group_idx = 0;
      for (const AttackSpec& g : spec.attacks) {
        offense::StrategySpec sspec = g.strategy;
        sspec.slot_rate = g.rate;  // lets game-adaptive convert rates to odds
        for (int i = 0; i < g.count; ++i, ++host_idx) {
          if (!owns_bot(static_cast<int>(host_idx))) {
            bots.push_back(nullptr);
            continue;
          }
          sim::AttackerAgentConfig acfg;
          acfg.targets = targets;
          acfg.strategy = sspec.factory();
          acfg.rate = g.rate;
          acfg.attack_start = g.start.value_or(spec.attack_start);
          acfg.attack_end = g.end.value_or(spec.attack_end);
          acfg.engine = engine;
          acfg.cpu = g.cpu;
          if (spec.pow == PowKind::kMemoryBound) {
            acfg.solve_ops_rate = g.cpu.mem_rate;
          }
          acfg.max_pending_solves = g.max_pending_solves;
          acfg.max_inflight = g.max_inflight;
          acfg.tick_interval = spec.tick_interval;
          acfg.sample_interval = spec.sample_interval;
          // Bots take tracks above the server range, flat in group order.
          acfg.trace_track = static_cast<std::uint16_t>(
              1 + spec.servers.count + static_cast<int>(host_idx));
          bots.push_back(std::make_unique<sim::AttackerAgent>(
              sim, *bot_hosts[host_idx], acfg,
              agent_seed(spec.seed, Role::kBot, group_idx,
                         static_cast<std::uint64_t>(i))));
          bots.back()->start(spec.duration);
        }
        ++group_idx;
      }
    }

    // Cross-shard injections enter at the destination's access router, so
    // the access link (the dominant queueing direction under flood) keeps
    // exact contention.
    if (sharded) {
      if (spec.fleet.enabled) {
        if (owns_infra()) inject_points[addrs::kServerAddr] = r1;
      } else {
        for (int i = 0; i < spec.servers.count; ++i) {
          if (owns_server(i)) inject_points[addrs::server(i)] = r1;
        }
      }
      for (int i = 0; i < n_discrete; ++i) {
        if (owns_client(i)) {
          inject_points[addrs::client(i)] = i % 2 == 0 ? r2 : r3;
        }
      }
      for (std::size_t j = 0; j < env->bot_owner.size(); ++j) {
        if (owns_bot(static_cast<int>(j))) {
          inject_points[addrs::bot(static_cast<int>(j))] =
              j % 2 == 0 ? r3 : r2;
        }
      }
    }
  }

  /// Routes for remote addresses point at per-egress portals: captured one
  /// propagation hop early, serialized at the real egress link's bandwidth
  /// (the portal link), stamped `now + extra` for the remaining hops.
  void install_portals() {
    std::vector<std::uint32_t> remote;
    if (spec.fleet.enabled) {
      if (!owns_infra()) remote.push_back(addrs::kServerAddr);
    } else {
      for (int i = 0; i < spec.servers.count; ++i) {
        if (!owns_server(i)) remote.push_back(addrs::server(i));
      }
    }
    for (int i = 0; i < n_discrete; ++i) {
      if (!owns_client(i)) remote.push_back(addrs::client(i));
    }
    for (std::size_t j = 0; j < env->bot_owner.size(); ++j) {
      if (!owns_bot(static_cast<int>(j))) {
        remote.push_back(addrs::bot(static_cast<int>(j)));
      }
    }
    if (remote.empty()) return;

    const SimTime L = spec.net.link_delay;
    const auto attach = [this](net::Node* at, double bw,
                               SimTime extra) -> net::Link* {
      auto portal = std::make_unique<net::PortalNode>(
          sim, at->name() + ":portal", extra,
          [this](SimTime t, const tcp::Segment& seg) { env->send(t, seg); });
      auto link =
          std::make_unique<net::Link>(sim, *portal, bw, SimTime::zero(),
                                      4u << 20, at->name() + "->portal");
      net::Link* l = link.get();
      portals.push_back(std::move(portal));
      portal_links.push_back(std::move(link));
      return l;
    };
    struct Egress {
      net::Node* node;
      net::Link* link;
    };
    std::vector<Egress> egress;
    // From an access router the remaining path is one backbone hop
    // (propagation L, serialized at backbone bandwidth).
    for (net::Router* r : {r1, r2, r3}) {
      egress.push_back({r, attach(r, spec.net.backbone_bps, L)});
    }
    // DSR replies leave the balancer two propagation hops from any remote
    // edge (uplink + backbone), serialized at the uplink's bandwidth.
    if (lb != nullptr) {
      egress.push_back({lb, attach(lb, spec.fleet.lb_uplink_bps, L + L)});
    }
    for (const Egress& e : egress) {
      for (const std::uint32_t addr : remote) e.node->add_route(addr, e.link);
    }
  }

  Result collect() {
    if (!finalized) {
      finalized = true;
      if (spec.fleet.enabled && owns_infra()) {
        // Deschedule the periodic control-plane timers (idle sweep,
        // rotation) instead of leaving beyond-horizon tombstones.
        lb->stop();
        directory->stop(sim);
      }
    }

    Result result;
    for (int i = 0; i < spec.servers.count; ++i) {
      auto& slot = servers[static_cast<std::size_t>(i)];
      if (slot == nullptr) {
        result.servers.emplace_back();
        continue;
      }
      auto& agent = *slot;
      sim::ServerReport report = std::move(agent.report());
      report.counters = agent.listener().counters();
      report.policy = agent.listener().policy_name();
      report.final_difficulty_m = agent.listener().config().difficulty.m;
      result.cluster += report.counters;
      result.servers.push_back(std::move(report));
      if (lb != nullptr) result.lb.backends.push_back(lb->stats(i));
    }
    if (lb != nullptr) {
      result.lb.no_backend_drops = lb->no_backend_drops();
      result.lb.failover_evictions = lb->failover_evictions();
    }
    for (auto& c : clients) {
      if (c == nullptr) {
        result.clients.emplace_back();
      } else {
        result.clients.push_back(std::move(c->report()));
      }
    }
    if (!fluids.empty()) {
      for (auto& f : fluids) result.fluid.push_back(std::move(f->report()));
    } else if (n_fluid_targets > 0) {
      // Another shard owns the populations; keep the global shape.
      result.fluid.resize(static_cast<std::size_t>(n_fluid_targets));
    }
    if (wmodel.kind == workload::ModelSpec::Kind::kHybridFluid) {
      result.fluid_users = wmodel.fluid_users();
    }
    {
      std::size_t bot = 0;
      for (const AttackSpec& g : spec.attacks) {
        AttackGroupReport group;
        group.name = g.label();
        for (int i = 0; i < g.count; ++i, ++bot) {
          if (bots[bot] == nullptr) {
            group.bots.emplace_back();
          } else {
            group.bots.push_back(std::move(bots[bot]->report()));
          }
        }
        result.groups.push_back(std::move(group));
      }
    }
    if (directory) result.secret_rotations = directory->rotations();
    if (replay_cache) result.replay_cache_hits = replay_cache->hits();
    result.events_processed = sim.events_processed();
    return result;
  }
};

Engine::Engine(const Spec& spec, const ShardEnv* env)
    : impl_(std::make_unique<Impl>(spec, env)) {}

Engine::~Engine() = default;

void Engine::run_until(SimTime t) { impl_->sim.run_until(t); }

void Engine::inject(SimTime at, const tcp::Segment& seg) {
  const auto it = impl_->inject_points.find(seg.daddr);
  if (it == impl_->inject_points.end()) {
    throw std::logic_error(
        "scenario::Engine::inject: destination not owned by this shard");
  }
  net::Node* node = it->second;
  impl_->sim.schedule_at(at, [node, seg] { node->deliver(seg); });
}

SimTime Engine::lookahead() const {
  // Every path between agents on different shards traverses at least one
  // link of propagation delay `net.link_delay` beyond its capture point
  // (all LinkSpecs in build() use it), so that is the conservative bound.
  return impl_->spec.net.link_delay;
}

Result Engine::collect() { return impl_->collect(); }

Result run(const Spec& spec) {
  const auto wall_start = std::chrono::steady_clock::now();

  // Flight recorder, if requested. Installed for the whole run (RAII so it
  // can never leak into the next scenario in-process); with obs.trace unset
  // nothing is installed and every tracepoint stays a not-taken branch.
  std::shared_ptr<obs::Recorder> recorder;
  std::optional<obs::ScopedRecorder> scoped_recorder;
  if (spec.obs.trace) {
    recorder = std::make_shared<obs::Recorder>(spec.obs.ring_capacity,
                                               spec.obs.categories);
    scoped_recorder.emplace(recorder.get());
  }

  Engine engine(spec);
  engine.run_until(spec.duration);
  Result result = engine.collect();

  if (recorder) {
    result.tracks = track_names(spec);
    if (!spec.obs.chrome_trace_path.empty()) {
      obs::write_chrome_trace(*recorder, result.tracks,
                              spec.obs.chrome_trace_path);
    }
    if (!spec.obs.flows_path.empty()) {
      if (std::FILE* f = std::fopen(spec.obs.flows_path.c_str(), "w")) {
        obs::write_flows(f, obs::reconstruct_flows(*recorder));
        std::fclose(f);
      }
    }
    result.trace = std::move(recorder);
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return result;
}

}  // namespace tcpz::scenario
