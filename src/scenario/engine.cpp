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
#include <array>
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

/// Model address plan: servers at 10.1.0.1+i (a fleet shares the VIP
/// 10.1.0.1), clients at 10.2.0.1+i, bots at 10.3.0.1+i.
namespace addrs {
constexpr std::uint32_t kServerAddr = tcp::ipv4(10, 1, 0, 1);
constexpr std::uint16_t kServerPort = 80;
std::uint32_t server(int i) {
  return kServerAddr + static_cast<std::uint32_t>(i);
}
std::uint32_t client(int i) {
  return tcp::ipv4(10, 2, 0, 1) + static_cast<std::uint32_t>(i);
}
std::uint32_t bot(int i) {
  return tcp::ipv4(10, 3, 0, 1) + static_cast<std::uint32_t>(i);
}
bool is_bot(std::uint32_t addr) {
  return (addr & 0xffff0000u) == tcp::ipv4(10, 3, 0, 0);
}
}  // namespace addrs

/// Fig. 16 link rates: the gigabit backbone and server edge, 100 Mbit/s
/// client and bot access links, and a 10 Gbit/s balancer uplink.
constexpr double kBackboneBps = 1e9;
constexpr double kServerLinkBps = 1e9;
constexpr double kHostLinkBps = 100e6;
constexpr double kLbUplinkBps = 10e9;
/// The balancer forgets a flow after this long without a packet.
constexpr SimTime kLbFlowIdleTimeout = SimTime::seconds(30);
/// Challenge lifetime (the sysctl-tunable puzzle expiry).
constexpr std::uint32_t kPuzzleExpiryMs = 4000;

/// Number of discrete client hosts a spec instantiates (the sampled cohort
/// under a hybrid model, n_clients otherwise).
int n_discrete_clients(const Spec& spec) {
  const workload::ModelSpec wmodel = spec.workload.model_spec();
  return wmodel.kind == workload::ModelSpec::Kind::kHybridFluid
             ? static_cast<int>(wmodel.cohort_size())
             : spec.workload.n_clients;
}

/// A solver's CPU with its work rate resolved for the spec's proof of work:
/// hash_rate prices every solve, so under memory-bound puzzles it is the
/// host's mem_rate. Clients, bots and fluid populations all take this.
sim::CpuSpec solver_cpu(const Spec& spec, sim::CpuSpec cpu) {
  if (spec.pow == PowKind::kMemoryBound) cpu.hash_rate = cpu.mem_rate;
  return cpu;
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

std::vector<Agent> roster(const Spec& spec) {
  validate(spec);
  const int n_clients = n_discrete_clients(spec);
  int n_bots = 0;
  for (const AttackSpec& g : spec.attacks) n_bots += g.count;
  std::vector<Agent> agents;
  agents.reserve(static_cast<std::size_t>(spec.servers.count + n_clients +
                                          n_bots));
  const auto add = [&agents](Role role, int index, int group, int member,
                             std::uint32_t addr, int router, int track) {
    // Seed id: (role, group, member) — stable however many others exist.
    const std::uint64_t seed_id = (static_cast<std::uint64_t>(role) << 56) |
                                  (static_cast<std::uint64_t>(group) << 32) |
                                  static_cast<std::uint64_t>(member);
    agents.push_back({role, static_cast<std::uint8_t>(router),
                      static_cast<std::uint16_t>(track), index, group, member,
                      addr, seed_id});
  };
  // Fig. 16: the service edge hangs off r1; clients and bots alternate
  // between r2 and r3, in opposite phase. Track 0 is shared infrastructure,
  // servers take 1..count and bots the tracks above.
  for (int i = 0; i < spec.servers.count; ++i) {
    add(Role::kServer, i, 0, i,
        spec.fleet.enabled ? addrs::kServerAddr : addrs::server(i), 1, 1 + i);
  }
  for (int i = 0; i < n_clients; ++i) {
    add(Role::kClient, i, 0, i, addrs::client(i), i % 2 == 0 ? 2 : 3, 0);
  }
  int bot = 0;
  for (std::size_t g = 0; g < spec.attacks.size(); ++g) {
    for (int m = 0; m < spec.attacks[g].count; ++m, ++bot) {
      add(Role::kBot, bot, static_cast<int>(g), m, addrs::bot(bot),
          bot % 2 == 0 ? 3 : 2, 1 + spec.servers.count + bot);
    }
  }
  return agents;
}

void export_trace(const Spec& spec, std::shared_ptr<obs::Recorder> recorder,
                  Result& result) {
  obs::TrackNames& tracks = result.tracks;
  tracks.emplace_back(0, "infra");
  for (const Agent& a : roster(spec)) {
    if (a.role == Role::kServer) {
      tracks.emplace_back(a.track, (spec.fleet.enabled ? "replica" : "server") +
                                       std::to_string(a.index));
    } else if (a.role == Role::kBot) {
      tracks.emplace_back(
          a.track, "bot" + std::to_string(a.index) + ":" +
                       spec.attacks[static_cast<std::size_t>(a.group)].label());
    }
  }
  if (!spec.obs.chrome_trace_path.empty()) {
    obs::write_chrome_trace(*recorder, tracks, spec.obs.chrome_trace_path);
  }
  if (!spec.obs.flows_path.empty()) {
    if (std::FILE* f = std::fopen(spec.obs.flows_path.c_str(), "w")) {
      obs::write_flows(f, obs::reconstruct_flows(*recorder));
      std::fclose(f);
    }
  }
  result.trace = std::move(recorder);
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
  std::vector<Agent> roster;

  net::Simulator sim;
  net::Topology topo{sim};

  std::array<net::Router*, 3> routers{};  ///< r1, r2, r3
  fleet::LoadBalancer* lb = nullptr;
  std::vector<net::Host*> hosts;  ///< per roster index; nullptr = remote
  /// Cross-shard egress (sharded only): portals and their feeder links live
  /// outside the Topology so compute_routes never considers them.
  std::vector<std::unique_ptr<net::PortalNode>> portals;
  std::vector<std::unique_ptr<net::Link>> portal_links;

  std::optional<crypto::SecretKey> secret;
  std::shared_ptr<const puzzle::PuzzleEngine> engine;
  std::optional<fleet::SecretDirectory> directory;
  std::optional<fleet::ReplayCache> replay_cache;

  // Agents by index within their role; nullptr = owned by another shard.
  std::vector<std::unique_ptr<sim::ServerAgent>> servers;
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

  [[nodiscard]] bool owns(std::size_t k) const {
    return !sharded || env->owner[k] == env->shard;
  }
  /// The fleet control plane (balancer, directory, health events) lives
  /// with server 0, roster index 0.
  [[nodiscard]] bool owns_infra() const { return owns(0); }
  [[nodiscard]] net::Router* router(const Agent& a) const {
    return routers[static_cast<std::size_t>(a.router - 1)];
  }
  [[nodiscard]] std::uint64_t seed(const Agent& a) const {
    return Rng::derive_seed(spec.seed, a.seed_id);
  }
  [[nodiscard]] std::size_t count(Role role) const {
    return static_cast<std::size_t>(
        std::ranges::count(roster, role, &Agent::role));
  }
  /// Calls fn(roster index, agent) for every owned agent of `role`, in
  /// roster order.
  template <typename F>
  void for_owned(Role role, F&& fn) {
    for (std::size_t k = 0; k < roster.size(); ++k) {
      if (roster[k].role == role && owns(k)) fn(k, roster[k]);
    }
  }

  Impl(const Spec& s, const ShardEnv* e)
      : spec(s),
        env(e),
        sharded(e != nullptr && e->n_shards > 1),
        wmodel(s.workload.model_spec()),
        roster(scenario::roster(s)) {
    if (sharded) validate_env();
    build();
  }

  void validate_env() const {
    if (!env->send) {
      throw std::invalid_argument("scenario::Engine: ShardEnv::send unset");
    }
    if (env->owner.size() != roster.size()) {
      throw std::invalid_argument(
          "scenario::Engine: ShardEnv::owner must cover the roster");
    }
  }

  void build() {
    // Fig. 16: three fully connected backbone routers; the service edge
    // (server, server group, or balancer + fleet) hangs off r1. Every shard
    // carries the router triangle — local traffic uses its local replica.
    routers = {topo.add_router("r1"), topo.add_router("r2"),
               topo.add_router("r3")};
    const net::LinkSpec backbone{kBackboneBps, spec.net.link_delay, 4u << 20};
    topo.connect(routers[0], routers[1], backbone);
    topo.connect(routers[1], routers[2], backbone);
    topo.connect(routers[0], routers[2], backbone);

    if (spec.fleet.enabled && owns_infra()) {
      fleet::LoadBalancerConfig lcfg;
      lcfg.vip = addrs::kServerAddr;
      lcfg.policy = spec.fleet.balance;
      lcfg.flow_idle_timeout = kLbFlowIdleTimeout;
      lb = static_cast<fleet::LoadBalancer*>(topo.add_node(
          std::make_unique<fleet::LoadBalancer>(sim, "lb", lcfg)));
      topo.advertise(lb, addrs::kServerAddr);
      topo.connect(lb, routers[0],
                   {kLbUplinkBps, spec.net.link_delay, 4u << 20});
    }

    // One host per owned agent. Discrete legitimate clients are all of them
    // under the open-loop model and the sampled cohort under a hybrid model
    // (the fluid remainder never gets hosts — it enters the listeners as
    // aggregate mass).
    const net::LinkSpec server_link{kServerLinkBps, spec.net.link_delay,
                                    4u << 20};
    const net::LinkSpec host_link{kHostLinkBps, spec.net.link_delay, 1u << 20};
    hosts.assign(roster.size(), nullptr);
    for (std::size_t k = 0; k < roster.size(); ++k) {
      if (!owns(k)) continue;
      const Agent& a = roster[k];
      const std::string idx = std::to_string(a.index);
      if (a.role == Role::kServer && spec.fleet.enabled) {
        // Replicas terminate VIP traffic directly (DSR); their hosts carry
        // the VIP address but are not advertised — the balancer owns the
        // route.
        if (lb == nullptr) {
          throw std::invalid_argument(
              "scenario::Engine: a fleet replica must be owned with server 0");
        }
        hosts[k] = topo.add_host("replica" + idx, a.addr, /*advertise=*/false);
        lb->add_backend(topo.connect(lb, hosts[k], server_link).first);
      } else if (a.role == Role::kServer) {
        // Each server is independently addressable at 10.1.0.1+i;
        // fleet-aware strategies spread their attempts across the list.
        hosts[k] = topo.add_host(
            spec.servers.count == 1 ? "server" : "server" + idx, a.addr);
        topo.connect(hosts[k], router(a), server_link);
      } else {
        hosts[k] = topo.add_host(
            (a.role == Role::kClient ? "client" : "bot") + idx, a.addr);
        topo.connect(hosts[k], router(a), host_link);
      }
    }
    topo.compute_routes();
    if (sharded) wire_cross_shard();

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
      dcfg.engine.expiry_ms = kPuzzleExpiryMs;
      directory.emplace(dcfg);
      // Replay entries die with the puzzle expiry (plus clock slack).
      replay_cache.emplace(kPuzzleExpiryMs + 1000);
      engine = directory->current_engine();
    } else {
      secret = crypto::SecretKey::from_seed(spec.seed);
      puzzle::EngineConfig ecfg;
      ecfg.sol_len = spec.servers.sol_len;
      ecfg.expiry_ms = kPuzzleExpiryMs;
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

    servers.resize(count(Role::kServer));
    for_owned(Role::kServer, [&](std::size_t k, const Agent& a) {
      const defense::PolicySpec pspec = spec.server_policy(a.index);
      sim::ServerAgentConfig scfg;
      scfg.listener.local_addr = a.addr;
      scfg.listener.local_port = addrs::kServerPort;
      scfg.listener.listen_backlog = listen_backlog;
      scfg.listener.accept_backlog = accept_backlog;
      scfg.listener.difficulty = spec.servers.difficulty;
      scfg.listener.policy = pspec.factory();
      scfg.listener.trace_track = a.track;
      scfg.service_rate = service_rate;
      scfg.n_workers = workers;
      scfg.response_bytes = wmodel.response_bytes;
      scfg.app_idle_timeout = spec.servers.app_idle_timeout;
      scfg.cpu = spec.servers.cpu;
      scfg.tick_interval = spec.tick_interval;
      scfg.sample_interval = spec.sample_interval;
      scfg.is_attacker = addrs::is_bot;
      const bool puzzles = pspec.wants_engine();
      auto& server = servers[static_cast<std::size_t>(a.index)];
      server = std::make_unique<sim::ServerAgent>(
          sim, *hosts[k], scfg,
          spec.fleet.enabled ? directory->current_secret() : *secret, seed(a),
          puzzles ? engine : nullptr);
      if (spec.fleet.enabled && puzzles) {
        directory->subscribe(&server->listener());
        fleet::ReplayCache* rc = &*replay_cache;
        server->listener().set_replay_filter(
            [rc](const tcp::FlowKey& flow, std::uint32_t ts,
                 std::uint32_t now_ms) {
              return rc->check_and_insert(flow, ts, now_ms);
            });
      }
      server->start(spec.duration);
    });
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
    clients.resize(count(Role::kClient));
    for_owned(Role::kClient, [&](std::size_t k, const Agent& a) {
      sim::ClientAgentConfig ccfg;
      ccfg.model = wmodel;
      ccfg.server_addr = addrs::kServerAddr;
      ccfg.server_port = addrs::kServerPort;
      ccfg.solve_puzzles = spec.workload.solve_puzzles;
      ccfg.engine = engine;
      ccfg.cpu = solver_cpu(spec, spec.workload.cpu);
      ccfg.response_timeout = spec.workload.response_timeout;
      auto& client = clients[static_cast<std::size_t>(a.index)];
      client = std::make_unique<sim::ClientAgent>(
          sim, *hosts[k], ccfg, seed(a), client_ticks, client_samples);
      client->start(spec.duration);
    });

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
          static_cast<double>(clients.size()) / static_cast<double>(n_targets);
      const double service_share = spec.servers.service_rate /
                                   static_cast<double>(div);
      for (int i = 0; i < n_targets; ++i) {
        if (servers[static_cast<std::size_t>(i)] == nullptr) continue;
        workload::FluidConfig fc;
        fc.users = per_users;
        fc.model = wmodel;
        fc.solve_puzzles = spec.workload.solve_puzzles;
        fc.cpu = solver_cpu(spec, spec.workload.cpu);
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
    bots.resize(count(Role::kBot));
    for_owned(Role::kBot, [&](std::size_t k, const Agent& a) {
      const AttackSpec& g = spec.attacks[static_cast<std::size_t>(a.group)];
      offense::StrategySpec sspec = g.strategy;
      sspec.slot_rate = g.rate;  // lets game-adaptive convert rates to odds
      sim::AttackerAgentConfig acfg;
      acfg.targets = targets;
      acfg.strategy = sspec;
      acfg.rate = g.rate;
      acfg.attack_start = g.start.value_or(spec.attack_start);
      acfg.attack_end = g.end.value_or(spec.attack_end);
      acfg.engine = engine;
      acfg.cpu = solver_cpu(spec, g.cpu);
      acfg.max_inflight = g.max_inflight;
      acfg.tick_interval = spec.tick_interval;
      acfg.sample_interval = spec.sample_interval;
      acfg.trace_track = a.track;
      auto& bot = bots[static_cast<std::size_t>(a.index)];
      bot = std::make_unique<sim::AttackerAgent>(sim, *hosts[k], acfg, seed(a));
      bot->start(spec.duration);
    });
  }

  /// Cross-shard wiring. Injections for owned agents enter at their access
  /// router, so the access link (the dominant queueing direction under
  /// flood) keeps exact contention. Routes for remote addresses point at
  /// per-egress portals: captured one propagation hop early, serialized at
  /// the real egress link's bandwidth (the portal link), stamped
  /// `now + extra` for the remaining hops.
  void wire_cross_shard() {
    std::vector<std::uint32_t> remote;
    for (std::size_t k = 0; k < roster.size(); ++k) {
      if (owns(k)) {
        inject_points[roster[k].addr] = router(roster[k]);
      } else {
        remote.push_back(roster[k].addr);
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
    for (net::Router* r : routers) {
      egress.push_back({r, attach(r, kBackboneBps, L)});
    }
    // DSR replies leave the balancer two propagation hops from any remote
    // edge (uplink + backbone), serialized at the uplink's bandwidth.
    if (lb != nullptr) {
      egress.push_back({lb, attach(lb, kLbUplinkBps, L + L)});
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

    // Full-size (global shape) vectors; slots of remote agents stay
    // default-constructed for the par driver to merge.
    Result result;
    result.servers.resize(servers.size());
    result.clients.resize(clients.size());
    for (const AttackSpec& g : spec.attacks) {
      AttackGroupReport group;
      group.name = g.label();
      group.bots.resize(static_cast<std::size_t>(g.count));
      result.groups.push_back(std::move(group));
    }
    for (std::size_t k = 0; k < roster.size(); ++k) {
      if (!owns(k)) continue;
      const Agent& a = roster[k];
      const auto i = static_cast<std::size_t>(a.index);
      if (a.role == Role::kServer) {
        sim::ServerAgent& agent = *servers[i];
        sim::ServerReport& report = result.servers[i];
        report = std::move(agent.report());
        report.counters = agent.listener().counters();
        report.policy = agent.listener().policy_name();
        report.final_difficulty_m = agent.listener().config().difficulty.m;
        result.cluster += report.counters;
        if (lb != nullptr) result.lb.backends.push_back(lb->stats(a.index));
      } else if (a.role == Role::kClient) {
        result.clients[i] = std::move(clients[i]->report());
      } else {
        result.groups[static_cast<std::size_t>(a.group)]
            .bots[static_cast<std::size_t>(a.member)] =
            std::move(bots[i]->report());
      }
    }
    if (lb != nullptr) {
      result.lb.no_backend_drops = lb->no_backend_drops();
      result.lb.failover_evictions = lb->failover_evictions();
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

  if (recorder) export_trace(spec, std::move(recorder), result);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return result;
}

}  // namespace tcpz::scenario
