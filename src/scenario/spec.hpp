// The unified declarative scenario engine.
//
// A scenario::Spec is a complete, value-type description of one experiment:
// topology (one server, an addressable multi-server group, or a
// load-balanced fleet sharing a rotating secret), the legitimate workload,
// any number of attack groups (each with its own offense::StrategySpec,
// emission rate, CpuSpec and attack window — heterogeneous botnets are just
// a vector), per-server defense::PolicySpecs, and a timeline of replica
// health events. scenario::run() executes it on the Fig. 16 network and
// returns every metric the paper's figures need.
//
// Every agent's RNG seed derives via Rng::derive_seed from (spec seed,
// agent id), where the id packs (role, group position, index), so growing
// a group or appending a new one never perturbs any existing agent's
// stream — and the sharded driver (src/par/) can build any subset of the
// agents on any shard. (Group ids are positional: removing or reordering
// *earlier* groups renumbers the later ones — and shifts their bots'
// 10.3.0.x addresses — so only append-style edits are trace-neutral.)
// Fixed-seed traces are pinned by tests/scenario_trace_test.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "defense/spec.hpp"
#include "fleet/load_balancer.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "offense/spec.hpp"
#include "puzzle/types.hpp"
#include "sim/cpu.hpp"
#include "sim/metrics.hpp"
#include "tcp/counters.hpp"
#include "util/time.hpp"
#include "workload/profiles.hpp"
#include "workload/spec.hpp"

namespace tcpz::scenario {

/// Which resource the puzzle burns: CPU hashing (the paper's scheme) or
/// random memory accesses (§7's Abadi-style alternative — memory latency is
/// far more uniform across device classes than compute throughput).
enum class PowKind : std::uint8_t { kCpuBound, kMemoryBound };

/// The Fig. 16 network: three fully connected backbone routers, the
/// server(s) behind r1, clients and bots split across r2/r3. Link rates are
/// fixed (scenario/engine.cpp); the per-hop delay is also the sharded
/// runtime's lookahead.
struct NetworkSpec {
  SimTime link_delay = SimTime::microseconds(500);
};

/// Legitimate workload (§6 defaults; response size chosen to reproduce the
/// ~16 Mbps/client nominal throughput of Figs. 7-8). The flat per-user
/// demand knobs (request_rate, request_bytes, response_bytes,
/// max_pending_solves) apply only while `model` is unset.
struct WorkloadSpec {
  int n_clients = 15;
  double request_rate = workload::profiles::kRequestRate;
  std::uint32_t request_bytes = workload::profiles::kRequestBytes;
  std::uint32_t response_bytes = workload::profiles::kResponseBytes;
  bool solve_puzzles = true;
  sim::CpuSpec cpu;  ///< the Fig. 3a desktop client
  int max_pending_solves = workload::profiles::kMaxPendingSolves;
  SimTime response_timeout = SimTime::seconds(10);
  /// The workload model. Unset = the flat knobs above shimmed through
  /// workload::ModelSpec::from_legacy (open-loop Poisson, byte-identical
  /// traces). Once set, clients, fluid mass and the server's response size
  /// all read the model and the flat demand knobs are ignored. Set to
  /// ModelSpec::hybrid(users, cohort_ratio) for the fluid + sampled-cohort
  /// population: `n_clients` is then ignored too — the engine instantiates
  /// model->cohort_size() discrete agents and aggregates
  /// model->fluid_users() as fluid mass per server.
  std::optional<workload::ModelSpec> model;

  /// The effective model spec (resolves the legacy shim).
  [[nodiscard]] workload::ModelSpec model_spec() const {
    if (model) return *model;
    return workload::ModelSpec::from_legacy(request_rate, request_bytes,
                                            response_bytes,
                                            max_pending_solves);
  }
};

/// One homogeneous group of bots. A mixed heterogeneous botnet — IoT-class
/// solvers next to Xeon-class spray bots, say — is a vector of these.
struct AttackSpec {
  /// Label for per-group reporting; defaults to the strategy kind's name.
  std::string name;
  int count = 10;
  double rate = 500.0;  ///< per-bot emission slots per second
  offense::StrategySpec strategy = offense::StrategySpec::conn_flood();
  sim::CpuSpec cpu{workload::profiles::kClientHashRate, 2, 1};
  int max_inflight = 250;
  /// Per-group attack window; defaults to the spec-level window (staggered
  /// or rolling multi-wave attacks set these explicitly).
  std::optional<SimTime> start;
  std::optional<SimTime> end;

  [[nodiscard]] std::string label() const;
};

/// The protected service: one server, `count` independently addressable
/// servers (10.1.0.1+i — the multi-target strategies spread across them),
/// or a fleet behind an L4 balancer when FleetSpec::enabled.
struct ServerSpec {
  int count = 1;
  /// Defense per server: empty = opportunistic puzzles everywhere; one
  /// entry = that policy everywhere; otherwise exactly one per server.
  std::vector<defense::PolicySpec> policies;
  puzzle::Difficulty difficulty{2, 17};  ///< the Nash difficulty of §4.4
  /// Linux-style asymmetry: a large SYN backlog (tcp_max_syn_backlog) and a
  /// smaller accept backlog (somaxconn/ListenBacklog). The attacker leakage
  /// per opportunistic opening is one accept backlog, so this ratio sets the
  /// Fig. 11 rate-limit factor.
  std::size_t listen_backlog = 4096;
  std::size_t accept_backlog = 1024;
  /// µ from the Fig. 3b stress test.
  double service_rate = workload::profiles::kServiceRateMu;
  int n_workers = 1024;
  sim::CpuSpec cpu = sim::server_cpu();
  SimTime app_idle_timeout = SimTime::seconds(5);
  std::uint8_t sol_len = 4;
};

/// Load-balanced fleet topology: replicas share (and rotate) the puzzle
/// secret through a SecretDirectory behind a DSR-style L4 balancer, and
/// puzzle replicas share one solution replay cache.
struct FleetSpec {
  bool enabled = false;
  fleet::BalancePolicy balance = fleet::BalancePolicy::kFiveTupleHash;
  /// Secret rotation cadence; zero keeps the paper's static secret.
  SimTime rotation_interval = SimTime::zero();
  SimTime rotation_overlap = SimTime::seconds(8);
  /// Split the server capacity across replicas (apples-to-apples sharding)
  /// or give every replica the full ServerSpec capacity (scale-out).
  bool divide_capacity = true;
};

/// Flight-recorder configuration (src/obs/). Off by default — with no
/// recorder installed every TCPZ_TRACE site is one predictable branch, so
/// untraced runs keep the PR 4 zero-allocation and golden-trace guarantees
/// byte-for-byte. Traced runs stay deterministic: events carry sim time and
/// seed-derived payloads only, so the trace digest is pinned per seed.
struct ObsSpec {
  bool trace = false;  ///< install a Recorder for the run
  /// Ring capacity in events (rounded up to a power of two); the last N
  /// decisions survive no matter how long the run is.
  std::size_t ring_capacity = 1u << 16;
  /// Category mask (obs::cat_bit). kEvent and kLink are the high-volume
  /// tiers — mask them off to keep decision-level events from wrapping away.
  std::uint32_t categories = obs::kAllCategories;
  /// Chrome trace_event JSON export (Perfetto-loadable); empty = none.
  std::string chrome_trace_path;
  /// Per-flow lifecycle dump (SYN -> ... -> outcome chains); empty = none.
  std::string flows_path;
};

/// A server health transition at a point in simulated time (fleet only; a
/// down replica is partitioned at the balancer, not rebooted).
struct TimelineEvent {
  SimTime at;
  int server = 0;
  bool up = false;
};

struct Spec {
  std::uint64_t seed = 42;

  // Timeline.
  SimTime duration = SimTime::seconds(600);
  SimTime attack_start = SimTime::seconds(120);
  SimTime attack_end = SimTime::seconds(480);

  NetworkSpec net;
  WorkloadSpec workload;
  ServerSpec servers;
  FleetSpec fleet;
  std::vector<AttackSpec> attacks;
  std::vector<TimelineEvent> events;

  PowKind pow = PowKind::kCpuBound;
  /// The agents' and fluid drivers' tick and gauge sample periods.
  static constexpr SimTime tick_interval = SimTime::milliseconds(100);
  static constexpr SimTime sample_interval = SimTime::milliseconds(250);
  ObsSpec obs;

  /// Same rates and shapes on a short timeline: 120 s run, attack 30-80 s.
  /// The attack window is kept shorter than the default protection hold so
  /// it measures the protected steady state, as the bulk of the paper's
  /// 6-minute window does; benches' --full restores paper scale (including
  /// the periodic opportunistic openings).
  [[nodiscard]] Spec scaled() const;

  /// The defense spec server i runs (resolves the policies vector rules).
  [[nodiscard]] defense::PolicySpec server_policy(int i) const;

  [[nodiscard]] std::size_t attack_start_bin() const {
    return static_cast<std::size_t>(attack_start.nanos() / 1'000'000'000);
  }
  [[nodiscard]] std::size_t attack_end_bin() const {
    return static_cast<std::size_t>(attack_end.nanos() / 1'000'000'000);
  }
  [[nodiscard]] std::size_t duration_bins() const {
    return static_cast<std::size_t>(duration.nanos() / 1'000'000'000);
  }
};

/// Balancer-side statistics (zeroed for non-fleet topologies).
struct LbReport {
  std::vector<fleet::BackendStats> backends;
  std::uint64_t no_backend_drops = 0;
  /// Tracked flows evicted by backend failures.
  std::uint64_t failover_evictions = 0;
};

/// One attack group's per-bot reports, in spec order, and the group's
/// ledger: its bots' series, summed bin by bin.
struct AttackGroupReport {
  std::string name;
  std::vector<sim::HostReport> bots;
  sim::RoleSeries series;

  /// Attack rate actually emitted by this group (Figs. 13a/14a).
  [[nodiscard]] double measured_rate(std::size_t from, std::size_t to) const;
  [[nodiscard]] std::uint64_t total_established() const;
  [[nodiscard]] std::uint64_t total_attempts() const;
};

struct Result {
  std::vector<sim::ServerReport> servers;
  std::vector<sim::HostReport> clients;
  /// Aggregate fluid-population reports (hybrid workloads only): one per
  /// server carrying fluid mass, with totals scaled in whole users.
  /// mean_client_cpu stays cohort-only (a population gauge is an N-user
  /// average, not comparable to a single host's).
  std::vector<sim::HostReport> fluid;
  /// The legitimate population's ledger: every discrete client's and fluid
  /// population's series, summed bin by bin. The client_* window
  /// aggregates below read it.
  sim::RoleSeries legit;
  /// Users modeled as fluid mass (0 for pure-discrete workloads).
  std::uint64_t fluid_users = 0;
  std::vector<AttackGroupReport> groups;
  LbReport lb;
  tcp::ListenerCounters cluster;  ///< summed over servers
  std::uint64_t secret_rotations = 0;
  std::uint64_t replay_cache_hits = 0;
  std::uint64_t events_processed = 0;
  double wall_seconds = 0;
  /// The flight recorder, when ObsSpec::trace was set (shared_ptr keeps
  /// Result copyable); `tracks` names the export tracks (0 = infra, then
  /// one per server, then one per bot).
  std::shared_ptr<obs::Recorder> trace;
  obs::TrackNames tracks;

  /// The single protected server of the classic §6 scenarios.
  [[nodiscard]] const sim::ServerReport& server() const { return servers[0]; }

  // Aggregates over all clients.
  [[nodiscard]] double client_rx_mbps(std::size_t from, std::size_t to) const;
  [[nodiscard]] double client_success_ratio() const;
  /// Percentage of client wire attempts in bins [from, to) that completed a
  /// request, excluding attempts the local solver refused before any packet
  /// was sent — the paper's "% of connections established" (Figs. 13b, 15).
  [[nodiscard]] double client_wire_success_pct(std::size_t from,
                                               std::size_t to) const;
  /// Same without the refusal exclusion (raw completions / attempts).
  [[nodiscard]] double client_success_pct(std::size_t from,
                                          std::size_t to) const;
  [[nodiscard]] double mean_client_cpu(SimTime from, SimTime to) const;

  // Aggregates over all bots.
  [[nodiscard]] double mean_bot_cpu(SimTime from, SimTime to) const;
  /// Attacker SYN/attempt rate actually emitted, summed over every group.
  [[nodiscard]] double bot_measured_rate(std::size_t from,
                                         std::size_t to) const;

  /// Flood leakage: attacker connections established per second over bins
  /// [from, to), cluster-wide (per server: servers[i].attacker_cps).
  [[nodiscard]] double attacker_cps(std::size_t from, std::size_t to) const;
};

[[nodiscard]] Result run(const Spec& spec);

}  // namespace tcpz::scenario
