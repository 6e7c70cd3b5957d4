// Fleet scenario bench: the §6 connection-flood workload against a
// load-balanced fleet of puzzle-protected replicas sharing one rotating
// secret, driven through the declarative scenario engine (src/scenario).
//
// Three scenarios:
//  A. fully protected fleet (4 replicas, 5-tuple hash): clients keep being
//     served through the flood because any replica verifies any challenge —
//     the paper's statelessness property at cluster scale;
//  B. partial adoption (one legacy replica, hash balancing): the flood pours
//     through the unprotected replica while the protected ones hold, the
//     fleet-level version of the Fig. 15 study;
//  C. mid-attack replica failure + secret rotation (round-robin): flows are
//     re-dispatched onto surviving replicas and solutions minted before the
//     rotation are honored during the overlap window.
#include "bench_common.hpp"

using namespace tcpz;

namespace {

scenario::Spec fleet_base(const benchutil::Args& args) {
  scenario::Spec s = benchutil::paper_spec(args);
  scenario::AttackSpec atk;
  // Raw nping flood, as in the Fig. 8 scenario (legacy stack, plain ACKs).
  atk.strategy = offense::StrategySpec::conn_flood(/*patched=*/false);
  s.attacks = {atk};
  s.servers.count = 4;
  s.servers.policies = {defense::PolicySpec::puzzles()};
  s.fleet.enabled = true;
  // Scale-out: each replica is a full §6 server; the fleet quadruples
  // capacity instead of sharding one server.
  s.fleet.divide_capacity = false;
  return s;
}

void print_replicas(const char* tag, const scenario::Result& r,
                    std::size_t lo, std::size_t hi) {
  std::printf("\n%s — per-replica picture (attack window %zu-%zu s):\n", tag,
              lo, hi);
  std::printf("%-9s %10s %12s %12s %12s %12s\n", "replica", "estab",
              "est-puzzle", "challenges", "atk-cps", "lb-pkts");
  for (std::size_t i = 0; i < r.servers.size(); ++i) {
    const auto& c = r.servers[i].counters;
    std::printf("%-9zu %10llu %12llu %12llu %12.2f %12llu\n", i,
                static_cast<unsigned long long>(c.established_total),
                static_cast<unsigned long long>(c.established_puzzle),
                static_cast<unsigned long long>(c.challenges_sent),
                r.servers[i].attacker_cps(lo, hi),
                static_cast<unsigned long long>(
                    r.lb.backends[i].dispatched_packets));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = benchutil::parse(argc, argv);

  benchutil::header(
      "Fleet: load-balanced connection flood (src/fleet)",
      "a fleet sharing the puzzle secret serves solving clients through the "
      "flood from any replica; one legacy replica is the hole the flood "
      "pours through; failover and secret rotation are client-transparent");

  const scenario::Spec base = fleet_base(args);
  const std::size_t lo = benchutil::atk_lo(base);
  const std::size_t hi = benchutil::atk_hi(base);

  // -- A: fully protected fleet ---------------------------------------------
  scenario::Spec cfg_a = base;
  cfg_a.fleet.balance = fleet::BalancePolicy::kFiveTupleHash;
  const scenario::Result a = benchutil::run_scenario(cfg_a, args, "A");
  print_replicas("A: all replicas protected", a, lo, hi);
  benchutil::label("protected_fleet_policy", a.servers[0].policy);
  benchutil::label("attack_strategy", a.groups[0].name);

  const double a_success = benchutil::metric(
      "protected_fleet_client_success_pct", a.client_wire_success_pct(lo, hi));
  const double a_leak =
      benchutil::metric("protected_fleet_attacker_cps", a.attacker_cps(lo, hi));
  benchutil::metric("protected_fleet_events",
                    static_cast<double>(a.events_processed));
  benchutil::metric("protected_fleet_wall_seconds", a.wall_seconds);

  // -- B: partial adoption --------------------------------------------------
  scenario::Spec cfg_b = base;
  cfg_b.fleet.balance = fleet::BalancePolicy::kFiveTupleHash;
  cfg_b.servers.policies = {
      defense::PolicySpec::none(), defense::PolicySpec::puzzles(),
      defense::PolicySpec::puzzles(), defense::PolicySpec::puzzles()};
  const scenario::Result b = benchutil::run_scenario(cfg_b, args, "B");
  print_replicas("B: replica 0 unprotected", b, lo, hi);
  for (std::size_t i = 0; i < b.servers.size(); ++i) {
    benchutil::label(("partial_replica" + std::to_string(i) + "_policy").c_str(),
                     b.servers[i].policy);
  }

  // The legacy replica admits the flood until its listen queue has silted up
  // with dead parked entries (the Fig. 10/11 dynamics), so the leakage
  // concentrates in the first half of the attack; the steady window of the
  // shape checks (atk_lo..atk_hi) covers it. The protected replicas have
  // latched by then and their leakage over the same window is ~0.
  const double b_leak_unprotected = benchutil::metric(
      "partial_unprotected_replica_atk_cps", b.servers[0].attacker_cps(lo, hi));
  double b_leak_protected_max = 0;
  for (std::size_t i = 1; i < 4; ++i) {
    b_leak_protected_max =
        std::max(b_leak_protected_max, b.servers[i].attacker_cps(lo, hi));
  }
  benchutil::metric("partial_protected_replica_atk_cps_max",
                    b_leak_protected_max);
  const double b_success = benchutil::metric(
      "partial_fleet_client_success_pct", b.client_wire_success_pct(lo, hi));

  // -- C: failover + secret rotation mid-attack -----------------------------
  scenario::Spec cfg_c = base;
  cfg_c.fleet.balance = fleet::BalancePolicy::kRoundRobin;
  cfg_c.fleet.rotation_interval = SimTime::seconds(25);
  cfg_c.fleet.rotation_overlap = SimTime::seconds(8);
  const SimTime mid = SimTime::nanoseconds(
      (cfg_c.attack_start.nanos() + cfg_c.attack_end.nanos()) / 2);
  cfg_c.events = {{mid, 1, false},
                  {mid + SimTime::seconds(15), 1, true}};
  const scenario::Result c = benchutil::run_scenario(cfg_c, args, "C");
  print_replicas("C: failover + rotation", c, lo, hi);

  const double c_success = benchutil::metric(
      "failover_fleet_client_success_pct", c.client_wire_success_pct(lo, hi));
  benchutil::metric("failover_evicted_flows",
                    static_cast<double>(c.lb.failover_evictions));
  benchutil::metric("secret_rotations",
                    static_cast<double>(c.secret_rotations));
  benchutil::metric("solutions_valid_prev_epoch",
                    static_cast<double>(c.cluster.solutions_valid_prev_epoch));
  benchutil::metric("replay_cache_hits",
                    static_cast<double>(c.replay_cache_hits));

  // -- shape checks ---------------------------------------------------------
  benchutil::check("A: >= 95% of client wire attempts served through the "
                   "flood with puzzles on all replicas",
                   a_success >= 95.0);
  benchutil::check("A: every replica established puzzle connections "
                   "(cross-replica stateless verification)",
                   [&] {
                     for (const auto& rep : a.servers) {
                       if (rep.counters.established_puzzle == 0) return false;
                     }
                     return true;
                   }());
  benchutil::check("A: non-solving flood barely leaks (< 2 atk conn/s "
                   "cluster-wide)",
                   a_leak < 2.0);
  benchutil::check("B: measurable flood leakage through the unprotected "
                   "replica (> 1 atk conn/s over the attack window)",
                   b_leak_unprotected > 1.0);
  benchutil::check("B: unprotected replica leaks > 3x any protected one",
                   b_leak_unprotected > 3.0 * std::max(b_leak_protected_max,
                                                       0.333));
  benchutil::check("B: partial adoption costs client success vs the "
                   "protected fleet",
                   b_success <= a_success);
  benchutil::check("C: failover disrupts tracked flows (> 0 evictions; "
                   "live clients re-dispatch on retransmission)",
                   c.lb.failover_evictions > 0);
  benchutil::check("C: the secret rotated mid-run and overlap-window "
                   "solutions were honored",
                   c.secret_rotations >= 2 &&
                       c.cluster.solutions_valid_prev_epoch > 0);
  benchutil::check("C: clients ride through failover + rotation "
                   "(>= 80% wire success)",
                   c_success >= 80.0);

  return benchutil::finish();
}
