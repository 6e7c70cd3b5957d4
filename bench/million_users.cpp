// Million-user populations through the hybrid fluid/discrete workload.
//
// The discrete engine's cost grows with the number of client agents, which
// caps honest-population studies at a few dozen users. The hybrid workload
// (workload::ModelSpec::hybrid) aggregates the population into per-server
// fluid mass — per-tick cost independent of N — while a sampled cohort keeps
// exact per-connection statistics, so the same scenario shapes run at
// *service-provider* scale: a million mostly-idle subscribers (a couple of
// requests per user per hour, ~500 aggregate req/s against the Fig. 3b
// server) riding through the paper's §6 floods.
//
// Scenarios (fidelity at overlapping scale is gated separately by
// tests/workload_test.cpp's 15-user tolerance fixture):
//   benign      1M users, no attack — the throughput baseline.
//   puzzles     the same population + a conn-flood botnet, Nash puzzles:
//               goodput rides through (a million patched kernels dwarf the
//               solve price).
//   nodefense   same flood, no defense: goodput collapses.
//   fleet       the population split across a 3-replica balanced fleet.
//
// Reported per scenario: wall seconds, events processed, events per modeled
// user — the scaling headline — plus goodput and completion aggregates.
// --smoke shortens the timeline for CI; --full runs the paper's 600 s.
#include <cstring>

#include "bench_common.hpp"
#include "workload/spec.hpp"

using namespace tcpz;

namespace {

constexpr std::uint64_t kUsers = 1'000'000;
/// Mostly-idle subscribers: ~1.8 requests/user/hour -> 500 req/s aggregate,
/// just under the server's mu = 1100 with the attack's leakage on top.
constexpr double kPerUserRate = 5e-4;
/// One discrete agent per 100k users: 10 exact-statistics probes.
constexpr double kCohortRatio = 1e-5;

struct RunStats {
  double goodput_pre = 0;  ///< Mbps over the pre-attack window
  double goodput_atk = 0;  ///< Mbps over the attack window
  double wall = 0;
  double events = 0;
  std::uint64_t users = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const benchutil::Args args = benchutil::parse(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  benchutil::header(
      "million users: hybrid fluid population at provider scale",
      "1M modeled users cost ~zero events/user; puzzles hold their goodput "
      "through a conn flood while no-defense collapses (Figs. 7-8 shape)");

  scenario::Spec base;
  base.seed = args.seed;
  if (smoke) {
    base.duration = SimTime::seconds(30);
    base.attack_start = SimTime::seconds(10);
    base.attack_end = SimTime::seconds(25);
  } else if (args.full) {
    base.duration = SimTime::seconds(600);
    base.attack_start = SimTime::seconds(120);
    base.attack_end = SimTime::seconds(480);
  } else {
    base.duration = SimTime::seconds(120);
    base.attack_start = SimTime::seconds(30);
    base.attack_end = SimTime::seconds(80);
  }
  base.workload.model = workload::ModelSpec::hybrid(kUsers, kCohortRatio);
  base.workload.model->request_rate = kPerUserRate;

  struct Case {
    const char* name;
    bool attacked;
    bool fleet;
    defense::PolicySpec policy;
  };
  const Case cases[] = {
      {"benign", false, false, defense::PolicySpec::puzzles()},
      {"puzzles", true, false, defense::PolicySpec::puzzles()},
      {"nodefense", true, false, defense::PolicySpec::none()},
      {"fleet", true, true, defense::PolicySpec::puzzles()},
  };

  std::printf("%-10s %12s %14s %14s %12s %14s\n", "case", "users",
              "goodput pre", "goodput atk", "wall s", "events/user");
  RunStats st[4];
  for (int i = 0; i < 4; ++i) {
    scenario::Spec spec = base;
    spec.servers.policies = {cases[i].policy};
    if (cases[i].fleet) {
      spec.servers.count = 3;
      spec.servers.policies = {cases[i].policy, cases[i].policy,
                               cases[i].policy};
      spec.fleet.enabled = true;
      // Scale-out fleet: each replica keeps the full ServerSpec capacity.
      spec.fleet.divide_capacity = false;
    }
    if (cases[i].attacked) {
      scenario::AttackSpec atk;
      atk.strategy = offense::StrategySpec::conn_flood();
      spec.attacks = {atk};
    } else {
      spec.attack_start = spec.attack_end = spec.duration;
    }
    const scenario::Result r = benchutil::run_scenario(spec, args,
                                                       cases[i].name);

    const std::uint64_t modeled =
        r.fluid_users + static_cast<std::uint64_t>(r.clients.size());
    // Windows well inside each phase (benign reuses the base windows so its
    // numbers align column-wise with the attacked cases).
    const std::size_t pre_lo = 2, pre_hi = base.attack_start_bin() - 2;
    const std::size_t atk_lo = base.attack_start_bin() + 3;
    const std::size_t atk_hi = base.attack_end_bin() - 1;
    st[i].goodput_pre = r.client_rx_mbps(pre_lo, pre_hi);
    st[i].goodput_atk = r.client_rx_mbps(atk_lo, atk_hi);
    st[i].wall = r.wall_seconds;
    st[i].events = static_cast<double>(r.events_processed);
    st[i].users = modeled;
    std::printf("%-10s %12llu %14.1f %14.1f %12.2f %14.4f\n", cases[i].name,
                static_cast<unsigned long long>(modeled), st[i].goodput_pre,
                st[i].goodput_atk, st[i].wall, st[i].events / modeled);

    const std::string p(cases[i].name);
    benchutil::metric((p + ".modeled_users").c_str(),
                      static_cast<double>(modeled));
    benchutil::metric((p + ".goodput_pre_mbps").c_str(), st[i].goodput_pre);
    benchutil::metric((p + ".goodput_attack_mbps").c_str(), st[i].goodput_atk);
    benchutil::metric((p + ".wall_seconds").c_str(), st[i].wall);
    benchutil::metric((p + ".events_per_user").c_str(),
                      st[i].events / static_cast<double>(modeled));
    benchutil::label((p + ".policy").c_str(), r.servers[0].policy);
  }

  benchutil::check("every scenario modeled >= 1,000,000 users", [&] {
    for (const RunStats& s : st) {
      if (s.users < 1'000'000) return false;
    }
    return true;
  }());
  // The scaling headline: the fluid aggregate decouples cost from N. Event
  // counts grow with the timeline (ticks, bots), never with the population —
  // a pure-discrete million would cost >= lambda * N ~ 500 events/s from
  // client arrivals alone; the hybrid stays orders of magnitude under that.
  benchutil::check("events per user per simulated second < 0.05 everywhere",
                   [&] {
                     const double sim_s = base.duration.to_seconds();
                     for (const RunStats& s : st) {
                       if (s.events / static_cast<double>(s.users) / sim_s >=
                           0.05) {
                         return false;
                       }
                     }
                     return true;
                   }());
  benchutil::check(
      "puzzles sustain >= 70% of benign goodput through the flood",
      st[1].goodput_atk >= 0.7 * st[0].goodput_atk);
  benchutil::check("no defense collapses under the same flood",
                   st[2].goodput_atk < 0.5 * st[0].goodput_atk);
  benchutil::check("fleet spreads the population across 3 replicas and holds",
                   st[3].goodput_atk >= 0.7 * st[0].goodput_atk);
  // Wall-time budget: generous here (debug/sanitizer builds); the Release CI
  // job enforces the real floor from the JSON report.
  benchutil::check("1M-user scenarios complete in bounded wall time",
                   st[0].wall + st[1].wall + st[2].wall + st[3].wall < 300.0);

  return benchutil::finish();
}
