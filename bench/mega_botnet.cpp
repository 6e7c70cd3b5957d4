// Mega-botnet scale scenario (Fig. 14 pushed an order of magnitude up):
// 120 solving bots flooding one puzzle-protected server, millions of
// simulated events through the timer-wheel core in one process. This is the
// scale gate for the ROADMAP's fleet-size sweeps: the seed priority queue
// paid two heap allocations per event and made runs of this size painful;
// the wheel core holds the whole flood with zero hot-path allocation.
//
// Checks are qualitative (the paper's Fig. 13/14 shape): the defense keeps
// legitimate clients connected through a 120-bot flood, and the per-bot
// completion rate stays pinned by solver throughput, not by flood rate.
#include <cstring>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace tcpz;
  const benchutil::Args args = benchutil::parse(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  benchutil::header(
      "mega-botnet: 120 solving bots vs one protected server",
      "puzzles hold client success at scale; attacker rate is pinned by "
      "solver throughput (Figs. 13-14 at 12x the paper's botnet)");

  scenario::Spec spec = benchutil::paper_spec(args);
  spec.servers.policies = {defense::PolicySpec::puzzles()};
  scenario::AttackSpec atk;
  atk.count = smoke ? 40 : 120;
  atk.strategy = offense::StrategySpec::conn_flood(/*patched=*/true);
  spec.attacks = {atk};
  // Production-scale server (the ROADMAP's target class, 8x the paper's
  // testbed): at the Nash difficulty a 120-bot patched botnet still gets its
  // combined ~200 solved connections/s admitted — that is the theory's
  // guarantee, admission pinned to solver throughput — so the worker pool
  // must out-drain it (8192 workers / 5 s idle reap >> 200/s) for
  // legitimate clients to ride through.
  spec.servers.n_workers = 8192;
  spec.servers.service_rate = 8800.0;
  spec.servers.listen_backlog = 16'384;
  spec.servers.accept_backlog = 4096;
  if (smoke) {
    spec.duration = SimTime::seconds(40);
    spec.attack_start = SimTime::seconds(10);
    spec.attack_end = SimTime::seconds(35);
  }

  const scenario::Result r = benchutil::run_scenario(spec, args);

  const double events = static_cast<double>(r.events_processed);
  const double events_per_sec = events / r.wall_seconds;
  const std::size_t atk_lo = benchutil::atk_lo(spec);
  const std::size_t atk_hi = benchutil::atk_hi(spec);
  const std::size_t pre_lo = benchutil::pre_lo(spec);
  const std::size_t pre_hi = benchutil::pre_hi(spec);

  // Client success inside the protected steady state of the attack
  // (solver-refused attempts never reach the wire and are excluded).
  const double success_pct = r.client_wire_success_pct(atk_lo, atk_hi);
  // Aggregate attacker establishment rate during the same window.
  const double attacker_cps = r.servers[0].attacker_cps(atk_lo, atk_hi);
  const double bot_attempt_rate = r.bot_measured_rate(atk_lo, atk_hi);
  const double pre_success = r.client_success_pct(pre_lo, pre_hi);

  std::printf("bots=%d duration=%s wall=%.1fs\n", atk.count,
              spec.duration.to_string().c_str(), r.wall_seconds);
  benchutil::metric("bots", atk.count);
  benchutil::metric("events_processed", events);
  benchutil::metric("events_per_sec_wall", events_per_sec);
  benchutil::metric("client_success_attack_pct", success_pct);
  benchutil::metric("client_success_pre_pct", pre_success);
  benchutil::metric("attacker_established_per_sec", attacker_cps);
  benchutil::metric("bot_measured_attempt_rate", bot_attempt_rate);
  benchutil::metric("challenges_sent",
                    static_cast<double>(r.server().counters.challenges_sent));
  benchutil::metric("solutions_valid",
                    static_cast<double>(r.server().counters.solutions_valid));
  benchutil::label("strategy", r.groups[0].name);
  benchutil::label("policy", r.server().policy);

  benchutil::check("scenario processed >= 1e6 events",
                   r.events_processed >= 1'000'000u);
  benchutil::check("flood was challenged (>= 100k challenges)",
                   r.server().counters.challenges_sent >= 100'000u);
  benchutil::check("clients keep connecting under the 120-bot flood (>= 85%)",
                   success_pct >= 85.0);
  // Fig. 13/14: the defense decouples attacker admission from flood size —
  // 120 bots' combined admission stays pinned far below their attempt rate.
  benchutil::check("attacker admission pinned by solver (<= 2% of attempts)",
                   attacker_cps <= 0.02 * bot_attempt_rate + 1.0);
  return benchutil::finish();
}
