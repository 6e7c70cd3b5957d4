// Ablation: the protection-controller design choices DESIGN.md calls out.
//
//  (a) protection hold — how long "protection in effect" persists after the
//      last full-queue observation. Short holds flap: every lapse re-admits
//      an accept-backlog's worth of flood connections.
//  (b) engage water — the queue occupancy that counts as "full" for the
//      controller. Engaging early shrinks the ramp-up burst but prevents
//      the listen queue from capturing parked attack state.
//  (c) adaptive difficulty (§7 extension) vs the fixed Nash setting.
//
// Metrics per variant: attacker established cps and aggregate client Mbps
// over the attack window.
#include "bench_common.hpp"

using namespace tcpz;

namespace {

struct Outcome {
  double attacker_cps;
  double client_mbps;
};

Outcome run(const scenario::Spec& spec, const benchutil::Args& args,
            const std::string& name) {
  const scenario::Result res = benchutil::run_scenario(spec, args, name);
  const std::size_t a = benchutil::atk_lo(spec), b = benchutil::atk_hi(spec);
  return {res.server().attacker_cps(a, b), res.client_rx_mbps(a, b)};
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = benchutil::parse(argc, argv);
  scenario::Spec base = benchutil::paper_spec(args);
  base.attacks = {scenario::AttackSpec{}};  // patched conn flood
  base.servers.policies = {defense::PolicySpec::puzzles()};
  base.servers.difficulty = {2, 17};

  benchutil::header(
      "Ablation: protection controller design choices",
      "hold >= attack-refill period prevents flapping; engage water trades "
      "ramp burst vs captured attack state; adaptive difficulty tracks load");

  std::printf("(a) protection hold sweep (attack window %zu-%zu s):\n",
              base.attack_start_bin(), base.attack_end_bin());
  std::printf("%-12s %16s %16s\n", "hold (s)", "attacker cps", "client Mbps");
  double cps_short = 0, cps_long = 0;
  for (const int hold : {2, 5, 15, 60, 120}) {
    scenario::Spec spec = base;
    spec.servers.policies[0].protection_hold = SimTime::seconds(hold);
    const Outcome o = run(spec, args, "hold" + std::to_string(hold));
    if (hold == 2) cps_short = o.attacker_cps;
    if (hold == 120) cps_long = o.attacker_cps;
    std::printf("%-12d %16.1f %16.1f\n", hold, o.attacker_cps, o.client_mbps);
  }
  benchutil::check("short holds leak far more attacker connections (>= 3x)",
                   cps_short >= 3.0 * std::max(cps_long, 0.5));

  std::printf("\n(b) engage-water sweep:\n");
  std::printf("%-12s %16s %16s\n", "water", "attacker cps", "client Mbps");
  for (const double w : {0.25, 0.5, 1.0}) {
    scenario::Spec spec = base;
    spec.servers.policies[0].protection_engage_water = w;
    const Outcome o =
        run(spec, args, "water" + std::to_string(static_cast<int>(w * 100)));
    std::printf("%-12.2f %16.1f %16.1f\n", w, o.attacker_cps, o.client_mbps);
  }

  std::printf("\n(c) fixed Nash vs adaptive difficulty:\n");
  std::printf("%-12s %16s %16s %12s\n", "variant", "attacker cps",
              "client Mbps", "max m");
  const Outcome fixed = run(base, args, "fixed");
  std::printf("%-12s %16.1f %16.1f %12d\n", "fixed", fixed.attacker_cps,
              fixed.client_mbps, base.servers.difficulty.m);

  scenario::Spec ad = base;
  AdaptiveConfig actl;
  actl.base = {2, 15};  // start easier than Nash; let the loop harden it
  actl.m_max = 20;
  actl.high_demand = 1000.0;
  actl.low_demand = 100.0;
  actl.patience = 2;
  ad.servers.difficulty = actl.base;
  ad.servers.policies = {defense::PolicySpec::puzzles().with_adaptive(actl)};
  const scenario::Result ad_res = benchutil::run_scenario(ad, args, "adaptive");
  benchutil::label("adaptive_policy", ad_res.server().policy);
  benchutil::metric("adaptive_final_m", ad_res.server().final_difficulty_m);
  const std::size_t a = benchutil::atk_lo(ad), b = benchutil::atk_hi(ad);
  const double ad_cps = ad_res.server().attacker_cps(a, b);
  const double ad_mbps = ad_res.client_rx_mbps(a, b);
  const double m_max_seen = ad_res.server().difficulty_m.max_in(
      ad.attack_start, SimTime::seconds(static_cast<std::int64_t>(b)));
  std::printf("%-12s %16.1f %16.1f %12.0f\n", "adaptive", ad_cps, ad_mbps,
              m_max_seen);

  benchutil::check("adaptive loop hardens beyond its easy base during the "
                   "attack",
                   m_max_seen > actl.base.m);
  benchutil::check("adaptive keeps the attacker within 3x of the fixed Nash "
                   "setting",
                   ad_cps <= 3.0 * std::max(fixed.attacker_cps, 1.0) + 5.0);

  return benchutil::finish();
}
