// Figure 9 / Experiment 2: CPU utilisation of client, server and attacker
// machines during a connection flood with Nash-difficulty puzzles.
//
// Paper shape: server stays below 5% (generation + verification are cheap);
// clients rise but stay under ~20%; attackers spike far above the clients.
#include "bench_common.hpp"

using namespace tcpz;

int main(int argc, char** argv) {
  const auto args = benchutil::parse(argc, argv);
  scenario::Spec spec = benchutil::paper_spec(args);
  spec.servers.policies = {defense::PolicySpec::puzzles()};
  spec.servers.difficulty = {2, 17};
  scenario::AttackSpec atk;
  // Raw nping flood: bypasses the bot kernel solver.
  atk.strategy = offense::StrategySpec::conn_flood(/*patched=*/false);
  spec.attacks = {atk};

  benchutil::header(
      "Figure 9: CPU utilisation during a connection flood (Nash puzzles)",
      "server < 5%; clients < 20% (avg ~10%); attackers spike far higher");

  const scenario::Result res = benchutil::run_scenario(spec, args);

  const std::size_t bins = spec.duration_bins();
  std::printf("%-8s %10s %10s %10s\n", "t(s)", "client%", "server%",
              "attacker%");
  for (std::size_t t = 0; t + 10 <= bins; t += 10) {
    const SimTime a = SimTime::seconds(static_cast<std::int64_t>(t));
    const SimTime b = a + SimTime::seconds(10);
    std::printf("%-8zu %10.1f %10.1f %10.1f\n", t,
                100.0 * res.mean_client_cpu(a, b),
                100.0 * res.server().cpu.mean_in(a, b),
                100.0 * res.mean_bot_cpu(a, b));
  }
  std::printf("(attack window: %zu-%zu s)\n", spec.attack_start_bin(),
              spec.attack_end_bin());

  const SimTime w0 = SimTime::seconds(
      static_cast<std::int64_t>(benchutil::atk_lo(spec)));
  const SimTime w1 = SimTime::seconds(
      static_cast<std::int64_t>(benchutil::atk_hi(spec)));
  const double server_cpu = res.server().cpu.mean_in(w0, w1);
  const double client_cpu = res.mean_client_cpu(w0, w1);
  const double bot_cpu = res.mean_bot_cpu(w0, w1);
  double bot_peak = 0;
  for (const auto& b : res.groups[0].bots) {
    bot_peak = std::max(bot_peak, b.cpu.max_in(w0, w1));
  }

  std::printf("\nattack-window means: client %.1f%%, server %.2f%%, attacker "
              "%.1f%% (peak %.1f%%)\n",
              100 * client_cpu, 100 * server_cpu, 100 * bot_cpu,
              100 * bot_peak);

  benchutil::check("server CPU stays below 5% (puzzle overhead negligible)",
                   server_cpu < 0.05);
  benchutil::check("client CPU stays below 30% during the attack",
                   client_cpu < 0.30);
  benchutil::check("attacker CPU well above client CPU",
                   bot_cpu > client_cpu * 1.5);
  benchutil::check("attacker CPU spikes above 35%", bot_peak > 0.35);

  const SimTime pre0 = SimTime::seconds(
      static_cast<std::int64_t>(benchutil::pre_lo(spec)));
  const SimTime pre1 = SimTime::seconds(
      static_cast<std::int64_t>(benchutil::pre_hi(spec)));
  benchutil::check("client CPU rises during the attack (it is solving)",
                   client_cpu > res.mean_client_cpu(pre0, pre1) + 0.02);

  return benchutil::finish();
}
