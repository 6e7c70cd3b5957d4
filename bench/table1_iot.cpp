// Table 1 / Experiment 6: IoT devices. Performance profiles of the four
// Raspberry Pi boards and the implied ceiling on their usefulness in a
// connection flood against a puzzle-protected server.
//
// Paper claim: the boards can still connect to a puzzle-protected server but
// are crippled as flood bots; recruiting IoT devices no longer yields an
// effective attack.
#include "bench_common.hpp"
#include "sim/devices.hpp"

using namespace tcpz;

int main(int argc, char** argv) {
  const auto args = benchutil::parse(argc, argv);
  scenario::Spec base = benchutil::paper_spec(args);
  if (!args.full) {
    base.duration = SimTime::seconds(90);
    base.attack_start = SimTime::seconds(20);
    base.attack_end = SimTime::seconds(70);
  }

  benchutil::header(
      "Table 1: performance profile of embedded (IoT) devices",
      "Raspberry Pis hash 50-75k/s (~20-30k hashes in 400 ms): enough to "
      "connect, far too slow to flood");

  const puzzle::Difficulty nash{2, 17};
  std::printf("%-6s %-50s %16s %20s %16s %18s\n", "dev", "description",
              "avg hash rate", "hashes in 400 ms", "solve time (s)",
              "max flood (cps)");
  double worst_cps = 0, best_solve = 1e18;
  for (const auto& dev : sim::kIotDevices) {
    const double solve_s = nash.expected_solve_hashes() / dev.hash_rate;
    const double cps = 1.0 / solve_s;  // one serial in-kernel solver
    worst_cps = std::max(worst_cps, cps);
    best_solve = std::min(best_solve, solve_s);
    std::printf("%-6s %-50s %16.0f %20.0f %16.2f %18.2f\n", dev.name.data(),
                dev.description.data(), dev.hash_rate, dev.hash_rate * 0.4,
                solve_s, cps);
  }

  benchutil::check("every device still completes a Nash puzzle in under 4 s "
                   "(can connect)",
                   best_solve < 4.0 && nash.expected_solve_hashes() /
                                               sim::kIotDevices[0].hash_rate <
                                           4.0);
  benchutil::check("no device can exceed 1 established connection/s when "
                   "challenged",
                   worst_cps < 1.0);

  // End-to-end: an all-IoT botnet at the paper's 5000 pps vs the Nash-puzzle
  // server, compared with the Xeon-class botnet.
  std::printf("\nend-to-end: 10-bot connection flood at 500 pps each\n");
  double iot_cps = 0, xeon_cps = 0;
  base.servers.policies = {defense::PolicySpec::puzzles()};
  base.servers.difficulty = nash;
  const std::size_t lo = benchutil::atk_lo(base), hi = benchutil::atk_hi(base);
  {
    scenario::Spec spec = base;
    scenario::AttackSpec atk;  // patched conn flood
    atk.cpu = {sim::kIotDevices[0].hash_rate, 1, 1};  // weakest board
    spec.attacks = {atk};
    iot_cps = benchutil::run_scenario(spec, args, "iot")
                  .server()
                  .attacker_cps(lo, hi);
  }
  {
    scenario::Spec spec = base;
    spec.attacks = {scenario::AttackSpec{}};  // default Xeon-class bots
    xeon_cps = benchutil::run_scenario(spec, args, "xeon")
                   .server()
                   .attacker_cps(lo, hi);
  }
  std::printf("IoT botnet effective rate:  %6.2f cps\n", iot_cps);
  std::printf("Xeon botnet effective rate: %6.2f cps\n", xeon_cps);
  benchutil::check("the IoT botnet is weaker than the Xeon botnet",
                   iot_cps < xeon_cps);
  benchutil::check("the IoT botnet is held below 10 cps", iot_cps < 10.0);

  return benchutil::finish();
}
