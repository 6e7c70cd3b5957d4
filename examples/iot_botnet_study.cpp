// IoT botnet study (Experiment 6 extended): what Mirai-class devices can and
// cannot do against a puzzle-protected server, and how large a botnet an
// attacker must assemble to regain an effective attack.
//
//   ./build/examples/iot_botnet_study
#include <cstdio>

#include "defense/spec.hpp"
#include "scenario/spec.hpp"
#include "sim/devices.hpp"

using namespace tcpz;
using namespace tcpz::sim;

namespace {

/// Attacker connections/s the Nash-puzzle server admits over the steady part
/// of the attack window, against `bots` running a patched conn flood.
double effective_cps(const scenario::AttackSpec& bots) {
  scenario::Spec s = scenario::Spec{}.scaled();
  s.servers.policies = {defense::PolicySpec::puzzles()};
  s.servers.difficulty = {2, 17};
  s.attacks = {bots};
  const scenario::Result res = scenario::run(s);
  const std::size_t a =
      s.attack_start_bin() + (s.attack_end_bin() - s.attack_start_bin()) / 4;
  return res.server().attacker_cps(a, s.attack_end_bin() - 1);
}

double effective_cps(const DeviceProfile& dev, int n_bots) {
  scenario::AttackSpec bots;
  bots.count = n_bots;
  bots.rate = 5000.0 / n_bots;
  bots.cpu = {dev.hash_rate, dev.cores, 1};
  return effective_cps(bots);
}

}  // namespace

int main() {
  std::printf("== IoT botnets vs TCP client puzzles ==\n\n");
  const puzzle::Difficulty nash{2, 17};

  std::printf("device capability at the Nash difficulty (%s):\n",
              nash.to_string().c_str());
  std::printf("%-6s %-52s %12s %14s %16s\n", "dev", "description", "hash/s",
              "solve (s)", "max cps (1 core)");
  for (const auto& dev : kIotDevices) {
    const double solve = nash.expected_solve_hashes() / dev.hash_rate;
    std::printf("%-6s %-52s %12.0f %14.2f %16.2f\n", dev.name.data(),
                dev.description.data(), dev.hash_rate, solve, 1.0 / solve);
  }

  std::printf("\nmeasured effective attack rate, 10-bot flood at 5000 pps "
              "total:\n");
  std::printf("%-10s %22s\n", "botnet", "effective rate (cps)");
  const double d1 = effective_cps(kIotDevices[0], 10);
  const double d4 = effective_cps(kIotDevices[3], 10);
  std::printf("%-10s %22.2f\n", "10x D1", d1);
  std::printf("%-10s %22.2f\n", "10x D4", d4);

  // The default attack group: 10 Xeon-class bots at 500 pps each.
  const double xeon_cps = effective_cps(scenario::AttackSpec{});
  std::printf("%-10s %22.2f\n", "10x Xeon", xeon_cps);

  // The economics argument of §1/§6.4: to regain an effective 5000 cps
  // state-exhaustion attack, the botnet must grow enormously.
  const double per_d1 = std::max(d1 / 10.0, 1e-3);
  std::printf("\nto reach 5000 effective cps an attacker needs ~%.0f D1-class "
              "devices (vs ~10 unprotected)\n",
              5000.0 / per_d1);
  std::printf("=> the botnet must grow by a factor of ~%.0f; Mirai-class "
              "fleets lose their cheap-asset advantage\n",
              5000.0 / per_d1 / 10.0);
  return 0;
}
