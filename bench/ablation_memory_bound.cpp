// Ablation: CPU-bound (the paper's SHA-256 scheme) vs memory-bound
// proof-of-work (§7's Abadi et al. suggestion).
//
// The fairness problem: compute throughput varies ~7x between the Xeon
// clients and the Raspberry Pi IoT devices, so a hash puzzle that is a mild
// nuisance for a desktop is a wall for a phone. Memory latency varies only
// ~2-4x. The ablation measures the solve-time spread and the end-to-end
// effect on a weak legitimate client population.
#include "bench_common.hpp"
#include "sim/devices.hpp"

using namespace tcpz;

int main(int argc, char** argv) {
  const auto args = benchutil::parse(argc, argv);

  benchutil::header(
      "Ablation: CPU-bound vs memory-bound proof-of-work (§7)",
      "memory-bound puzzles give far more uniform solve times across device "
      "classes, narrowing the Xeon/IoT gap");

  // Work targets chosen for comparable Xeon-class solve time (~0.37 s).
  const puzzle::Difficulty cpu_diff{2, 17};   // 131072 hashes
  const double cpu_ops = cpu_diff.expected_solve_hashes();
  const puzzle::Difficulty mem_diff{2, 25};   // ~33.5M accesses
  const double mem_ops = mem_diff.expected_solve_hashes();

  std::printf("per-device expected solve time (seconds):\n");
  std::printf("%-6s %14s %14s\n", "dev", "cpu-bound", "memory-bound");
  double cpu_min = 1e18, cpu_max = 0, mem_min = 1e18, mem_max = 0;
  const auto row = [&](const sim::DeviceProfile& d) {
    const double tc = cpu_ops / d.hash_rate;
    const double tm = mem_ops / d.mem_rate;
    cpu_min = std::min(cpu_min, tc);
    cpu_max = std::max(cpu_max, tc);
    mem_min = std::min(mem_min, tm);
    mem_max = std::max(mem_max, tm);
    std::printf("%-6s %14.3f %14.3f\n", d.name.data(), tc, tm);
  };
  for (const auto& d : sim::kClientCpus) row(d);
  for (const auto& d : sim::kIotDevices) row(d);

  const double cpu_spread = cpu_max / cpu_min;
  const double mem_spread = mem_max / mem_min;
  std::printf("\nsolve-time spread (slowest/fastest): cpu-bound %.1fx, "
              "memory-bound %.1fx\n",
              cpu_spread, mem_spread);
  benchutil::check("memory-bound spread is at least 1.5x narrower",
                   mem_spread * 1.5 < cpu_spread);

  // End to end: a legitimate population of IoT-class clients under a
  // Xeon-class botnet flood, with each scheme.
  const auto run = [&](scenario::PowKind pow, puzzle::Difficulty diff,
                       const char* name) {
    scenario::Spec spec = benchutil::paper_spec(args);
    spec.servers.policies = {defense::PolicySpec::puzzles()};
    spec.attacks = {scenario::AttackSpec{}};  // patched conn flood
    spec.pow = pow;
    spec.servers.difficulty = diff;
    spec.servers.sol_len = 4;
    // Weak clients (Pi 3-class), strong bots (Xeon-class).
    spec.workload.cpu = {sim::kIotDevices[3].hash_rate, 4, 1,
                         sim::kIotDevices[3].mem_rate};
    const scenario::Result res = benchutil::run_scenario(spec, args, name);
    const std::size_t a = benchutil::atk_lo(spec), b = benchutil::atk_hi(spec);
    struct {
      double client_mbps, attacker_cps;
    } out{res.client_rx_mbps(a, b), res.server().attacker_cps(a, b)};
    return out;
  };

  // m=25 would overflow the 4-byte-prefix check (m < 8*sol_len = 32): fine.
  const auto cpu_run = run(scenario::PowKind::kCpuBound, cpu_diff, "cpu");
  const auto mem_run =
      run(scenario::PowKind::kMemoryBound, mem_diff, "memory");
  std::printf("\nIoT-class clients vs Xeon-class bots during the flood:\n");
  std::printf("%-14s %16s %16s\n", "scheme", "client Mbps", "attacker cps");
  std::printf("%-14s %16.2f %16.2f\n", "cpu-bound", cpu_run.client_mbps,
              cpu_run.attacker_cps);
  std::printf("%-14s %16.2f %16.2f\n", "memory-bound", mem_run.client_mbps,
              mem_run.attacker_cps);

  benchutil::check("memory-bound puzzles serve weak clients better under "
                   "attack",
                   mem_run.client_mbps > cpu_run.client_mbps);
  benchutil::check("memory-bound puzzles still rate-limit the attacker "
                   "(< 40 cps)",
                   mem_run.attacker_cps < 40.0);

  return benchutil::finish();
}
