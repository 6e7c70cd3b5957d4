// Performance profiles of the machines the paper measures: the three client
// Xeons of Fig. 3a (fleet average w_av = 140630 hashes per 400 ms) and the
// four Raspberry Pi boards of Table 1. Hash rates are SHA-256 ops/second;
// mem rates are random memory accesses/second for the §7 memory-bound
// proof-of-work alternative (note how much narrower their spread is — that
// uniformity is the argument for memory-bound puzzles).
#pragma once

#include <array>
#include <string_view>

#include "workload/profiles.hpp"

namespace tcpz::sim {

struct DeviceProfile {
  std::string_view name;
  std::string_view description;
  double hash_rate;  ///< SHA-256 ops per second
  int cores;
  double mem_rate;   ///< random memory accesses per second
};

/// Fig. 3a client CPUs. Individual hash rates are reconstructed so the fleet
/// average matches the paper's w_av = 140630 hashes / 400 ms exactly.
inline constexpr std::array<DeviceProfile, 3> kClientCpus{{
    {"cpu1", "Intel Xeon E3-1260L quad-core @ 2.4 GHz", 380'000.0, 4, 140e6},
    {"cpu2", "Intel Xeon X3210 quad-core @ 2.13 GHz", 330'000.0, 4, 120e6},
    {"cpu3", "Intel Xeon @ 3 GHz", 344'725.0, 4, 130e6},
}};

/// Table 1 IoT devices, hash rates as printed in the paper.
inline constexpr std::array<DeviceProfile, 4> kIotDevices{{
    {"D1", "Raspberry Pi Model B rev 2.0, 700 MHz ARM11", 49'617.0, 1, 35e6},
    {"D2", "Raspberry Pi Zero, 1 GHz ARM11", 68'960.0, 1, 45e6},
    {"D3", "Raspberry Pi 2 Model B v1.1, quad 1.2 GHz Cortex-A53", 70'009.0, 4,
     55e6},
    {"D4", "Raspberry Pi 3 Model B v1.2, quad 1.2 GHz BCM2837", 74'201.0, 4,
     60e6},
}};

/// The server of §4.4/§7: dual hexa-core Xeon @ 2.2 GHz, 10.8 Mhash/s.
inline constexpr DeviceProfile kServerCpu{
    "server", "HP DL360 G8, dual Intel Xeon hexa-core @ 2.2 GHz",
    workload::profiles::kServerHashRate, 12, 150e6};

}  // namespace tcpz::sim
