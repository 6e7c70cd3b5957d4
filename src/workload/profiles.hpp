// Single source of truth for the paper's Fig. 3 workload/service profile.
//
// The §6 experiments are parameterised by two measured curves: Fig. 3a (the
// client puzzle-solver budget, w_av hashes per 0.4 s adaptation window) and
// Fig. 3b (the Apache-like server completing µ ≈ 1100 req/s at saturation).
// Every consumer (the CpuSpec defaults, the device table, the scenario and
// strategy specs, the fluid population, the benches) reads these numbers
// from here, so re-calibrating the profile is a one-file change. The header
// is constants only, so sim/cpu.hpp can include it.
#pragma once

#include <cstdint>

namespace tcpz::workload::profiles {

/// Fig. 3a: hash operations a patched client kernel completes inside one
/// 0.4 s difficulty-adaptation window (w_av, used by the Nash planner).
inline constexpr double kClientWav = 140'630.0;
/// The adaptation-window length the w_av measurement is defined over.
inline constexpr double kWavWindowSec = 0.4;
/// The client solver rate in hashes/s implied by Fig. 3a. Kept as a literal
/// (not kClientWav / kWavWindowSec) so the value stays bit-exact with the
/// one the golden traces were recorded with.
inline constexpr double kClientHashRate = 351'575.0;

/// Fig. 3b: server service rate at saturation, requests/s (µ of the M/M/1
/// model all capacity planning in the paper is built on).
inline constexpr double kServiceRateMu = 1100.0;
/// Server hash budget (hashes/s) used by the verification cost model.
inline constexpr double kServerHashRate = 10'800'000.0;

/// The §6 legitimate workload: open-loop Poisson arrivals per user.
inline constexpr double kRequestRate = 20.0;       ///< λ, requests/s per user
inline constexpr std::uint32_t kRequestBytes = 200;
inline constexpr std::uint32_t kResponseBytes = 100'000;
/// In-kernel solver backpressure: outstanding solves a client queues before
/// refusing further challenges (mirrors the kernel's small job ring).
inline constexpr int kMaxPendingSolves = 4;

}  // namespace tcpz::workload::profiles
