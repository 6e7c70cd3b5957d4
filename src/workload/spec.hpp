// Declarative description of the legitimate workload: the paper's §6
// open-loop demand per user and, for the hybrid kind, how the modeled
// population splits into fluid mass and a sampled discrete cohort.
//
// Unlike the defense and offense layers, the workload is not pluggable: it
// has exactly one behaviour, so there is no live model object. Each
// sim::ClientAgent and workload::FluidPopulation reads its demand straight
// from a ModelSpec — one Exp(λ) draw per arrival, fixed request/response
// sizes, and a bounded in-kernel solve queue (challenges beyond
// max_pending_solves outstanding solves are refused).
// scenario::WorkloadSpec embeds an optional ModelSpec; when absent, the flat
// knobs go through from_legacy.
#pragma once

#include <cstdint>

#include "workload/profiles.hpp"

namespace tcpz::workload {

struct ModelSpec {
  enum class Kind : std::uint8_t {
    kOpenLoop,     ///< every user is a discrete agent (the legacy model)
    kHybridFluid,  ///< fluid aggregate + sampled discrete cohort
  };

  Kind kind = Kind::kOpenLoop;

  // -- per-user demand (both kinds; the fluid aggregate scales these by N) --
  double request_rate = profiles::kRequestRate;  ///< λ per user, req/s
  std::uint32_t request_bytes = profiles::kRequestBytes;
  std::uint32_t response_bytes = profiles::kResponseBytes;
  int max_pending_solves = profiles::kMaxPendingSolves;

  // -- hybrid population split (kHybridFluid only) --
  /// Total modeled legitimate users. The sampled cohort runs as discrete
  /// ClientAgents with the same open-loop demand as a full-discrete run
  /// (exact, directly comparable challenge/solve/latency statistics); the
  /// remainder is aggregated into one FluidPopulation per server.
  std::uint64_t users = 0;
  /// Fraction of `users` kept discrete (rounded; clamped to [0, users]).
  double cohort_ratio = 0.0;

  bool operator==(const ModelSpec&) const = default;

  [[nodiscard]] static ModelSpec open_loop() { return {}; }
  [[nodiscard]] static ModelSpec hybrid(std::uint64_t users,
                                        double cohort_ratio);

  /// The flat WorkloadSpec knobs as an open-loop model with the same
  /// demand.
  [[nodiscard]] static ModelSpec from_legacy(double request_rate,
                                             std::uint32_t request_bytes,
                                             std::uint32_t response_bytes,
                                             int max_pending_solves);

  [[nodiscard]] const char* kind_name() const;

  /// Discrete agents the engine instantiates for a hybrid population.
  [[nodiscard]] std::uint64_t cohort_size() const;
  /// Users aggregated as fluid mass (users - cohort_size()).
  [[nodiscard]] std::uint64_t fluid_users() const;
};

}  // namespace tcpz::workload
