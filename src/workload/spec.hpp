// Declarative workload description: which TrafficModel to run and, for the
// hybrid kind, how the modeled population splits into fluid mass and a
// sampled discrete cohort.
//
// Mirrors defense::PolicySpec and offense::StrategySpec: a comparable value
// type with canonical factories, `from_legacy` for the flat WorkloadSpec
// knobs, and `build()`/`factory()` producing live models.
// scenario::WorkloadSpec embeds an optional ModelSpec; when absent, the flat
// knobs go through from_legacy.
#pragma once

#include <cstdint>
#include <memory>

#include "workload/model.hpp"
#include "workload/profiles.hpp"

namespace tcpz::workload {

struct ModelSpec {
  enum class Kind : std::uint8_t {
    kOpenLoopPoisson,  ///< every user is a discrete agent (the legacy model)
    kHybridFluid,      ///< fluid aggregate + sampled discrete cohort
  };

  Kind kind = Kind::kOpenLoopPoisson;

  // -- per-user demand (both kinds; the fluid aggregate scales these by N) --
  double request_rate = profiles::kRequestRate;  ///< λ per user, req/s
  std::uint32_t request_bytes = profiles::kRequestBytes;
  std::uint32_t response_bytes = profiles::kResponseBytes;
  int max_pending_solves = profiles::kMaxPendingSolves;

  // -- hybrid population split (kHybridFluid only) --
  /// Total modeled legitimate users. The sampled cohort runs as discrete
  /// ClientAgents (exact challenge/solve/latency statistics); the remainder
  /// is aggregated into one FluidPopulation per server.
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

  /// The per-client TrafficModel (the sampled cohort of a hybrid population
  /// runs the same open-loop model as a full-discrete run — that is what
  /// makes the cohort's statistics directly comparable).
  [[nodiscard]] std::unique_ptr<TrafficModel> build() const;
  [[nodiscard]] ModelFactory factory() const;
};

}  // namespace tcpz::workload
