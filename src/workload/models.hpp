// Concrete TrafficModel implementations.
#pragma once

#include <cstdint>

#include "workload/model.hpp"
#include "workload/profiles.hpp"

namespace tcpz::workload {

/// The paper's §6 legitimate workload: open-loop Poisson arrivals at rate λ
/// per user, fixed request/response sizes, and a bounded in-kernel solve
/// queue (challenges beyond `max_pending` outstanding solves are refused).
///
/// next_arrival() performs exactly one Exp(λ) draw per arrival (via
/// exp_interarrival); the golden traces in tests/scenario_trace_test.cpp and
/// tests/policy_trace_test.cpp pin that draw order.
class OpenLoopPoisson final : public TrafficModel {
 public:
  OpenLoopPoisson(double request_rate, std::uint32_t request_bytes,
                  std::uint32_t response_bytes, int max_pending)
      : rate_(request_rate),
        shape_{request_bytes, response_bytes},
        max_pending_(max_pending) {}

  [[nodiscard]] const char* name() const override {
    return "open-loop-poisson";
  }

  [[nodiscard]] SimTime next_arrival(const ClientView& view) override {
    return exp_interarrival(*view.rng, rate_);
  }

  [[nodiscard]] RequestShape request_shape(const ClientView&) override {
    return shape_;
  }

  [[nodiscard]] bool accept_challenge(const ClientView& view,
                                      const puzzle::Challenge&) override {
    return view.pending_solves < max_pending_;
  }

 private:
  double rate_;
  RequestShape shape_;
  int max_pending_;
};

}  // namespace tcpz::workload
