#include "workload/spec.hpp"

#include <algorithm>
#include <cmath>

namespace tcpz::workload {

ModelSpec ModelSpec::hybrid(std::uint64_t users, double cohort_ratio) {
  ModelSpec s;
  s.kind = Kind::kHybridFluid;
  s.users = users;
  s.cohort_ratio = cohort_ratio;
  return s;
}

ModelSpec ModelSpec::from_legacy(double request_rate,
                                 std::uint32_t request_bytes,
                                 std::uint32_t response_bytes,
                                 int max_pending_solves) {
  ModelSpec s;
  s.kind = Kind::kOpenLoop;
  s.request_rate = request_rate;
  s.request_bytes = request_bytes;
  s.response_bytes = response_bytes;
  s.max_pending_solves = max_pending_solves;
  return s;
}

const char* ModelSpec::kind_name() const {
  switch (kind) {
    case Kind::kOpenLoop: return "open-loop-poisson";
    case Kind::kHybridFluid: return "hybrid-fluid";
  }
  return "?";
}

std::uint64_t ModelSpec::cohort_size() const {
  if (kind != Kind::kHybridFluid) return 0;
  const double want = std::round(static_cast<double>(users) * cohort_ratio);
  if (want <= 0.0) return 0;
  return std::min(users, static_cast<std::uint64_t>(want));
}

std::uint64_t ModelSpec::fluid_users() const {
  return kind == Kind::kHybridFluid ? users - cohort_size() : 0;
}

}  // namespace tcpz::workload
