#include "net/cadence.hpp"

#include <bit>
#include <stdexcept>
#include <utility>

namespace tcpz::net {

Cadence::Cadence(Simulator& sim, SimTime period, SimTime until)
    : sim_(sim), period_(period), until_(until) {
  if (period_ <= SimTime::zero()) {
    throw std::invalid_argument("Cadence: period must be positive");
  }
}

std::size_t Cadence::join(Member fn, bool active) {
  const std::size_t id = members_.size();
  members_.push_back(std::move(fn));
  if ((id & 63) == 0) active_.push_back(0);
  set_active(id, active);
  if (id == 0) {
    first_ = sim_.now() + period_;
    arm();
  }
  return id;
}

void Cadence::arm() {
  if (sim_.now() >= until_) return;
  sim_.schedule_in(period_, [this] { fire(); });
}

void Cadence::fire() {
  const SimTime now = sim_.now();
  ++fired_;
  for (std::size_t w = 0; w < active_.size(); ++w) {
    std::uint64_t bits = active_[w];
    while (bits != 0) {
      const unsigned b = static_cast<unsigned>(std::countr_zero(bits));
      members_[(w << 6) + b](now);
      // Re-read the word past this member: calls may have flipped bits.
      bits = active_[w] & (~0ull << b << 1);
    }
  }
  arm();
}

}  // namespace tcpz::net
