// A shared periodic timer for a cohort of agents: one self-rescheduling
// event on a Simulator that fires every `period` until `until` and calls its
// members in join order. It replaces N per-agent timers that would each
// re-arm themselves at the same grid instants.
//
// Ordering: the first event is armed when the first member joins, with the
// same schedule_in(period) call that member would have made for its own
// timer — so it takes exactly that member's (at, seq) position. When the
// members' own timers would have been consecutive in (at, seq) order at
// every grid instant (nothing else scheduled at the same instant between
// them), folding them into one event preserves the global firing order.
// Each firing re-arms after the sweep, as a self-driven timer re-arms after
// its work.
//
// Idle skipping: every member has an active bit. A sweep visits only set
// bits, word by word, so an idle member costs one bit test per 64 members
// and its state is never touched. Members may flip bits during a sweep: the
// rest of the current word is re-read after every call, so a member that
// clears its own bit stays skipped from then on, and one that sets a later
// member's bit gets that member called in the same sweep.
//
// Firing count: `fired()` counts the firings so far (a firing counts from
// the start of its sweep), and firing i (from 0) is at `first_firing()` +
// i periods. A member that skips firings while it knows they would record
// nothing can fill in what it skipped from these alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "net/simulator.hpp"
#include "util/time.hpp"

namespace tcpz::net {

class Cadence {
 public:
  using Member = std::function<void(SimTime)>;

  /// Fires every `period` (> 0) while the firing time is before `until`:
  /// the last firing is the first grid instant at or after `until`.
  Cadence(Simulator& sim, SimTime period, SimTime until);
  Cadence(const Cadence&) = delete;
  Cadence& operator=(const Cadence&) = delete;

  /// Appends a member and returns its id (join order). The first join arms
  /// the cadence. Members must not join during a sweep.
  std::size_t join(Member fn, bool active = true);

  /// An active member is called on every firing; an idle one is skipped.
  void set_active(std::size_t id, bool active) {
    const std::uint64_t bit = 1ull << (id & 63);
    if (active) {
      active_[id >> 6] |= bit;
    } else {
      active_[id >> 6] &= ~bit;
    }
  }

  [[nodiscard]] SimTime period() const { return period_; }
  /// Firings so far, the one in progress included.
  [[nodiscard]] std::size_t fired() const { return fired_; }
  /// The first firing's instant: one period after the first join.
  [[nodiscard]] SimTime first_firing() const { return first_; }

 private:
  void arm();
  void fire();

  Simulator& sim_;
  SimTime period_;
  SimTime until_;
  SimTime first_;
  std::size_t fired_ = 0;
  std::vector<Member> members_;
  std::vector<std::uint64_t> active_;  ///< one bit per member, join order
};

}  // namespace tcpz::net
