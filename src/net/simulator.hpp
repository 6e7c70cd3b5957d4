// Discrete-event simulation core. Deterministic: events at equal timestamps
// fire in scheduling order (a monotone sequence number breaks ties), so a
// given scenario seed always produces the identical packet trace.
//
// Scheduling is backed by the one-level timer wheel in net/event_core.hpp:
// pooled, intrusively-linked event records with inline closure storage (no
// per-event allocation on the hot path) and cancellable TimerHandles, while
// preserving the exact (timestamp, sequence) firing order of the original
// single priority queue.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>

#include "net/event_core.hpp"
#include "util/time.hpp"

namespace tcpz::net {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }
  /// Events scheduled and not yet fired or cancelled.
  [[nodiscard]] std::size_t pending() const { return core_.live(); }
  /// Events descheduled via cancel() over the simulator's lifetime.
  [[nodiscard]] std::uint64_t events_cancelled() const {
    return core_.cancelled_total();
  }
  /// Of those, the ones descheduled via the O(1) wheel unlink (the rest
  /// were lazily dropped from the fire batch or the overflow heap).
  [[nodiscard]] std::uint64_t events_cancelled_wheel() const {
    return core_.cancelled_from_wheel();
  }

  /// Schedules `action` (any void() callable) at absolute time `at` and
  /// returns a handle that can deschedule it until it fires.
  template <typename F>
  TimerHandle schedule_at(SimTime at, F&& action) {
    if (at < now_) {
      throw std::logic_error("Simulator: scheduling into the past");
    }
    return core_.schedule(at, std::forward<F>(action));
  }
  template <typename F>
  TimerHandle schedule_in(SimTime delay, F&& action) {
    return schedule_at(now_ + delay, std::forward<F>(action));
  }

  /// Deschedules a pending event: its action never runs (no tombstone fires)
  /// and is destroyed immediately. Safe on stale, spent, or default-made
  /// handles; returns true only if the event was actually descheduled.
  bool cancel(TimerHandle h) { return core_.cancel(h); }

  /// Runs every event with timestamp <= end, then advances the clock to end.
  void run_until(SimTime end) {
    while (detail::EventRec* rec = core_.pop_next(end)) {
      now_ = rec->at;
      ++processed_;
      core_.execute_and_recycle(rec);
    }
    if (now_ < end) now_ = end;
    core_.advance_cursor(now_);
  }

  /// Runs until the event queue is empty; the clock stops at the last event.
  /// The wheel cursor follows the clock, so a reused simulator keeps
  /// scheduling into the wheel's window.
  void run() {
    while (detail::EventRec* rec = core_.pop_next(SimTime::max())) {
      now_ = rec->at;
      ++processed_;
      core_.execute_and_recycle(rec);
    }
    core_.advance_cursor(now_);
  }

 private:
  EventCore core_;
  SimTime now_ = SimTime::zero();
  std::uint64_t processed_ = 0;
};

}  // namespace tcpz::net
