// Event core of the discrete-event simulator: one hashed timer wheel, an
// overflow heap beyond its window and a sorted fire batch, over a pool of
// recycled event records (DESIGN.md, "Event core").
//
//  * Records come from a chunked pool and recycle through a free list; the
//    callable is constructed in place into a fixed inline buffer sized for
//    the link layer's segment-delivery closure, so the packet path never
//    allocates.
//  * A record is filed by its tick's distance from the cursor: at or behind
//    it, a sorted insert into the fire batch; inside the window of
//    kWheelSlots ticks (65.536 us each, ~1.07 s), the intrusive list of that
//    tick's slot; beyond it, the overflow min-heap. The batch and the heap
//    hold 24-byte (at, seq, record*) entries, so compares never dereference
//    a record.
//  * Ordering is exactly the seed priority queue's, (timestamp, schedule
//    sequence): the wheel holds only ticks beyond the cursor and the batch
//    only ticks at or before it; the cursor moves to an occupied slot's tick
//    only once nothing earlier is pending, and sorts that slot into the
//    batch before anything in it fires. The overflow top competes with the
//    batch head by (at, seq), so overflow costs ordering nothing.
//  * cancel() unlinks a wheel-resident record in O(1) — the dominant case:
//    retransmit/expiry timers park in the wheel until descheduled. A record
//    in the batch or the heap has its closure destroyed now and its entry
//    dropped at pop time. A cancelled action never runs, and record
//    generations make stale handles (even to recycled records) no-ops.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/time.hpp"

namespace tcpz::net {
namespace detail {

/// Inline storage for an event's callable. 176 bytes fits the link layer's
/// delivery closure (a Link* plus a tcp::Segment by value, 160 bytes today);
/// event_core_test statically checks representative closure sizes.
inline constexpr std::size_t kInlineActionBytes = 176;

/// Type-erased, non-copyable callable with inline small-buffer storage.
class EventAction {
 public:
  EventAction() = default;
  ~EventAction() { reset(); }
  EventAction(const EventAction&) = delete;
  EventAction& operator=(const EventAction&) = delete;

  template <typename F>
  void emplace(F&& fn) {
    using Fn = std::decay_t<F>;
    // One indirect call on either path: `run` picks fire-and-destroy
    // (the fire path) or destroy-only (cancel/teardown).
    if constexpr (sizeof(Fn) <= kInlineActionBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      target_ = ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
      op_ = [](void* p, bool run) {
        Fn* f = static_cast<Fn*>(p);
        if (run) (*f)();
        f->~Fn();
      };
    } else {
      target_ = new Fn(std::forward<F>(fn));
      op_ = [](void* p, bool run) {
        Fn* f = static_cast<Fn*>(p);
        if (run) (*f)();
        delete f;
      };
    }
  }

  /// Runs the callable and destroys it (the fire path). The callable may
  /// re-enter the core (schedule/cancel) freely.
  void call_and_reset() { std::exchange(op_, nullptr)(target_, true); }

  /// Destroys the callable without running it (cancel/teardown path).
  void reset() {
    if (op_ != nullptr) std::exchange(op_, nullptr)(target_, false);
  }

 private:
  void (*op_)(void*, bool run) = nullptr;
  void* target_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineActionBytes];
};

/// Where a live record currently lives (drives cancel/recycle paths).
enum class EventLoc : std::uint8_t {
  kFree,     ///< on the pool free list, or its action is running
  kOrdered,  ///< overflow heap or the sorted fire batch
  kWheel,    ///< parked in a wheel slot's intrusive list
};

struct EventRec {
  SimTime at;
  std::uint64_t seq = 0;  ///< global schedule order; ties fire in this order
  std::uint64_t gen = 0;  ///< bumped on recycle; validates TimerHandles
  EventRec* prev = nullptr;  ///< intrusive wheel-slot list / free-list link
  EventRec* next = nullptr;
  EventLoc loc = EventLoc::kFree;
  bool cancelled = false;
  EventAction action;
};

/// Staging entry: the ordering key inline so the overflow heap and the fire
/// batch never dereference the record to compare.
struct HeapEntry {
  SimTime at;
  std::uint64_t seq;
  EventRec* rec;
};

}  // namespace detail

/// Handle to a scheduled event. Default-constructed handles are inert; a
/// handle stays safe to hold (and to cancel) after the event fired or was
/// recycled — the generation check turns stale cancels into no-ops.
class TimerHandle {
 public:
  TimerHandle() = default;

  /// True if the handle was ever bound to a scheduled event (it may have
  /// fired since; use Simulator::cancel's return value for liveness).
  [[nodiscard]] explicit operator bool() const { return rec_ != nullptr; }

  void reset() {
    rec_ = nullptr;
    gen_ = 0;
  }

 private:
  friend class EventCore;
  TimerHandle(detail::EventRec* rec, std::uint64_t gen) : rec_(rec), gen_(gen) {}

  detail::EventRec* rec_ = nullptr;
  std::uint64_t gen_ = 0;
};

class EventCore {
 public:
  /// One tick is 2^16 ns = 65.536 us; 2^14 slots span 2^30 ns (~1.07 s).
  static constexpr unsigned kTickNanosBits = 16;
  static constexpr unsigned kWheelSlots = 1u << 14;

  EventCore() = default;
  ~EventCore();
  EventCore(const EventCore&) = delete;
  EventCore& operator=(const EventCore&) = delete;

  template <typename F>
  TimerHandle schedule(SimTime at, F&& fn) {
    detail::EventRec* rec = alloc();
    rec->at = at;
    rec->seq = next_seq_++;
    rec->cancelled = false;
    rec->action.emplace(std::forward<F>(fn));
    link(rec);
    ++live_;
    return TimerHandle{rec, rec->gen};
  }

  /// Deschedules the event if it has not fired; its action never runs and is
  /// destroyed eagerly. Returns false for stale/spent/foreign handles.
  bool cancel(TimerHandle h);

  /// Pops the earliest event with at <= end in exact (at, seq) order, or
  /// nullptr. The caller must pass the record to execute_and_recycle().
  detail::EventRec* pop_next(SimTime end);

  /// Runs the record's action (which may schedule or cancel other events),
  /// then returns the record to the pool.
  void execute_and_recycle(detail::EventRec* rec);

  /// Moves the cursor forward to min(tick(t), next pending tick - 1); never
  /// backwards. pop_next() moves the cursor only to the slots it drains, so
  /// after a run the simulator calls this with its clock: later schedules
  /// near the clock then land in the window instead of the overflow heap.
  void advance_cursor(SimTime t);

  [[nodiscard]] std::size_t live() const { return live_; }
  [[nodiscard]] std::uint64_t cancelled_total() const { return cancelled_total_; }
  /// Cancellations that took the O(1) wheel-unlink path (vs the lazy
  /// staged-skeleton path) — exposed so benches/tests can pin the tier.
  [[nodiscard]] std::uint64_t cancelled_from_wheel() const {
    return cancelled_wheel_total_;
  }

 private:
  static std::uint64_t tick_of(SimTime t) {
    return static_cast<std::uint64_t>(t.nanos()) >> kTickNanosBits;
  }
  static unsigned slot_of(std::uint64_t tick) {
    return static_cast<unsigned>(tick) & (kWheelSlots - 1);
  }

  detail::EventRec* alloc();
  void recycle(detail::EventRec* rec);
  /// Files a record into the batch, a wheel slot or the overflow heap.
  void link(detail::EventRec* rec);
  /// First occupied slot's tick (UINT64_MAX if the wheel is empty). Slot i
  /// holds the one tick in (cursor, cursor + kWheelSlots) congruent to i.
  [[nodiscard]] std::uint64_t next_occupied_tick() const;
  /// Moves the cursor to `tick` and sorts that slot into the spent batch.
  void drain_slot(std::uint64_t tick);
  void compact_batch() {
    batch_.clear();
    batch_idx_ = 0;
  }

  /// Records due at or before the cursor's tick, sorted by (at, seq) and
  /// consumed by index: the bulk fire path pays one sort per slot instead of
  /// a heap sift per event. Entries before batch_idx_ are spent.
  std::vector<detail::HeapEntry> batch_;
  std::size_t batch_idx_ = 0;
  std::vector<detail::HeapEntry> overflow_;  ///< min-heap by (at, seq)
  /// Cancelled records still represented by a staged skeleton entry. Zero on
  /// the hot path -> no cancelled checks at all.
  std::uint64_t stage_cancelled_ = 0;

  std::unique_ptr<detail::EventRec*[]> wheel_ =
      std::make_unique<detail::EventRec*[]>(kWheelSlots);
  std::uint64_t occupied_[kWheelSlots / 64] = {};  ///< one bit per slot
  std::uint64_t cur_tick_ = 0;  ///< every slot up to this tick is drained

  std::vector<std::unique_ptr<detail::EventRec[]>> chunks_;
  detail::EventRec* free_list_ = nullptr;

  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::uint64_t cancelled_total_ = 0;
  std::uint64_t cancelled_wheel_total_ = 0;
};

}  // namespace tcpz::net
