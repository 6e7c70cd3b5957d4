#include "net/event_core.hpp"

#include <algorithm>
#include <bit>

#include "obs/trace.hpp"

namespace tcpz::net {

using detail::EventLoc;
using detail::EventRec;
using detail::HeapEntry;

namespace {

constexpr std::size_t kChunkRecords = 1024;

/// kSched/kCancel a1: where the record was filed (a lazy cancel: kTierBatch).
enum Tier : std::uint64_t { kTierBatch = 0, kTierWheel = 1, kTierOverflow = 2 };

/// Min-heap order over staging entries: earliest (at, seq) at the front.
struct LaterEntry {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }
};

}  // namespace

EventCore::~EventCore() {
  // Chunk storage owns the records; destroy any closures still pending so
  // captured resources (shared_ptrs etc.) are released.
  for (auto& chunk : chunks_) {
    for (std::size_t i = 0; i < kChunkRecords; ++i) chunk[i].action.reset();
  }
}

EventRec* EventCore::alloc() {
  if (free_list_ == nullptr) {
    chunks_.push_back(std::make_unique<EventRec[]>(kChunkRecords));
    EventRec* chunk = chunks_.back().get();
    for (std::size_t i = 0; i < kChunkRecords; ++i) {
      chunk[i].next = free_list_;
      free_list_ = &chunk[i];
    }
  }
  EventRec* rec = free_list_;
  free_list_ = rec->next;
  return rec;
}

void EventCore::recycle(EventRec* rec) {
  ++rec->gen;  // invalidate outstanding handles
  rec->loc = EventLoc::kFree;
  rec->next = free_list_;
  free_list_ = rec;
}

void EventCore::link(EventRec* rec) {
  const std::uint64_t at_tick = tick_of(rec->at);
  const HeapEntry entry{rec->at, rec->seq, rec};
  rec->loc = EventLoc::kOrdered;
  std::uint64_t tier = kTierBatch;
  if (at_tick <= cur_tick_) {
    // The cursor already drained this tick: insert into the batch after
    // every entry due no later (those all carry a smaller seq). Scanning
    // from the back makes the common case, a schedule for the latest time
    // so far, an append.
    if (batch_idx_ == batch_.size()) compact_batch();
    std::size_t pos = batch_.size();
    while (pos > batch_idx_ && batch_[pos - 1].at > rec->at) --pos;
    batch_.insert(batch_.begin() + static_cast<std::ptrdiff_t>(pos), entry);
  } else if (at_tick - cur_tick_ >= kWheelSlots) {
    overflow_.push_back(entry);
    std::push_heap(overflow_.begin(), overflow_.end(), LaterEntry{});
    tier = kTierOverflow;
  } else {
    const unsigned slot = slot_of(at_tick);
    rec->loc = EventLoc::kWheel;
    rec->prev = nullptr;
    rec->next = wheel_[slot];
    if (rec->next != nullptr) rec->next->prev = rec;
    wheel_[slot] = rec;
    occupied_[slot >> 6] |= 1ull << (slot & 63);
    tier = kTierWheel;
  }
  // Sim-time = the event's due time; a0 = seq.
  TCPZ_TRACE(rec->at, obs::Code::kSched, /*track=*/0, rec->seq, tier);
}

bool EventCore::cancel(TimerHandle h) {
  EventRec* rec = h.rec_;
  if (rec == nullptr || rec->gen != h.gen_ || rec->cancelled) return false;
  switch (rec->loc) {
    case EventLoc::kWheel: {
      // O(1) splice — the dominant case: retransmit/expiry timers park in
      // the wheel until descheduled, and the record recycles immediately.
      const unsigned slot = slot_of(tick_of(rec->at));
      if (rec->prev != nullptr) {
        rec->prev->next = rec->next;
      } else {
        wheel_[slot] = rec->next;
        if (rec->next == nullptr) {
          occupied_[slot >> 6] &= ~(1ull << (slot & 63));
        }
      }
      if (rec->next != nullptr) rec->next->prev = rec->prev;
      TCPZ_TRACE(rec->at, obs::Code::kCancel, 0, rec->seq, kTierWheel);
      rec->action.reset();
      recycle(rec);
      ++cancelled_wheel_total_;
      break;
    }
    case EventLoc::kOrdered:
      // The batch and the overflow heap hold entries we cannot cheaply
      // extract; drop the closure now and let pop_next discard the skeleton.
      rec->cancelled = true;
      TCPZ_TRACE(rec->at, obs::Code::kCancel, 0, rec->seq, kTierBatch);
      rec->action.reset();
      ++stage_cancelled_;
      break;
    case EventLoc::kFree:
      return false;
  }
  --live_;
  ++cancelled_total_;
  return true;
}

std::uint64_t EventCore::next_occupied_tick() const {
  // Scan the bitmap from the cursor's successor, wrapping once around (the
  // last step revisits the first word's bits below the start).
  constexpr unsigned kWords = kWheelSlots / 64;
  const unsigned from = slot_of(cur_tick_ + 1);
  const std::uint64_t head = ~0ull << (from & 63);
  for (unsigned i = 0; i <= kWords; ++i) {
    const unsigned w = ((from >> 6) + i) % kWords;
    const std::uint64_t bits =
        occupied_[w] & (i == 0 ? head : i == kWords ? ~head : ~0ull);
    if (bits != 0) {
      return cur_tick_ + 1 + slot_of((w << 6) + std::countr_zero(bits) - from);
    }
  }
  return UINT64_MAX;
}

void EventCore::drain_slot(std::uint64_t tick) {
  // Only called once the batch is spent, so the slot's records (all due in
  // `tick`) become the whole batch. Walking the list here also warms each
  // record for the fire that follows within the same tick.
  cur_tick_ = tick;
  const unsigned slot = slot_of(tick);
  EventRec* rec = std::exchange(wheel_[slot], nullptr);
  occupied_[slot >> 6] &= ~(1ull << (slot & 63));
  compact_batch();
  while (rec != nullptr) {
    EventRec* next = rec->next;
    rec->loc = EventLoc::kOrdered;
    batch_.push_back(HeapEntry{rec->at, rec->seq, rec});
    rec = next;
  }
  std::sort(batch_.begin(), batch_.end(),
            [](const auto& a, const auto& b) { return LaterEntry{}(b, a); });
}

EventRec* EventCore::pop_next(SimTime end) {
  for (;;) {
    // Skip cancelled skeletons — free when nothing is cancelled.
    if (stage_cancelled_ != 0) {
      while (batch_idx_ < batch_.size() && batch_[batch_idx_].rec->cancelled) {
        recycle(batch_[batch_idx_++].rec);
        --stage_cancelled_;
      }
      while (!overflow_.empty() && overflow_.front().rec->cancelled) {
        std::pop_heap(overflow_.begin(), overflow_.end(), LaterEntry{});
        recycle(overflow_.back().rec);
        overflow_.pop_back();
        --stage_cancelled_;
      }
    }
    const HeapEntry* b =
        batch_idx_ < batch_.size() ? &batch_[batch_idx_] : nullptr;
    const HeapEntry* o = overflow_.empty() ? nullptr : &overflow_.front();
    const bool from_overflow =
        o != nullptr && (b == nullptr || LaterEntry{}(*b, *o));
    const HeapEntry* best = from_overflow ? o : b;
    // The wheel only holds ticks beyond the cursor, so an entry due at or
    // before it cannot be preceded by anything parked. Otherwise the batch
    // is spent, and the first occupied slot up to the bound drains into it.
    if (best == nullptr || tick_of(best->at) > cur_tick_) {
      std::uint64_t bound = tick_of(end);
      if (best != nullptr) bound = std::min(bound, tick_of(best->at));
      const std::uint64_t next = next_occupied_tick();
      if (next <= bound) {
        drain_slot(next);
        continue;
      }
    }
    if (best == nullptr || best->at > end) return nullptr;
    EventRec* rec = best->rec;
    if (from_overflow) {
      std::pop_heap(overflow_.begin(), overflow_.end(), LaterEntry{});
      overflow_.pop_back();
    } else {
      ++batch_idx_;
    }
    return rec;
  }
}

void EventCore::advance_cursor(SimTime t) {
  std::uint64_t to = tick_of(t);
  std::uint64_t next = next_occupied_tick();
  if (!overflow_.empty()) next = std::min(next, tick_of(overflow_.front().at));
  // Every pending tick is > 0 here: wheel ticks exceed the cursor and an
  // overflow entry was filed at least kWheelSlots ticks ahead of it.
  if (next <= to) to = next - 1;
  cur_tick_ = std::max(cur_tick_, to);
}

void EventCore::execute_and_recycle(EventRec* rec) {
  TCPZ_TRACE(rec->at, obs::Code::kFire, /*track=*/0, rec->seq);
  rec->loc = EventLoc::kFree;  // running: no longer cancellable
  // One fused indirect call runs the action (which may schedule or cancel
  // other events re-entrantly) and destroys the closure.
  rec->action.call_and_reset();
  --live_;
  recycle(rec);
}

}  // namespace tcpz::net
