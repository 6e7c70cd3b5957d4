// Event-core coverage: exact (timestamp, sequence) ordering against a
// reference model across every staging tier (fire batch, wheel, overflow
// heap beyond the wheel's window), timer cancellation semantics, the cursor
// rule, and hot-path closure sizing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/event_core.hpp"
#include "net/simulator.hpp"
#include "tcp/segment.hpp"
#include "util/rng.hpp"

namespace tcpz::net {
namespace {

using Fired = std::vector<std::pair<std::int64_t, int>>;

// ---------------------------------------------------------------------------
// Determinism: the wheel+batch+heap core must fire in the exact order of
// the seed priority queue — ascending timestamp, scheduling order breaking
// ties.
// ---------------------------------------------------------------------------

TEST(EventCoreOrder, RandomWorkloadMatchesReferenceOrder) {
  // Deltas span every tier: sub-tick (fire batch), inside the wheel's
  // ~1.07 s window, and far beyond it (overflow heap).
  constexpr std::int64_t kSpans[] = {
      1'000,           50'000,         3'000'000,       800'000'000,
      120'000'000'000, 2'000'000'000'000, 400'000'000'000'000};
  Rng rng(2024);
  Simulator sim;
  Fired fired;
  std::vector<std::pair<std::int64_t, int>> expected;
  constexpr int kEvents = 5'000;
  for (int i = 0; i < kEvents; ++i) {
    const std::int64_t span =
        kSpans[rng.uniform_u64(sizeof(kSpans) / sizeof(kSpans[0]))];
    const auto at =
        SimTime::nanoseconds(static_cast<std::int64_t>(rng.uniform_u64(
            static_cast<std::uint64_t>(span))));
    expected.emplace_back(at.nanos(), i);
    sim.schedule_at(at, [&fired, at, i] { fired.emplace_back(at.nanos(), i); });
  }
  // Stable sort = ascending time, scheduling order within equal timestamps.
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  sim.run();
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(sim.events_processed(), static_cast<std::uint64_t>(kEvents));
}

TEST(EventCoreOrder, EqualTimestampsFireInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  // Same nanosecond, scheduled from different staging distances: the first
  // two land in the wheel, the third is scheduled once the cursor has
  // already drained the tick (a sorted insert into the fire batch).
  const SimTime t = SimTime::milliseconds(500);
  sim.schedule_at(t, [&] { order.push_back(0); });
  sim.schedule_at(t, [&] {
    order.push_back(1);
    sim.schedule_at(t, [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventCoreOrder, ReverseScheduledSpansFireInTimeOrder) {
  // Spans from sub-tick to days, scheduled in reverse time order so every
  // one must fire ahead of the ones scheduled before it.
  Simulator sim;
  std::vector<int> order;
  const std::int64_t at_ns[] = {
      500'000'000'000'000,  // overflow heap (~5.8 days)
      900'000'000'000,      // overflow heap
      5'000'000'000,        // overflow heap
      40'000'000,           // wheel
      200'000,              // wheel
      10,                   // sub-tick: fire batch
  };
  for (int i = 0; i < 6; ++i) {
    sim.schedule_at(SimTime::nanoseconds(at_ns[i]),
                    [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{5, 4, 3, 2, 1, 0}));
  EXPECT_EQ(sim.now(), SimTime::nanoseconds(at_ns[0]));
}

TEST(EventCoreOrder, OverflowHeapInterleavesExactlyWithWheel) {
  // Equal timestamps far beyond the wheel's window, scheduled before and
  // during the run: the later schedule must fire after its twin (later seq).
  Simulator sim;
  const SimTime beyond = SimTime::nanoseconds((1ll << 48) + 12'345);
  std::vector<int> order;
  sim.schedule_at(beyond, [&] { order.push_back(0); });       // overflow heap
  sim.schedule_at(SimTime::nanoseconds(70'000), [&] {         // one tick in
    order.push_back(1);
    sim.schedule_at(beyond, [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
}

TEST(EventCoreOrder, WindowEdgeTicksInterleaveExactly) {
  // With the cursor at tick 0, tick 2^14 - 1 is the last one inside the
  // wheel's window and tick 2^14 the first one beyond it (overflow heap).
  constexpr std::int64_t kTickNs = 1ll << EventCore::kTickNanosBits;
  const SimTime last_in =
      SimTime::nanoseconds((EventCore::kWheelSlots - 1) * kTickNs);
  const SimTime first_out =
      SimTime::nanoseconds(EventCore::kWheelSlots * kTickNs);
  const SimTime twin = first_out + SimTime::nanoseconds(5);
  Simulator sim;
  // Tier check: only the in-window cancel is an O(1) wheel unlink.
  TimerHandle in_h = sim.schedule_at(last_in, [] {});
  TimerHandle out_h = sim.schedule_at(first_out, [] {});
  EXPECT_TRUE(sim.cancel(in_h));
  EXPECT_EQ(sim.events_cancelled_wheel(), 1u);
  EXPECT_TRUE(sim.cancel(out_h));
  EXPECT_EQ(sim.events_cancelled_wheel(), 1u);
  EXPECT_EQ(sim.events_cancelled(), 2u);

  std::vector<int> order;
  sim.schedule_at(twin, [&] { order.push_back(0); });  // overflow heap
  sim.schedule_at(first_out - SimTime::nanoseconds(1), [&] {  // wheel
    order.push_back(1);
    // The cursor has drained tick 2^14 - 1, so `twin` is inside the window
    // now: this wheel-resident copy must still fire after both heap twins.
    sim.schedule_at(twin, [&] { order.push_back(5); });
  });
  sim.schedule_at(twin, [&] { order.push_back(2); });       // overflow heap
  sim.schedule_at(first_out, [&] { order.push_back(3); });  // overflow heap
  sim.schedule_at(last_in, [&] { order.push_back(4); });    // wheel
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{4, 1, 3, 0, 2, 5}));
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(EventCoreOrder, RunUntilBoundaryIsInclusive) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(SimTime::seconds(2), [&] { ++fired; });
  sim.schedule_at(SimTime::seconds(2) + SimTime::nanoseconds(1), [&] { ++fired; });
  sim.run_until(SimTime::seconds(2));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), SimTime::seconds(2));
  sim.run_until(SimTime::seconds(3));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), SimTime::seconds(3));
}

// ---------------------------------------------------------------------------
// Reuse after a draining run: the cursor must follow the clock so the
// simulator keeps the wheel's O(1) scheduling/cancel tier instead of
// silently degrading everything to the overflow heap.
// ---------------------------------------------------------------------------

TEST(EventCoreReuse, CursorFollowsClockAfterDrainedRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(SimTime::milliseconds(5), [&] { ++fired; });
  sim.run();  // drains; pre-fix the cursor parked at the far future here
  ASSERT_EQ(fired, 1);

  // An in-horizon timer scheduled on the reused simulator must park in the
  // wheel: cancelling it takes the O(1) unlink path, observable through the
  // wheel-cancellation counter.
  const std::uint64_t wheel_before = sim.events_cancelled_wheel();
  TimerHandle h = sim.schedule_in(SimTime::milliseconds(10), [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_EQ(sim.events_cancelled_wheel(), wheel_before + 1);

  // Firing still works and ordering is still exact after the cursor moved.
  std::vector<int> order;
  sim.schedule_in(SimTime::milliseconds(2), [&] { order.push_back(2); });
  sim.schedule_in(SimTime::milliseconds(1), [&] { order.push_back(1); });
  sim.schedule_in(SimTime::milliseconds(3), [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));

  // A draining run_until() moves the cursor to its bound too.
  sim.run_until(sim.now() + SimTime::seconds(5));
  const std::uint64_t wheel_before2 = sim.events_cancelled_wheel();
  TimerHandle h2 = sim.schedule_in(SimTime::milliseconds(3), [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(h2));
  EXPECT_EQ(sim.events_cancelled_wheel(), wheel_before2 + 1);
}

TEST(EventCoreReuse, CursorMoveKeepsPendingEvents) {
  Simulator sim;
  int fired = 0;
  // run_until() with work left behind must NOT move the cursor past it or
  // drop anything: the far-future event still fires at its exact time.
  sim.schedule_at(SimTime::seconds(10), [&] { ++fired; });
  sim.run_until(SimTime::seconds(1));
  EXPECT_EQ(fired, 0);
  sim.schedule_in(SimTime::milliseconds(1), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), SimTime::seconds(10));
}

TEST(EventCoreReuse, RunUntilStopsCursorShortOfPendingOverflowEvent) {
  Simulator sim;
  std::vector<int> order;
  const SimTime due = SimTime::seconds(3);  // beyond the window from tick 0
  sim.schedule_at(due, [&] { order.push_back(0); });
  sim.run_until(SimTime::seconds(2));
  // The cursor followed the clock: a timer near it parks in the wheel.
  TimerHandle near_h =
      sim.schedule_in(SimTime::milliseconds(10), [&] { order.push_back(9); });
  EXPECT_TRUE(sim.cancel(near_h));
  EXPECT_EQ(sim.events_cancelled_wheel(), 1u);
  // A bound inside the pending event's tick stops the cursor one tick short
  // of it, so that tick still files into the wheel.
  sim.run_until(due - SimTime::nanoseconds(1));
  EXPECT_TRUE(order.empty());
  TimerHandle same_tick = sim.schedule_at(due, [&] { order.push_back(9); });
  EXPECT_TRUE(sim.cancel(same_tick));
  EXPECT_EQ(sim.events_cancelled_wheel(), 2u);
  // A wheel-resident twin of the overflow event fires after it (later seq).
  sim.schedule_at(due, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(sim.now(), due);
}

// ---------------------------------------------------------------------------
// Cancellation.
// ---------------------------------------------------------------------------

TEST(EventCoreCancel, CancelledTimerNeverFires) {
  Simulator sim;
  int fired = 0;
  // One handle per staging tier.
  TimerHandle near_h = sim.schedule_at(SimTime::nanoseconds(5), [&] { ++fired; });
  TimerHandle wheel_h = sim.schedule_at(SimTime::milliseconds(80), [&] { ++fired; });
  TimerHandle far_h = sim.schedule_at(
      SimTime::nanoseconds((1ll << 48) + 99), [&] { ++fired; });
  EXPECT_EQ(sim.pending(), 3u);
  EXPECT_TRUE(sim.cancel(near_h));
  EXPECT_TRUE(sim.cancel(wheel_h));
  EXPECT_TRUE(sim.cancel(far_h));
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.events_cancelled(), 3u);
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(EventCoreCancel, CancelledBatchResidentTimerNeverFires) {
  Simulator sim;
  std::vector<int> order;
  TimerHandle drained;
  sim.schedule_at(SimTime::milliseconds(1), [&] {
    order.push_back(0);
    // The cursor has drained this tick: both schedules are sorted inserts
    // into the fire batch, and `drained` moved there with this event.
    TimerHandle inserted = sim.schedule_in(SimTime::nanoseconds(10),
                                           [&] { order.push_back(1); });
    sim.schedule_in(SimTime::nanoseconds(20), [&] { order.push_back(2); });
    EXPECT_TRUE(sim.cancel(inserted));
    EXPECT_TRUE(sim.cancel(drained));
  });
  drained = sim.schedule_at(SimTime::milliseconds(1) + SimTime::nanoseconds(30),
                            [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
  EXPECT_EQ(sim.events_cancelled(), 2u);
  EXPECT_EQ(sim.events_cancelled_wheel(), 0u);
  EXPECT_EQ(sim.events_processed(), 2u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(EventCoreCancel, CancelledOverflowResidentTimerNeverFires) {
  Simulator sim;
  std::vector<int> order;
  // 5 s is beyond the ~1.07 s window: all three go to the overflow heap,
  // where a cancel is lazy.
  TimerHandle victim =
      sim.schedule_at(SimTime::seconds(5), [&] { order.push_back(0); });
  sim.schedule_at(SimTime::seconds(5), [&] { order.push_back(1); });
  sim.schedule_at(SimTime::seconds(6), [&] { order.push_back(2); });
  EXPECT_TRUE(sim.cancel(victim));
  EXPECT_EQ(sim.events_cancelled_wheel(), 0u);
  EXPECT_EQ(sim.pending(), 2u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_FALSE(sim.cancel(victim));
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(EventCoreCancel, DoubleCancelAndSpentHandlesAreNoops) {
  Simulator sim;
  int fired = 0;
  TimerHandle h = sim.schedule_in(SimTime::milliseconds(1), [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(h));  // already cancelled
  TimerHandle spent = sim.schedule_in(SimTime::milliseconds(1), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.cancel(spent));  // already fired
  EXPECT_FALSE(sim.cancel(TimerHandle{}));  // default handle
}

TEST(EventCoreCancel, StaleHandleToRecycledRecordIsSafe) {
  Simulator sim;
  int fired = 0;
  TimerHandle h = sim.schedule_at(SimTime::nanoseconds(1), [&] { ++fired; });
  sim.run();  // fires; the record returns to the pool
  // Recycle the record into many fresh events; the stale handle must not
  // cancel any of them (generation mismatch).
  for (int i = 0; i < 64; ++i) {
    sim.schedule_in(SimTime::nanoseconds(1), [&] { ++fired; });
  }
  EXPECT_FALSE(sim.cancel(h));
  sim.run();
  EXPECT_EQ(fired, 65);
}

TEST(EventCoreCancel, CancelFromWithinARunningEvent) {
  Simulator sim;
  int fired = 0;
  TimerHandle victim =
      sim.schedule_at(SimTime::milliseconds(2), [&] { ++fired; });
  sim.schedule_at(SimTime::milliseconds(1), [&] {
    EXPECT_TRUE(sim.cancel(victim));
  });
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.events_processed(), 1u);
}

TEST(EventCoreCancel, RandomCancellationStress) {
  Rng rng(7);
  Simulator sim;
  int fired = 0;
  std::vector<TimerHandle> handles;
  constexpr int kEvents = 20'000;
  for (int i = 0; i < kEvents; ++i) {
    const auto at = SimTime::nanoseconds(
        static_cast<std::int64_t>(rng.uniform_u64(3'000'000'000ull)));
    handles.push_back(sim.schedule_at(at, [&] { ++fired; }));
  }
  int cancelled = 0;
  for (std::size_t i = 0; i < handles.size(); i += 2) {
    if (sim.cancel(handles[i])) ++cancelled;
  }
  EXPECT_EQ(cancelled, kEvents / 2);
  sim.run();
  EXPECT_EQ(fired, kEvents - cancelled);
  EXPECT_EQ(sim.pending(), 0u);
}

// ---------------------------------------------------------------------------
// Scheduling during execution and misc invariants.
// ---------------------------------------------------------------------------

TEST(EventCoreExec, EventsScheduledAtNowFireInTheSameRun) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.schedule_at(sim.now(), recurse);
  };
  sim.schedule_at(SimTime::seconds(1), recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), SimTime::seconds(1));
}

TEST(EventCoreExec, PoolRecyclingKeepsHighChurnBounded) {
  // Far more events than one pool chunk, scheduled in rolling waves so live
  // count stays small: the pool must recycle rather than grow per event.
  Simulator sim;
  std::uint64_t fired = 0;
  std::function<void()> wave = [&] {
    ++fired;
    if (fired < 200'000) {
      sim.schedule_in(SimTime::microseconds(10), wave);
    }
  };
  for (int i = 0; i < 8; ++i) sim.schedule_in(SimTime::microseconds(i), wave);
  sim.run();
  EXPECT_EQ(fired, 200'007u);  // 8 seeds, the last seven stop past the cap
}

TEST(EventCoreExec, SchedulingIntoThePastThrows) {
  Simulator sim;
  sim.schedule_at(SimTime::seconds(1), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(SimTime::zero(), [] {}), std::logic_error);
}

// The hot path must not allocate: the link layer's segment-delivery closure
// (Link* + tcp::Segment) and the agents' solve-completion closures have to
// fit the inline action buffer.
TEST(EventCoreSizing, HotPathClosuresFitInline) {
  EXPECT_LE(sizeof(void*) + sizeof(tcp::Segment), detail::kInlineActionBytes);
  EXPECT_GE(detail::kInlineActionBytes, 160u);
}

}  // namespace
}  // namespace tcpz::net
