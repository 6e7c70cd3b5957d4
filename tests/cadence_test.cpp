// net::Cadence: join-order sweeps, idle skipping, the (at, seq) position of
// each firing relative to plain events, the `until` bound, the firing count,
// and bit flips made from inside and outside a sweep.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/cadence.hpp"
#include "net/simulator.hpp"

namespace tcpz::net {
namespace {

using Log = std::vector<std::string>;

/// A member that appends "<name>@<ms>" to the log on every call.
Cadence::Member logger(Log& log, std::string name) {
  return [&log, name = std::move(name)](SimTime now) {
    log.push_back(name + "@" + std::to_string(now.nanos() / 1'000'000));
  };
}

TEST(Cadence, MembersFireInJoinOrder) {
  Simulator sim;
  Cadence c(sim, SimTime::milliseconds(100), SimTime::milliseconds(200));
  Log log;
  for (const char* name : {"a", "b", "c"}) c.join(logger(log, name));
  sim.run();
  EXPECT_EQ(log, (Log{"a@100", "b@100", "c@100", "a@200", "b@200", "c@200"}));
  EXPECT_EQ(sim.events_processed(), 2u);  // one event per firing
}

TEST(Cadence, IdleMembersAreSkipped) {
  Simulator sim;
  Cadence c(sim, SimTime::milliseconds(100), SimTime::milliseconds(300));
  Log log;
  const std::size_t a = c.join(logger(log, "a"));
  const std::size_t b = c.join(logger(log, "b"), /*active=*/false);
  // Members past the first bitmap word exercise the multi-word sweep.
  for (int i = 0; i < 70; ++i) {
    c.join([](SimTime) { FAIL() << "idle member called"; }, /*active=*/false);
  }
  c.join(logger(log, "z"));
  sim.schedule_at(SimTime::milliseconds(150), [&] {
    c.set_active(a, false);
    c.set_active(b, true);
  });
  sim.run();
  EXPECT_EQ(log, (Log{"a@100", "z@100", "b@200", "z@200", "b@300", "z@300"}));
}

TEST(Cadence, FiresAtTheJoiningMembersScheduleInPosition) {
  // The cadence must take the (at, seq) slot a plain schedule_in(period)
  // made at join time would take: events scheduled just before the first
  // join fire before it at the same instant, events scheduled just after
  // fire after it.
  Simulator sim;
  const SimTime p = SimTime::milliseconds(100);
  Log log;
  sim.schedule_in(p, [&] { log.push_back("before"); });
  Cadence c(sim, p, SimTime::milliseconds(100));
  c.join(logger(log, "m0"));
  sim.schedule_in(p, [&] { log.push_back("after"); });
  c.join(logger(log, "m1"));  // later joins schedule nothing
  sim.schedule_in(p, [&] { log.push_back("last"); });
  sim.run();
  EXPECT_EQ(log, (Log{"before", "m0@100", "m1@100", "after", "last"}));
}

TEST(Cadence, InactiveFirstJoinStillArmsAtItsScheduleInPosition) {
  // Members joining idle (as every client joins the sample cadence) change
  // nothing about where the firings sit: the first join arms, active or not.
  Simulator sim;
  const SimTime p = SimTime::milliseconds(100);
  Log log;
  sim.schedule_in(p, [&] { log.push_back("before"); });
  Cadence c(sim, p, SimTime::milliseconds(200));
  const std::size_t m0 = c.join(logger(log, "m0"), /*active=*/false);
  sim.schedule_in(p, [&] { log.push_back("after"); });
  c.join(logger(log, "m1"), /*active=*/false);
  sim.schedule_in(p, [&] {
    log.push_back("wake");
    c.set_active(m0, true);
  });
  sim.run();
  EXPECT_EQ(log, (Log{"before", "after", "wake", "m0@200"}));
  EXPECT_EQ(sim.events_processed(), 5u);  // 3 plain events + 2 firings
}

TEST(Cadence, CountsFiringsUpToAndPastUntil) {
  Simulator sim;
  const SimTime p = SimTime::milliseconds(100);
  // Joined at 50 ms, so the grid is 150, 250, 350, ... and until (300 ms)
  // is off it: the last firing is at 350 ms.
  Cadence c(sim, p, SimTime::milliseconds(300));
  sim.run_until(SimTime::milliseconds(50));
  std::vector<std::size_t> seen;
  c.join([&](SimTime now) {
    seen.push_back(c.fired());
    EXPECT_EQ(now, c.first_firing() +
                       p * static_cast<std::int64_t>(c.fired() - 1));
  });
  EXPECT_EQ(c.fired(), 0u);
  EXPECT_EQ(c.first_firing(), SimTime::milliseconds(150));
  sim.run_until(SimTime::milliseconds(149));
  EXPECT_EQ(c.fired(), 0u);
  sim.run_until(SimTime::milliseconds(150));
  EXPECT_EQ(c.fired(), 1u);
  sim.run_until(SimTime::milliseconds(349));
  EXPECT_EQ(c.fired(), 2u);
  sim.run();
  EXPECT_EQ(c.fired(), 3u);
  sim.run_until(SimTime::seconds(5));
  EXPECT_EQ(c.fired(), 3u);
  EXPECT_EQ(seen, (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Cadence, ReArmsAfterTheSweepLikeASelfDrivenTimer) {
  // A plain periodic timer re-arms when it fires; one scheduled before the
  // cadence's firing keeps its place ahead of the cadence at the next
  // instant, and anything a member schedules for the next instant lands
  // ahead of the cadence's re-arm.
  Simulator sim;
  const SimTime p = SimTime::milliseconds(100);
  const SimTime until = SimTime::milliseconds(300);
  Log log;
  std::function<void()> plain = [&] {
    log.push_back("plain@" + std::to_string(sim.now().nanos() / 1'000'000));
    if (sim.now() < until) sim.schedule_in(p, plain);
  };
  sim.schedule_in(p, plain);
  Cadence c(sim, p, until);
  c.join([&](SimTime now) {
    log.push_back("m@" + std::to_string(now.nanos() / 1'000'000));
    if (now == p) sim.schedule_in(p, [&] { log.push_back("member-event"); });
  });
  sim.run();
  EXPECT_EQ(log, (Log{"plain@100", "m@100", "plain@200", "member-event",
                      "m@200", "plain@300", "m@300"}));
}

TEST(Cadence, StopsAtUntil) {
  Simulator sim;
  // until off the grid: the last firing is the first instant at or after it.
  Cadence c(sim, SimTime::milliseconds(100), SimTime::milliseconds(250));
  Log log;
  c.join(logger(log, "m"));
  sim.run();
  EXPECT_EQ(log, (Log{"m@100", "m@200", "m@300"}));
  EXPECT_EQ(sim.pending(), 0u);

  // A join at or after until arms nothing.
  Simulator late;
  late.run_until(SimTime::seconds(1));
  Cadence d(late, SimTime::milliseconds(100), SimTime::seconds(1));
  d.join([](SimTime) { FAIL() << "cadence past until fired"; });
  EXPECT_EQ(late.pending(), 0u);
  late.run();
}

TEST(Cadence, MemberCanClearAndReSetItsOwnBitDuringASweep) {
  Simulator sim;
  Cadence c(sim, SimTime::milliseconds(100), SimTime::milliseconds(500));
  Log log;
  std::size_t self = 0;
  int calls = 0;
  // Goes idle on its first call, and on its second call clears then
  // re-sets its bit within the same call (an attempt finishing and a new
  // one starting in one tick).
  self = c.join([&](SimTime now) {
    ++calls;
    log.push_back("self@" + std::to_string(now.nanos() / 1'000'000));
    c.set_active(self, false);
    if (calls == 2) c.set_active(self, true);
  });
  // A later member re-activates the first one on its 300 ms call; the
  // first member is not called again within that sweep.
  c.join([&](SimTime now) {
    log.push_back("other@" + std::to_string(now.nanos() / 1'000'000));
    if (now == SimTime::milliseconds(300)) c.set_active(self, true);
  });
  sim.run();
  EXPECT_EQ(log, (Log{"self@100", "other@100", "other@200", "other@300",
                      "self@400", "other@400", "self@500", "other@500"}));
}

TEST(Cadence, SelfClearedMemberReSetFromOutsideIsCalledAtTheNextFiring) {
  // The client sample pattern: a member leaves inside its own call, and an
  // event between firings (a solve being submitted) sets it again.
  Simulator sim;
  Cadence c(sim, SimTime::milliseconds(100), SimTime::milliseconds(500));
  Log log;
  std::size_t self = 0;
  self = c.join([&](SimTime now) {
    log.push_back("self@" + std::to_string(now.nanos() / 1'000'000));
    c.set_active(self, false);
  });
  c.join(logger(log, "other"));
  for (const int ms : {150, 350}) {
    sim.schedule_at(SimTime::milliseconds(ms),
                    [&] { c.set_active(self, true); });
  }
  sim.run();
  EXPECT_EQ(log, (Log{"self@100", "other@100", "self@200", "other@200",
                      "other@300", "self@400", "other@400", "other@500"}));
}

TEST(Cadence, EarlierMemberCanWakeALaterOneWithinTheSweep) {
  Simulator sim;
  Cadence c(sim, SimTime::milliseconds(100), SimTime::milliseconds(100));
  Log log;
  std::size_t late = 0;
  c.join([&](SimTime now) {
    log.push_back("first@" + std::to_string(now.nanos() / 1'000'000));
    c.set_active(late, true);
  });
  late = c.join(logger(log, "late"), /*active=*/false);
  sim.run();
  EXPECT_EQ(log, (Log{"first@100", "late@100"}));
}

TEST(Cadence, RejectsNonPositivePeriod) {
  Simulator sim;
  EXPECT_THROW(Cadence(sim, SimTime::zero(), SimTime::seconds(1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace tcpz::net
