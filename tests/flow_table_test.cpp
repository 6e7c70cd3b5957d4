// Flat flow tables (util/flat_table.hpp) and the listen queue built on one.
//
//  * FlatMap against std::unordered_map under random insert, overwrite,
//    find-absent, erase, erase_if and growth, with a well-mixed hash and
//    with one that puts every key's home in the same few slots.
//  * Backward-shift erase across the end of the slot array, on keys whose
//    home slots the test chooses.
//  * ListenQueue against a std::map ledger: find after swap-remove erase,
//    retain compaction keeping the index consistent, and the
//    next_deadline() bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "tcp/queues.hpp"
#include "util/flat_table.hpp"
#include "util/rng.hpp"

namespace tcpz {
namespace {

/// Keys collide in their low bits: only every 64th slot is anyone's home,
/// so keys pile up in long probe runs that wrap around the array end.
struct LowBitCollidingHash {
  std::uint64_t operator()(std::uint64_t k) const { return k << 6; }
};

/// The key's high byte is its home slot (keys stay below 2^31).
struct HomeHash {
  std::uint64_t operator()(std::uint64_t k) const { return k >> 8; }
};
std::uint64_t key_at(std::uint64_t home, std::uint64_t id) {
  return (home << 8) | id;
}

template <typename Hash>
void run_differential(std::uint64_t seed, std::uint64_t universe, int ops) {
  FlatMap<std::uint64_t, std::uint64_t, Hash> map;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(seed);
  const auto check_all = [&] {
    ASSERT_EQ(map.size(), ref.size());
    for (std::uint64_t k = 0; k < universe; ++k) {
      const std::uint64_t* v = map.find(k);
      const auto it = ref.find(k);
      ASSERT_EQ(v != nullptr, it != ref.end()) << "key " << k;
      if (v != nullptr) {
        ASSERT_EQ(*v, it->second) << "key " << k;
      }
    }
  };
  for (int op = 0; op < ops; ++op) {
    const std::uint64_t k = rng.uniform_u64(universe);
    switch (rng.uniform_u64(8)) {
      case 0:
      case 1:
      case 2: {  // insert or overwrite
        const std::uint64_t v = rng.next();
        map[k] = v;
        ref[k] = v;
        break;
      }
      case 3: {  // insert only if absent
        const std::uint64_t v = rng.next();
        const auto [got, added] = map.try_emplace(k, v);
        const auto [it, ref_added] = ref.try_emplace(k, v);
        ASSERT_EQ(added, ref_added);
        ASSERT_EQ(*got, it->second);
        break;
      }
      case 4:
      case 5:  // erase, often of an absent key
        ASSERT_EQ(map.erase(k), ref.erase(k) == 1);
        break;
      case 6: {  // find, present or absent
        const auto it = ref.find(k);
        ASSERT_EQ(map.contains(k), it != ref.end());
        break;
      }
      case 7:
        if (rng.uniform_u64(64) == 0) {  // rare sweep
          const std::uint64_t m = 2 + rng.uniform_u64(3);
          map.erase_if([m](std::uint64_t key, std::uint64_t v) {
            return (key + v) % m == 0;
          });
          std::erase_if(ref, [m](const auto& kv) {
            return (kv.first + kv.second) % m == 0;
          });
        }
        break;
    }
    if (op % 997 == 0) check_all();
  }
  check_all();
  // Probe runs are bounded by the 3/4 load limit.
  EXPECT_LE(map.size() * 4, map.slot_count() * 3);
  EXPECT_EQ(map.slot_count() & (map.slot_count() - 1), 0u);
}

TEST(FlatMap, MatchesUnorderedMapWithMixedHash) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    run_differential<IntHash>(seed, 3000, 40'000);
  }
}

TEST(FlatMap, MatchesUnorderedMapWhenKeysCollideInLowBits) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    run_differential<LowBitCollidingHash>(seed, 600, 20'000);
  }
}

TEST(FlatMap, GrowsAndKeepsEveryKey) {
  FlatMap<std::uint64_t, std::uint64_t, IntHash> map;
  EXPECT_EQ(map.slot_count(), 0u);  // nothing allocated before first use
  EXPECT_EQ(map.find(7), nullptr);
  EXPECT_FALSE(map.erase(7));
  for (std::uint64_t k = 0; k < 20'000; ++k) map[k] = k * 3;
  EXPECT_EQ(map.size(), 20'000u);
  EXPECT_EQ(map.slot_count(), 32'768u);
  for (std::uint64_t k = 0; k < 20'000; ++k) {
    ASSERT_NE(map.find(k), nullptr);
    EXPECT_EQ(*map.find(k), k * 3);
  }
  EXPECT_FALSE(map.contains(20'000));
}

// A 16-slot table: keys homed at 14 fill 14, 15 and wrap to 0 and 1.
// Erasing the first shifts each later key back over the array end.
TEST(FlatMap, BackwardShiftEraseAcrossTheWrapAround) {
  FlatMap<std::uint64_t, int, HomeHash> map;
  const std::uint64_t a = key_at(14, 1), b = key_at(14, 2), c = key_at(15, 3),
                      d = key_at(14, 4), e = key_at(1, 5);
  map[a] = 1;  // slot 14
  map[b] = 2;  // slot 15
  map[c] = 3;  // slot 0 (home 15)
  map[d] = 4;  // slot 1 (home 14)
  map[e] = 5;  // slot 2 (home 1)
  ASSERT_EQ(map.slot_count(), 16u);

  EXPECT_TRUE(map.erase(a));  // b -> 14, c -> 15, d -> 0, e -> 1
  EXPECT_FALSE(map.contains(a));
  EXPECT_EQ(*map.find(b), 2);
  EXPECT_EQ(*map.find(c), 3);
  EXPECT_EQ(*map.find(d), 4);
  EXPECT_EQ(*map.find(e), 5);

  EXPECT_TRUE(map.erase(c));  // d -> 15, e stays at its home
  EXPECT_EQ(*map.find(b), 2);
  EXPECT_EQ(*map.find(d), 4);
  EXPECT_EQ(*map.find(e), 5);
  EXPECT_EQ(map.size(), 3u);

  // x wraps to slot 0. A sweep that erases the run's head at slot 14 shifts
  // d back to 14 and x, already visited and kept, back to 15.
  const std::uint64_t x = key_at(14, 6);
  map[x] = 6;
  int x_asked = 0;
  map.erase_if([&](std::uint64_t k, int) {
    if (k == x) ++x_asked;
    return k == b;
  });
  EXPECT_GE(x_asked, 1);
  EXPECT_EQ(map.size(), 3u);
  EXPECT_FALSE(map.contains(b));
  EXPECT_EQ(*map.find(d), 4);
  EXPECT_EQ(*map.find(e), 5);
  EXPECT_EQ(*map.find(x), 6);
  // Re-inserting an erased key claims a slot again; no tombstone blocks it.
  map[a] = 9;
  EXPECT_EQ(*map.find(a), 9);
  EXPECT_EQ(map.size(), 4u);
}

// ---------------------------------------------------------------------------
// ListenQueue
// ---------------------------------------------------------------------------

tcp::FlowKey flow_of(std::uint32_t i) {
  return {tcp::ipv4(10, 2, 0, 1) + i % 5, static_cast<std::uint16_t>(1024 + i),
          tcp::ipv4(10, 1, 0, 1), 80};
}

tcp::HalfOpenEntry entry_of(std::uint32_t i, SimTime next_retx) {
  tcp::HalfOpenEntry e;
  e.flow = flow_of(i);
  e.client_isn = i * 7;
  e.iss = i * 13 + 1;
  e.next_retx = next_retx;
  return e;
}

struct Ledger {
  std::map<std::uint32_t, SimTime> next_retx;  // flow id -> deadline
};

void expect_matches(tcp::ListenQueue& q, const Ledger& led,
                    std::uint32_t universe) {
  ASSERT_EQ(q.size(), led.next_retx.size());
  SimTime earliest = SimTime::max();
  for (std::uint32_t i = 0; i < universe; ++i) {
    tcp::HalfOpenEntry* e = q.find(flow_of(i));
    const auto it = led.next_retx.find(i);
    ASSERT_EQ(e != nullptr, it != led.next_retx.end()) << "flow " << i;
    if (e == nullptr) continue;
    ASSERT_EQ(e->flow, flow_of(i));
    ASSERT_EQ(e->iss, i * 13 + 1);
    ASSERT_EQ(e->next_retx, it->second);
    earliest = std::min(earliest, it->second);
  }
  // The bound never exceeds a live deadline.
  EXPECT_LE(q.next_deadline(), earliest);
}

TEST(ListenQueue, FindAfterSwapRemoveErase) {
  tcp::ListenQueue q(8);
  for (std::uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(q.insert(entry_of(i, SimTime::seconds(1 + i))));
  }
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.insert(entry_of(8, SimTime::seconds(1))));  // full
  q.erase(flow_of(2));  // the last entry (7) moves into position 2
  q.erase(flow_of(0));  // and 6 into position 0
  q.erase(flow_of(2));  // absent: no-op
  EXPECT_FALSE(q.insert(entry_of(3, SimTime::seconds(1))));  // duplicate
  Ledger led;
  for (std::uint32_t i : {1u, 3u, 4u, 5u, 6u, 7u}) {
    led.next_retx[i] = SimTime::seconds(1 + i);
  }
  expect_matches(q, led, 10);
  // The moved entries can themselves be erased and found again.
  q.erase(flow_of(7));
  led.next_retx.erase(7);
  ASSERT_TRUE(q.insert(entry_of(2, SimTime::seconds(3))));
  led.next_retx[2] = SimTime::seconds(3);
  expect_matches(q, led, 10);
}

TEST(ListenQueue, RetainCompactsAndRecomputesTheDeadline) {
  tcp::ListenQueue q(64);
  Ledger led;
  for (std::uint32_t i = 0; i < 40; ++i) {
    const SimTime t = SimTime::milliseconds(100 + 37 * ((i * 11) % 40));
    ASSERT_TRUE(q.insert(entry_of(i, t)));
    led.next_retx[i] = t;
  }
  EXPECT_EQ(q.next_deadline(), SimTime::milliseconds(100));
  int visits = 0;
  q.retain([&](tcp::HalfOpenEntry& e) {
    ++visits;
    const std::uint32_t id = e.flow.rport - 1024;
    if (id % 3 == 0) return false;           // drop every third flow
    if (id % 3 == 1) e.next_retx += SimTime::seconds(5);  // push some out
    return true;
  });
  EXPECT_EQ(visits, 40);  // every entry visited exactly once
  SimTime earliest = SimTime::max();
  for (auto it = led.next_retx.begin(); it != led.next_retx.end();) {
    if (it->first % 3 == 0) {
      it = led.next_retx.erase(it);
      continue;
    }
    if (it->first % 3 == 1) it->second += SimTime::seconds(5);
    earliest = std::min(earliest, it->second);
    ++it;
  }
  expect_matches(q, led, 40);
  EXPECT_EQ(q.next_deadline(), earliest);  // exact after a sweep

  q.retain([](tcp::HalfOpenEntry&) { return false; });
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_deadline(), SimTime::max());
  EXPECT_EQ(q.find(flow_of(1)), nullptr);
}

TEST(ListenQueue, RandomOpsMatchLedger) {
  constexpr std::uint32_t kUniverse = 300;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    tcp::ListenQueue q(200);
    Ledger led;
    Rng rng(seed);
    for (int op = 0; op < 6000; ++op) {
      const auto i = static_cast<std::uint32_t>(rng.uniform_u64(kUniverse));
      switch (rng.uniform_u64(6)) {
        case 0:
        case 1:
        case 2: {
          const SimTime t = SimTime::milliseconds(
              static_cast<std::int64_t>(rng.uniform_u64(10'000)));
          const bool fits = led.next_retx.size() < 200 &&
                            !led.next_retx.contains(i);
          ASSERT_EQ(q.insert(entry_of(i, t)), fits);
          if (fits) led.next_retx[i] = t;
          break;
        }
        case 3:
        case 4:
          q.erase(flow_of(i));
          led.next_retx.erase(i);
          break;
        case 5: {
          const SimTime now = SimTime::milliseconds(
              static_cast<std::int64_t>(rng.uniform_u64(10'000)));
          q.retain([&](tcp::HalfOpenEntry& e) {
            if (e.next_retx > now) return true;
            if (e.client_isn % 2 == 0) return false;  // expire
            e.next_retx = now + SimTime::seconds(1);  // retransmit
            return true;
          });
          for (auto it = led.next_retx.begin(); it != led.next_retx.end();) {
            if (it->second <= now && (it->first * 7) % 2 == 0) {
              it = led.next_retx.erase(it);
              continue;
            }
            if (it->second <= now) it->second = now + SimTime::seconds(1);
            ++it;
          }
          break;
        }
      }
      if (op % 50 == 0) expect_matches(q, led, kUniverse);
    }
    expect_matches(q, led, kUniverse);
  }
}

}  // namespace
}  // namespace tcpz
