// Half-open expiry against a reference ledger.
//
// Listener::on_tick skips its sweep while the tick is before the listen
// queue's earliest-deadline bound. These tests drive random SYN, ACK, RST,
// accept and tick streams (ticks landing exactly on a deadline, one
// nanosecond before it, and in between) into a stock listener and replay
// them on a naive ledger of flow -> (next_retx, retx_count). Every tick must
// retransmit and expire exactly the flows the ledger says are due.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "crypto/secret.hpp"
#include "tcp/listener.hpp"
#include "util/rng.hpp"

namespace tcpz::tcp {
namespace {

constexpr std::uint32_t kServerAddr = ipv4(10, 1, 0, 1);
constexpr std::uint16_t kServerPort = 80;
constexpr int kFlows = 96;

/// Flow `i` of the client pool, as the listener keys it.
FlowKey flow_of(int i) {
  return {ipv4(10, 2, 0, static_cast<unsigned>(1 + i % 3)),
          static_cast<std::uint16_t>(2000 + i), kServerAddr, kServerPort};
}

Segment from_client(const FlowKey& f, std::uint8_t flags, std::uint32_t seq,
                    std::uint32_t ack) {
  Segment s;
  s.saddr = f.raddr;
  s.sport = f.rport;
  s.daddr = f.laddr;
  s.dport = f.lport;
  s.flags = flags;
  s.seq = seq;
  s.ack = ack;
  return s;
}

/// What the listener should hold for one half-open flow.
struct Half {
  SimTime next_retx;
  int retx = 0;
  std::uint32_t iss = 0;
};

/// The reference model, keyed by flow index.
struct Ledger {
  ListenerConfig cfg;
  std::map<int, Half> half;
  std::set<int> established;
  std::size_t accept_depth = 0;
  std::uint64_t retx = 0;
  std::uint64_t expired = 0;
};

void run_stream(std::uint64_t seed) {
  SCOPED_TRACE(seed);
  Ledger led;
  led.cfg.local_addr = kServerAddr;
  led.cfg.local_port = kServerPort;
  led.cfg.listen_backlog = 48;
  led.cfg.accept_backlog = 6;
  led.cfg.synack_timeout = SimTime::milliseconds(100);
  led.cfg.max_synack_retries = 3;
  Listener lst(led.cfg, crypto::SecretKey::from_seed(seed), seed);
  Rng rng(seed);
  SimTime now = SimTime::seconds(1);

  for (int op = 0; op < 4000; ++op) {
    const double pick = rng.uniform();
    const int i = static_cast<int>(rng.uniform_u64(kFlows));
    const FlowKey f = flow_of(i);
    const auto it = led.half.find(i);
    if (pick < 0.35) {
      // SYN: a retransmit request for a half-open flow, ignored for an
      // established one, else a new entry while the backlog has room.
      const auto out = lst.on_segment(now, from_client(f, kSyn, 7u * i, 0));
      if (it != led.half.end()) {
        ++led.retx;
        ASSERT_EQ(out.size(), 1u);
      } else if (led.established.contains(i) ||
                 led.half.size() >= led.cfg.listen_backlog) {
        ASSERT_TRUE(out.empty());
      } else {
        ASSERT_EQ(out.size(), 1u);
        led.half[i] = {now + led.cfg.synack_timeout, 0, out[0].seq};
      }
    } else if (pick < 0.55) {
      // Final ACK: valid for a half-open flow; parked (entry kept) while
      // the accept queue is full.
      if (it == led.half.end()) continue;
      (void)lst.on_segment(
          now, from_client(f, kAck, 7u * i + 1, it->second.iss + 1));
      if (led.accept_depth < led.cfg.accept_backlog) {
        led.half.erase(it);
        led.established.insert(i);
        ++led.accept_depth;
      }
    } else if (pick < 0.62) {
      // RST tears down any state; the deadline bound is left stale.
      (void)lst.on_segment(now, from_client(f, kRst, 0, 0));
      led.half.erase(i);
      led.established.erase(i);
    } else if (pick < 0.72) {
      if (const auto conn = lst.accept(now)) {
        --led.accept_depth;
        lst.close(conn->flow);
        led.established.erase(conn->flow.rport - flow_of(0).rport);
      }
    } else {
      // Tick: exactly on the earliest deadline, just before it, or anywhere.
      SimTime earliest = SimTime::max();
      for (const auto& [k, h] : led.half) {
        earliest = std::min(earliest, h.next_retx);
      }
      const double how = rng.uniform();
      SimTime t = now + SimTime::milliseconds(
                            static_cast<std::int64_t>(rng.uniform_u64(150)));
      if (earliest != SimTime::max() && how < 0.4) {
        t = std::max(now, earliest);
      } else if (earliest != SimTime::max() && how < 0.6) {
        t = std::max(now, earliest - SimTime::nanoseconds(1));
      }
      now = t;

      std::set<int> want_retx;
      for (auto h = led.half.begin(); h != led.half.end();) {
        if (now < h->second.next_retx) {
          ++h;
          continue;
        }
        if (h->second.retx >= led.cfg.max_synack_retries) {
          ++led.expired;
          h = led.half.erase(h);
          continue;
        }
        ++h->second.retx;
        h->second.next_retx =
            now + led.cfg.synack_timeout * (1ll << h->second.retx);
        ++led.retx;
        want_retx.insert(h->first);
        ++h;
      }
      std::set<int> got_retx;
      for (const Segment& s : lst.on_tick(now)) {
        ASSERT_TRUE(s.is_syn_ack());
        ASSERT_TRUE(got_retx.insert(s.dport - flow_of(0).rport).second)
            << "duplicate retransmit";
      }
      ASSERT_EQ(got_retx, want_retx) << "at t=" << now.nanos();
      // Nothing the listener holds is still due: a second tick at the same
      // instant is silent.
      ASSERT_TRUE(lst.on_tick(now).empty());
    }
    ASSERT_EQ(lst.listen_depth(), led.half.size());
    ASSERT_EQ(lst.counters().synack_retx, led.retx);
    ASSERT_EQ(lst.counters().half_open_expired, led.expired);
  }
  // The stream exercised every path it is meant to.
  EXPECT_GT(led.expired, 0u);
  EXPECT_GT(led.retx, 0u);
  EXPECT_GT(lst.counters().acks_pending_accept, 0u);
}

TEST(ListenerExpiry, MatchesLedgerOnRandomStreams) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) run_stream(seed);
}

// A deadline bound left stale by erased entries costs one sweep and is then
// recomputed from the survivors: a later entry still retransmits on time.
TEST(ListenerExpiry, StaleBoundAfterEraseStillFiresLaterEntries) {
  ListenerConfig cfg;
  cfg.local_addr = kServerAddr;
  cfg.local_port = kServerPort;
  cfg.synack_timeout = SimTime::milliseconds(100);
  Listener lst(cfg, crypto::SecretKey::from_seed(5), 5);
  const SimTime t0 = SimTime::seconds(1);
  (void)lst.on_segment(t0, from_client(flow_of(0), kSyn, 1, 0));
  const SimTime t1 = t0 + SimTime::milliseconds(30);
  (void)lst.on_segment(t1, from_client(flow_of(1), kSyn, 2, 0));
  (void)lst.on_segment(t1, from_client(flow_of(0), kRst, 0, 0));
  EXPECT_EQ(lst.listen_depth(), 1u);

  // Flow 0's deadline passes with flow 0 gone: nothing to send.
  EXPECT_TRUE(lst.on_tick(t0 + SimTime::milliseconds(100)).empty());
  // One nanosecond before flow 1's deadline: still nothing.
  const SimTime due1 = t1 + SimTime::milliseconds(100);
  EXPECT_TRUE(lst.on_tick(due1 - SimTime::nanoseconds(1)).empty());
  // Exactly at it: flow 1's first retransmit.
  const auto out = lst.on_tick(due1);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].dport, flow_of(1).rport);
  EXPECT_EQ(lst.counters().synack_retx, 1u);
}

}  // namespace
}  // namespace tcpz::tcp
