// Allocation guard for the zero-allocation packet path.
//
// The claim under test: a Segment — including one carrying a challenge or a
// solution option — is trivially copyable, so copying it (into a
// link-delivery closure, through the simulator, out of decode) performs
// ZERO heap allocations; and the inline option buffers reject oversized
// payloads at construction, not at wire-encode time.
//
// Every operator new in this test binary is counted; scopes assert on the
// counter delta. gtest's own bookkeeping allocates between tests, which is
// why the assertions bracket exactly the statements under test.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "net/link.hpp"
#include "net/node.hpp"
#include "net/simulator.hpp"
#include "net/topology.hpp"
#include "obs/trace.hpp"
#include "puzzle/types.hpp"
#include "tcp/options.hpp"
#include "tcp/queues.hpp"
#include "tcp/segment.hpp"
#include "tcp/wire_format.hpp"
#include "util/timeseries.hpp"

#include "util/alloc_counter.hpp"

namespace tcpz {
namespace {

tcp::Segment challenge_segment() {
  tcp::Segment s;
  s.saddr = tcp::ipv4(10, 1, 0, 1);
  s.daddr = tcp::ipv4(10, 2, 0, 1);
  s.sport = 80;
  s.dport = 40000;
  s.seq = 7;
  s.ack = 12346;
  s.flags = tcp::kSyn | tcp::kAck;
  s.options.mss = 1460;
  s.options.wscale = 7;
  tcp::ChallengeOption c;
  c.k = 2;
  c.m = 17;
  c.sol_len = 8;
  c.embedded_ts = 1000;
  c.preimage = {1, 2, 3, 4, 5, 6, 7, 8};
  s.options.challenge = c;
  return s;
}

tcp::Segment solution_segment() {
  tcp::Segment s;
  s.saddr = tcp::ipv4(10, 1, 0, 1);
  s.daddr = tcp::ipv4(10, 2, 0, 1);  // same destination host as the challenge
  s.sport = 40000;
  s.dport = 80;
  s.seq = 12346;
  s.ack = 8;
  s.flags = tcp::kAck;
  tcp::SolutionOption sol;
  sol.mss = 1460;
  sol.wscale = 7;
  sol.embedded_ts = 1000;
  sol.solutions = InlineBytes<tcp::kMaxSolutionBytes>(16, 0xcd);
  s.options.solution = sol;
  return s;
}

/// Round-trips a segment through the real wire codec (the encode/decode
/// itself builds heap wire images — that is allowed and expected; only the
/// segment COPY path must be allocation-free) and returns the decoded form.
tcp::Segment wire_round_trip(const tcp::Segment& s) {
  const Bytes wire = tcp::encode_segment(s);
  const tcp::WireDecodeResult r = tcp::decode_segment(wire);
  EXPECT_TRUE(r.segment.has_value());
  EXPECT_FALSE(r.error.has_value());
  return *r.segment;
}

TEST(AllocGuard, SegmentCopiesAreZeroAlloc) {
  const tcp::Segment chal = wire_round_trip(challenge_segment());
  const tcp::Segment sol = wire_round_trip(solution_segment());
  EXPECT_EQ(chal.options, challenge_segment().options);
  EXPECT_EQ(sol.options, solution_segment().options);

  static_assert(std::is_trivially_copyable_v<tcp::Segment>);
  std::uint64_t wire_bytes = 0;  // no gtest macros inside the counted scope
  const std::uint64_t before = tcpz_alloc_count();
  for (int i = 0; i < 1000; ++i) {
    tcp::Segment a = chal;  // NOLINT(performance-unnecessary-copy)
    tcp::Segment b = sol;   // NOLINT(performance-unnecessary-copy)
    a.seq = static_cast<std::uint32_t>(i);
    b.ack = a.seq;
    // wire_size() is the per-transmit bandwidth charge; it must be
    // arithmetic, not encode-and-measure.
    wire_bytes += a.wire_size() + b.wire_size();
  }
  const std::uint64_t after = tcpz_alloc_count();
  EXPECT_EQ(after, before) << "segment copy path allocated";
  EXPECT_GT(wire_bytes, 0u);
}

TEST(AllocGuard, LinkDeliveryIsZeroAlloc) {
  net::Simulator sim;
  net::Host dst(sim, tcp::ipv4(10, 2, 0, 1));
  std::uint64_t delivered = 0;
  dst.set_handler([&delivered](SimTime, const tcp::Segment&) { ++delivered; });
  net::Link link(sim, dst, 1e9, SimTime::microseconds(500), 1 << 20);

  const tcp::Segment chal = challenge_segment();
  const tcp::Segment sol = solution_segment();

  // Warm-up: first use grows the event pool and the staging vectors; those
  // are one-time costs, not per-packet ones.
  link.transmit(chal);
  link.transmit(sol);
  sim.run();
  ASSERT_EQ(delivered, 2u);

  const std::uint64_t before = tcpz_alloc_count();
  for (int i = 0; i < 100; ++i) {
    link.transmit(chal);  // copies the segment into the delivery closure
    link.transmit(sol);
    sim.run();
  }
  const std::uint64_t after = tcpz_alloc_count();
  EXPECT_EQ(after, before) << "link delivery path allocated";
  EXPECT_EQ(delivered, 202u);
}

TEST(AllocGuard, RoutedForwardingIsZeroAlloc) {
  // host -> router -> host: the router's lookup is a directory probe and a
  // table index, neither of which may allocate.
  net::Simulator sim;
  net::Topology topo(sim);
  net::Router* r = topo.add_router();
  net::Host* src = topo.add_host(tcp::ipv4(10, 1, 0, 1));
  net::Host* dst = topo.add_host(tcp::ipv4(10, 2, 0, 1));
  topo.connect(src, r, {});
  topo.connect(dst, r, {});
  topo.compute_routes();
  std::uint64_t delivered = 0;
  dst->set_handler([&delivered](SimTime, const tcp::Segment&) { ++delivered; });

  const tcp::Segment chal = challenge_segment();
  src->send(chal);
  sim.run();
  ASSERT_EQ(delivered, 1u);

  const std::uint64_t before = tcpz_alloc_count();
  for (int i = 0; i < 100; ++i) {
    src->send(chal);
    sim.run();
  }
  EXPECT_EQ(tcpz_alloc_count(), before) << "routed forwarding allocated";
  EXPECT_EQ(delivered, 101u);
  EXPECT_EQ(r->unroutable_drops(), 0u);
}

TEST(AllocGuard, LinkDeliveryIsZeroAllocWithNoRecorderInstalled) {
  // The default state: no flight recorder. Every TCPZ_TRACE site must be a
  // not-taken branch, so the packet path allocates nothing — this is the
  // same guarantee as LinkDeliveryIsZeroAlloc, restated with the tracing
  // layer compiled in and explicitly uninstalled.
  ASSERT_EQ(obs::recorder(), nullptr);
  net::Simulator sim;
  net::Host dst(sim, tcp::ipv4(10, 2, 0, 1));
  dst.set_handler([](SimTime, const tcp::Segment&) {});
  net::Link link(sim, dst, 1e9, SimTime::microseconds(500), 1 << 20);
  const tcp::Segment chal = challenge_segment();
  link.transmit(chal);
  sim.run();

  const std::uint64_t before = tcpz_alloc_count();
  for (int i = 0; i < 100; ++i) {
    link.transmit(chal);
    sim.run();
  }
  EXPECT_EQ(tcpz_alloc_count(), before) << "untraced packet path allocated";
}

TEST(AllocGuard, LinkDeliveryIsZeroAllocWithTracingEnabled) {
  // With a recorder installed, record() is a bounds-masked store into the
  // preallocated ring — the packet path must STILL be allocation-free. The
  // ring allocation itself happens at Recorder construction, outside the
  // counted scope.
  obs::Recorder rec(1u << 10);
  obs::ScopedRecorder scoped(&rec);

  net::Simulator sim;
  net::Host dst(sim, tcp::ipv4(10, 2, 0, 1));
  dst.set_handler([](SimTime, const tcp::Segment&) {});
  net::Link link(sim, dst, 1e9, SimTime::microseconds(500), 1 << 20);
  const tcp::Segment chal = challenge_segment();
  link.transmit(chal);
  sim.run();
  ASSERT_GT(rec.total_recorded(), 0u) << "tracepoints not reaching the ring";

  const std::uint64_t before = tcpz_alloc_count();
  for (int i = 0; i < 1000; ++i) {  // enough to wrap the 1024-event ring
    link.transmit(chal);
    sim.run();
  }
  EXPECT_EQ(tcpz_alloc_count(), before) << "traced packet path allocated";
  EXPECT_GT(rec.overwritten(), 0u) << "ring wrap itself must be alloc-free";
}

// ---------------------------------------------------------------------------
// Capacity is enforced where the value is built, not when it hits the wire.
// ---------------------------------------------------------------------------

// The listener's flow tables grow as they are used and never shrink; once
// they have held a working set, cycling flows through them (SYNs in, ACKs
// admitting, the expiry sweep dropping the rest) reuses the same storage.
TEST(AllocGuard, FlowTablesAreZeroAllocOnceGrown) {
  constexpr std::uint32_t kFlows = 512;
  const auto flow = [](std::uint32_t i) {
    return tcp::FlowKey{tcp::ipv4(10, 2, 0, 1) + (i >> 12),
                        static_cast<std::uint16_t>(1024 + (i & 0xfff)),
                        tcp::ipv4(10, 1, 0, 1), 80};
  };
  tcp::ListenQueue listen(kFlows);
  tcp::AdmittedFlows admitted;
  const auto cycle = [&](std::uint32_t base) {
    for (std::uint32_t i = 0; i < kFlows; ++i) {
      tcp::HalfOpenEntry e;
      e.flow = flow(base + i);
      e.next_retx = SimTime::milliseconds(base + i);
      listen.insert(e);
    }
    for (std::uint32_t i = 0; i < kFlows; i += 2) {  // half complete
      if (listen.find(flow(base + i)) == nullptr) continue;
      listen.erase(flow(base + i));
      tcp::AdmittedFlow& a = admitted[flow(base + i)];
      a.established = true;
      ++a.queued;
    }
    listen.retain([](tcp::HalfOpenEntry&) { return false; });  // rest expire
    for (std::uint32_t i = 0; i < kFlows; i += 2) admitted.erase(flow(base + i));
  };
  cycle(0);  // grow to the working set
  const std::uint64_t before = tcpz_alloc_count();
  for (std::uint32_t round = 1; round <= 20; ++round) cycle(round * kFlows);
  const std::uint64_t after = tcpz_alloc_count();
  EXPECT_EQ(after, before) << "flow-table cycle allocated";
  EXPECT_EQ(listen.size(), 0u);
  EXPECT_TRUE(admitted.empty());
}

// A client that never solves samples a CPU gauge of exactly +0.0 every
// 250 ms for the whole run (80 samples over 20 s); those samples are only
// counted, so the whole series costs no heap storage.
TEST(AllocGuard, AllZeroGaugeIsZeroAlloc) {
  GaugeSeries g;
  const std::uint64_t before = tcpz_alloc_count();
  for (std::int64_t i = 1; i <= 80; ++i) {
    g.record(SimTime::milliseconds(250 * i), 0.0);
  }
  const std::uint64_t after = tcpz_alloc_count();
  EXPECT_EQ(after, before) << "all-zero gauge allocated";
  EXPECT_EQ(g.size(), 80u);
  EXPECT_EQ(g.back(), 0.0);
}

// A client that never solves is never called by the sample cadence; its
// gauge is padded to the 80 instants at collect, in one count bump. Padding
// in pieces (a client that rejoins pads the instants it skipped) stays
// allocation-free too while every sample is +0.0.
TEST(AllocGuard, PaddingANeverActiveGaugeIsZeroAlloc) {
  const SimTime p = SimTime::milliseconds(250);
  GaugeSeries g;
  GaugeSeries pieces;
  const std::uint64_t before = tcpz_alloc_count();
  g.record_zeros(80, p, p);
  pieces.record_zeros(30, p, p);
  pieces.record(p * 31, 0.0);
  pieces.record_zeros(49, p, p);
  const std::uint64_t after = tcpz_alloc_count();
  EXPECT_EQ(after, before) << "padding an all-zero gauge allocated";
  EXPECT_EQ(g.size(), 80u);
  EXPECT_EQ(g.time_at(79), SimTime::seconds(20));
  EXPECT_EQ(g.back(), 0.0);
  EXPECT_EQ(pieces.size(), 80u);
}

TEST(AllocGuard, InlineBuffersRejectOversizeAtConstruction) {
  // A pre-image beyond the engine bound (32 bytes) cannot be represented.
  tcp::ChallengeOption c;
  EXPECT_THROW(c.preimage = Bytes(33, 1), std::length_error);
  EXPECT_THROW((InlineBytes<tcp::kMaxPreimageBytes>(33, 1)),
               std::length_error);

  // k*l beyond the 40-byte option space cannot be represented either —
  // the throw happens at assignment, long before encode_options().
  tcp::SolutionOption s;
  EXPECT_THROW(s.solutions = Bytes(41, 1), std::length_error);
  s.solutions = Bytes(40, 1);  // exactly the bound is representable...
  s.mss = 1460;
  tcp::Options o;
  o.solution = s;
  // ...but the codec still enforces the exact wire fit on top.
  EXPECT_THROW((void)o.wire_size(), std::length_error);

  // Incremental growth hits the same wall.
  InlineBytes<tcp::kMaxSolutionBytes> buf(40, 0);
  EXPECT_THROW(buf.push_back(1), std::length_error);
  EXPECT_THROW(buf.insert(buf.end(), buf.begin(), buf.begin() + 1),
               std::length_error);

  // And the puzzle-side value vector is bounded by the same k*l <= 40.
  puzzle::Solution psol;
  for (int i = 0; i < 40; ++i) psol.values.push_back(puzzle::SolutionValue(1, 0));
  EXPECT_THROW(psol.values.push_back(puzzle::SolutionValue(1, 0)),
               std::length_error);
}

TEST(AllocGuard, DecodeRejectsOversizedDeclaredPreimage) {
  // A wire image declaring sol_len > 32 is rejected as kBadLength instead of
  // throwing out of the decoder.
  Bytes wire;
  wire.push_back(tcp::kOptChallenge);
  wire.push_back(38);  // len: 2 + 3 + 33
  wire.push_back(1);   // k
  wire.push_back(10);  // m
  wire.push_back(33);  // sol_len beyond the inline bound
  wire.insert(wire.end(), 33, 0x5a);
  tcp::Options out;
  EXPECT_EQ(tcp::decode_options(wire, out), tcp::DecodeResult::kBadLength);
}

}  // namespace
}  // namespace tcpz
