// The observability layer's own contract tests: flight-recorder ring
// mechanics (wrap, overflow accounting, category masking), trace
// determinism (same seed => same trace digest; tracing on/off => identical
// scenario results), the per-flow lifecycle reconstructor, the Chrome
// trace_event exporter's shape, and the metrics registry (X-macro field
// registration, fleet-style merge semantics).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "offense/spec.hpp"
#include "scenario/spec.hpp"
#include "trace_digest.hpp"

namespace tcpz {
namespace {

// ---------------------------------------------------------------------------
// Recorder ring mechanics
// ---------------------------------------------------------------------------

TEST(ObsRecorder, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(obs::Recorder(1).capacity(), 64u);
  EXPECT_EQ(obs::Recorder(64).capacity(), 64u);
  EXPECT_EQ(obs::Recorder(65).capacity(), 128u);
  EXPECT_EQ(obs::Recorder(100).capacity(), 128u);
  EXPECT_EQ(obs::Recorder(1u << 16).capacity(), 1u << 16);
}

TEST(ObsRecorder, WrapKeepsNewestAndAccountsOverwritten) {
  obs::Recorder rec(64);
  const std::uint64_t n = 200;
  for (std::uint64_t i = 0; i < n; ++i) {
    rec.record(SimTime::nanoseconds(static_cast<std::int64_t>(i)),
               obs::Code::kFire, /*track=*/0, /*a0=*/i);
  }
  EXPECT_EQ(rec.total_recorded(), n);
  EXPECT_EQ(rec.size(), 64u);
  EXPECT_EQ(rec.overwritten(), n - 64);
  EXPECT_EQ(rec.suppressed(), 0u);

  // for_each walks oldest -> newest: exactly the last 64 events, in order.
  std::uint64_t expect = n - 64;
  rec.for_each([&](const obs::TraceEvent& ev) {
    EXPECT_EQ(ev.a0, expect);
    EXPECT_EQ(ev.t, static_cast<std::int64_t>(expect));
    ++expect;
  });
  EXPECT_EQ(expect, n);
  EXPECT_EQ(rec.snapshot().size(), 64u);
  EXPECT_EQ(rec.snapshot().front().a0, n - 64);
  EXPECT_EQ(rec.snapshot().back().a0, n - 1);

  rec.clear();
  EXPECT_EQ(rec.total_recorded(), 0u);
  EXPECT_EQ(rec.size(), 0u);
}

TEST(ObsRecorder, CategoryMaskSuppressesAndCounts) {
  obs::Recorder rec(64, obs::cat_bit(obs::Cat::kListener));
  EXPECT_TRUE(rec.wants(obs::Cat::kListener));
  EXPECT_FALSE(rec.wants(obs::Cat::kEvent));

  rec.record(SimTime::zero(), obs::Code::kSynEnqueue, 1);   // listener: kept
  rec.record(SimTime::zero(), obs::Code::kFire, 0);         // event: masked
  rec.record(SimTime::zero(), obs::Code::kLinkTx, 0);       // link: masked
  rec.record(SimTime::zero(), obs::Code::kEstablished, 1);  // listener: kept

  EXPECT_EQ(rec.total_recorded(), 2u);
  EXPECT_EQ(rec.suppressed(), 2u);
  rec.for_each([](const obs::TraceEvent& ev) {
    EXPECT_EQ(static_cast<obs::Cat>(ev.cat), obs::Cat::kListener);
  });
}

TEST(ObsRecorder, EveryCodeMapsIntoItsCategoryBlock) {
  // The range-based cat_of must agree with the enum's block layout for the
  // block boundary codes (a misplaced new code would silently land in the
  // neighbouring category and dodge its mask).
  using obs::Cat;
  using obs::Code;
  EXPECT_EQ(obs::cat_of(Code::kSynEnqueue), Cat::kListener);
  EXPECT_EQ(obs::cat_of(Code::kDataUnknownFlow), Cat::kListener);
  EXPECT_EQ(obs::cat_of(Code::kLatchEngage), Cat::kDefense);
  EXPECT_EQ(obs::cat_of(Code::kDifficultyRetune), Cat::kDefense);
  EXPECT_EQ(obs::cat_of(Code::kSlotSpoofedSyn), Cat::kOffense);
  EXPECT_EQ(obs::cat_of(Code::kOutcomeSolveRefused), Cat::kOffense);
  EXPECT_EQ(obs::cat_of(Code::kSched), Cat::kEvent);
  EXPECT_EQ(obs::cat_of(Code::kFire), Cat::kEvent);
  EXPECT_EQ(obs::cat_of(Code::kLinkTx), Cat::kLink);
  EXPECT_EQ(obs::cat_of(Code::kLinkDrop), Cat::kLink);
  EXPECT_EQ(obs::cat_of(Code::kSecretRotate), Cat::kSecret);
  EXPECT_EQ(obs::cat_of(Code::kSecretOverlapEnd), Cat::kSecret);
  EXPECT_EQ(obs::cat_of(Code::kLbPick), Cat::kLb);
  EXPECT_EQ(obs::cat_of(Code::kLbEvict), Cat::kLb);
  EXPECT_EQ(obs::cat_of(Code::kFluidOffer), Cat::kFluid);
  EXPECT_EQ(obs::cat_of(Code::kFluidDeceive), Cat::kFluid);
}

// ---------------------------------------------------------------------------
// Trace determinism on a real (short) scenario
// ---------------------------------------------------------------------------

scenario::Spec small_spec(std::uint64_t seed) {
  scenario::Spec s;
  s.seed = seed;
  s.duration = SimTime::seconds(20);
  s.attack_start = SimTime::seconds(5);
  s.attack_end = SimTime::seconds(15);
  s.workload.n_clients = 3;
  s.workload.request_rate = 10.0;
  s.workload.response_bytes = 20'000;
  scenario::AttackSpec atk;
  atk.count = 2;
  atk.rate = 200.0;
  atk.strategy = offense::StrategySpec::conn_flood();
  s.attacks = {atk};
  return s;
}

TEST(ObsTraceDeterminism, SameSeedSameTraceDigest) {
  scenario::Spec spec = small_spec(7);
  spec.obs.trace = true;
  spec.obs.ring_capacity = 1u << 15;

  const scenario::Result a = scenario::run(spec);
  const scenario::Result b = scenario::run(spec);
  ASSERT_NE(a.trace, nullptr);
  ASSERT_NE(b.trace, nullptr);
  EXPECT_GT(a.trace->total_recorded(), 1000u);
  EXPECT_EQ(a.trace->total_recorded(), b.trace->total_recorded());
  EXPECT_EQ(a.trace->digest(), b.trace->digest());

  scenario::Spec other = spec;
  other.seed = 8;
  const scenario::Result c = scenario::run(other);
  EXPECT_NE(a.trace->digest(), c.trace->digest());
}

TEST(ObsTraceDeterminism, TracingDoesNotPerturbTheRun) {
  // The recorder observes; it must never participate. The full counter
  // digest of a traced run equals the untraced run's bit-for-bit.
  const scenario::Result plain = scenario::run(small_spec(7));
  scenario::Spec traced_spec = small_spec(7);
  traced_spec.obs.trace = true;
  const scenario::Result traced = scenario::run(traced_spec);

  EXPECT_EQ(tracedigest::digest(plain.cluster),
            tracedigest::digest(traced.cluster));
  EXPECT_EQ(plain.events_processed, traced.events_processed);
  ASSERT_EQ(plain.clients.size(), traced.clients.size());
  for (std::size_t i = 0; i < plain.clients.size(); ++i) {
    EXPECT_EQ(tracedigest::digest(plain.clients[i]),
              tracedigest::digest(traced.clients[i]));
  }
}

// ---------------------------------------------------------------------------
// Per-flow lifecycle reconstruction
// ---------------------------------------------------------------------------

TEST(ObsFlows, HandBuiltLifecyclesReconstruct) {
  obs::Recorder rec(256);
  const std::uint32_t server = tcp::ipv4(10, 1, 0, 1);
  const std::uint32_t c1 = tcp::ipv4(10, 2, 0, 1);
  const std::uint32_t c2 = tcp::ipv4(10, 3, 0, 1);
  const tcp::FlowKey f1{c1, 4000, server, 80};
  const tcp::FlowKey f2{c2, 5000, server, 80};

  // Flow 1: challenged, solved, established.
  rec.record(SimTime::milliseconds(1), obs::Code::kSynChallenge, 1, f1,
             (2u << 8) | 17u);
  rec.record(SimTime::milliseconds(9), obs::Code::kSolutionValid, 1, f1);
  rec.record(SimTime::milliseconds(9), obs::Code::kEstablished, 1, f1);
  // Flow 2: dropped on listen-queue overflow. Interleaved, and its second
  // event arrives with the reverse (server-first) orientation — the
  // reconstructor must still chain it into the same flow.
  rec.record(SimTime::milliseconds(2), obs::Code::kSynDropOverflow, 1, f2);
  tcp::Segment synack;
  synack.saddr = server;
  synack.sport = 80;
  synack.daddr = c2;
  synack.dport = 5000;
  rec.record(SimTime::milliseconds(3), obs::Code::kBogusAck, 9, synack);
  // Non-flow-scoped noise must not create a flow.
  rec.record(SimTime::milliseconds(4), obs::Code::kLatchEngage, 1, 10, 2);

  const auto flows = obs::reconstruct_flows(rec);
  ASSERT_EQ(flows.size(), 2u);

  const obs::FlowLifecycle& a = flows[0];
  EXPECT_EQ(a.client_addr, c1);
  EXPECT_EQ(a.client_port, 4000);
  EXPECT_EQ(a.server_addr, server);
  EXPECT_TRUE(a.challenged());
  EXPECT_TRUE(a.established());
  EXPECT_EQ(a.outcome(), "established");
  ASSERT_EQ(a.events.size(), 3u);
  EXPECT_EQ(static_cast<obs::Code>(a.events[0].code),
            obs::Code::kSynChallenge);

  const obs::FlowLifecycle& b = flows[1];
  EXPECT_EQ(b.client_addr, c2);  // listener event oriented the tuple
  EXPECT_EQ(b.events.size(), 2u);
  EXPECT_FALSE(b.established());
  EXPECT_EQ(b.outcome(), "dropped:syn_drop_overflow");
}

TEST(ObsFlows, ScenarioFlowsTellCoherentStories) {
  scenario::Spec spec = small_spec(7);
  spec.obs.trace = true;
  spec.obs.ring_capacity = 1u << 15;
  // Keep the high-volume tiers out so decision events survive the window.
  spec.obs.categories =
      obs::kAllCategories &
      ~(obs::cat_bit(obs::Cat::kEvent) | obs::cat_bit(obs::Cat::kLink));
  const scenario::Result res = scenario::run(spec);
  ASSERT_NE(res.trace, nullptr);

  const auto flows = obs::reconstruct_flows(*res.trace);
  ASSERT_GT(flows.size(), 10u);
  std::size_t established = 0;
  for (const auto& f : flows) {
    EXPECT_FALSE(f.events.empty());
    if (f.established()) ++established;
    // Events within a flow are time-ordered (the ring is globally ordered).
    for (std::size_t i = 1; i < f.events.size(); ++i) {
      EXPECT_LE(f.events[i - 1].t, f.events[i].t);
    }
  }
  EXPECT_GT(established, 0u);
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

TEST(ObsExport, ChromeTraceHasTracksAndEvents) {
  obs::Recorder rec(64);
  rec.record(SimTime::milliseconds(5), obs::Code::kSynEnqueue, 1,
             tcp::FlowKey{tcp::ipv4(10, 2, 0, 1), 4000, tcp::ipv4(10, 1, 0, 1),
                          80},
             3);
  rec.record(SimTime::milliseconds(6), obs::Code::kFire, 0, 42);

  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  obs::write_chrome_trace(rec, {{0, "infra"}, {1, "server0"}}, f);
  std::fseek(f, 0, SEEK_END);
  std::string out(static_cast<std::size_t>(std::ftell(f)), '\0');
  std::rewind(f);
  ASSERT_EQ(std::fread(out.data(), 1, out.size(), f), out.size());
  std::fclose(f);

  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(out.find("\"server0\""), std::string::npos);
  EXPECT_NE(out.find("\"syn_enqueue\""), std::string::npos);
  EXPECT_NE(out.find("\"src\": \"10.2.0.1:4000\""), std::string::npos);
  EXPECT_NE(out.find("\"ts\": 5000.000"), std::string::npos);  // µs
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(ObsRegistry, FieldTableRegistersEveryCounter) {
  tcp::ListenerCounters c;
  c.syns_received = 100;
  c.drops_queue_overflow = 7;
  c.drops_policy = 3;

  obs::Registry reg;
  obs::register_metrics(reg, c, "server=0");
  // One metric per field in TCPZ_LISTENER_COUNTER_FIELDS, no more, no less.
  std::size_t n_fields = 0;
#define TCPZ_X(name, help) ++n_fields;
  TCPZ_LISTENER_COUNTER_FIELDS(TCPZ_X)
#undef TCPZ_X
  EXPECT_EQ(reg.size(), n_fields);
  EXPECT_EQ(reg.value("listener.syns_received{server=0}"), 100.0);
  EXPECT_EQ(reg.value("listener.drops_queue_overflow{server=0}"), 7.0);
  EXPECT_EQ(reg.value("listener.drops_policy{server=0}"), 3.0);
  EXPECT_EQ(reg.value("listener.no_such_metric{server=0}", -1.0), -1.0);
}

TEST(ObsRegistry, MergeAggregatesLikeAFleet) {
  obs::Registry a;
  a.counter("listener.syns_received", "role=server", 100);
  a.gauge("server.listen_queue", "role=server", 5);
  a.histogram("host.conn_time_ms", "", {10, 1.0, 9.0, 50.0});

  obs::Registry b;
  b.counter("listener.syns_received", "role=server", 40);
  b.gauge("server.listen_queue", "role=server", 2);
  b.histogram("host.conn_time_ms", "", {5, 0.5, 20.0, 40.0});
  b.counter("only.in.b", "", 1);

  a.merge(b);
  // Counters sum; gauges take the incoming (scrape) value; histogram stats
  // combine; unmatched metrics append.
  EXPECT_EQ(a.value("listener.syns_received{role=server}"), 140.0);
  EXPECT_EQ(a.value("server.listen_queue{role=server}"), 2.0);
  const obs::Metric* h = a.find("host.conn_time_ms");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->hist.count, 15u);
  EXPECT_EQ(h->hist.min, 0.5);
  EXPECT_EQ(h->hist.max, 20.0);
  EXPECT_DOUBLE_EQ(h->hist.sum, 90.0);
  EXPECT_EQ(a.value("only.in.b"), 1.0);

  // Same name under a different label set stays a distinct metric.
  a.counter("listener.syns_received", "role=other", 1);
  EXPECT_EQ(a.value("listener.syns_received{role=server}"), 140.0);
  EXPECT_EQ(a.value("listener.syns_received{role=other}"), 1.0);
}

TEST(ObsRegistry, JsonIsFlatAndOrdered) {
  obs::Registry reg;
  reg.counter("alpha", "", 3);
  reg.gauge("beta", "x=1", 2.5);
  reg.histogram("gamma", "", {2, 1.0, 3.0, 4.0});
  const std::string json = reg.to_json();
  // Registration order is preserved and histograms expand to stat objects.
  const auto a = json.find("\"alpha\": 3");
  const auto b = json.find("\"beta{x=1}\": 2.5");
  const auto g = json.find("\"gamma\": {\"count\": 2");
  EXPECT_NE(a, std::string::npos);
  EXPECT_NE(b, std::string::npos);
  EXPECT_NE(g, std::string::npos);
  EXPECT_LT(a, b);
  EXPECT_LT(b, g);
}

}  // namespace
}  // namespace tcpz
