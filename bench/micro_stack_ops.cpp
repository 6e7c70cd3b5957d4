// Microbenchmarks of the non-crypto hot paths: listener SYN processing in
// each defence policy (the per-packet cost an attack packet imposes), the
// full-segment wire codec, and the discrete-event core. These bound the
// packet rates the userspace stack itself can absorb.
#include <benchmark/benchmark.h>

#include <iterator>

#include "crypto/secret.hpp"
#include "defense/spec.hpp"
#include "net/simulator.hpp"
#include "puzzle/engine.hpp"
#include "tcp/listener.hpp"
#include "tcp/wire_format.hpp"
#include "util/rng.hpp"

using namespace tcpz;

namespace {

tcp::Segment make_syn(std::uint32_t saddr, std::uint16_t sport) {
  tcp::Segment s;
  s.saddr = saddr;
  s.daddr = tcp::ipv4(10, 1, 0, 1);
  s.sport = sport;
  s.dport = 80;
  s.seq = saddr ^ sport;
  s.flags = tcp::kSyn;
  s.options.mss = 1460;
  s.options.ts = tcp::TimestampsOption{1, 0};
  return s;
}

/// The defence policies BM_ListenerSynUnderAttack sweeps, by benchmark arg.
const defense::PolicySpec kSynPolicies[] = {
    defense::PolicySpec::none(),
    defense::PolicySpec::syn_cookies(),
    defense::PolicySpec::puzzles(),
};

/// SYN processing cost per defence policy, with the queues saturated so the
/// defence path (drop / cookie / challenge) is the one measured.
void BM_ListenerSynUnderAttack(benchmark::State& state) {
  const defense::PolicySpec& policy =
      kSynPolicies[static_cast<std::size_t>(state.range(0))];
  tcp::ListenerConfig cfg;
  cfg.local_addr = tcp::ipv4(10, 1, 0, 1);
  cfg.local_port = 80;
  cfg.listen_backlog = 64;
  cfg.accept_backlog = 64;
  cfg.policy = policy.factory();
  cfg.difficulty = {2, 17};
  const auto secret = crypto::SecretKey::from_seed(1);
  auto engine = std::make_shared<puzzle::OraclePuzzleEngine>(
      secret, puzzle::EngineConfig{4, 4000});
  tcp::Listener listener(cfg, secret, 1,
                         policy.wants_engine() ? engine : nullptr);

  // Saturate the listen queue.
  SimTime now = SimTime::seconds(1);
  for (std::uint32_t i = 0; i < 64; ++i) {
    (void)listener.on_segment(now, make_syn(tcp::ipv4(10, 2, 0, 1) + i, 1000));
  }

  Rng rng(2);
  std::uint32_t n = 0;
  for (auto _ : state) {
    const auto out = listener.on_segment(
        now, make_syn(tcp::ipv4(100, 64, 0, 0) +
                          static_cast<std::uint32_t>(rng.uniform_u64(1 << 20)),
                      static_cast<std::uint16_t>(1024 + (n++ % 60'000))));
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ListenerSynUnderAttack)
    ->DenseRange(0, static_cast<int>(std::size(kSynPolicies)) - 1);

void BM_ListenerNormalHandshake(benchmark::State& state) {
  tcp::ListenerConfig cfg;
  cfg.local_addr = tcp::ipv4(10, 1, 0, 1);
  cfg.local_port = 80;
  cfg.listen_backlog = 1 << 16;
  cfg.accept_backlog = 1 << 16;
  const auto secret = crypto::SecretKey::from_seed(1);
  tcp::Listener listener(cfg, secret, 1, nullptr);

  const SimTime now = SimTime::seconds(1);
  std::uint32_t i = 0;
  for (auto _ : state) {
    const tcp::Segment syn =
        make_syn(tcp::ipv4(10, 2, 0, 0) + (i % 250), static_cast<std::uint16_t>(
                                                         1024 + (i / 250) % 60'000));
    ++i;
    const auto synacks = listener.on_segment(now, syn);
    if (!synacks.empty()) {
      tcp::Segment ack;
      ack.saddr = syn.saddr;
      ack.daddr = syn.daddr;
      ack.sport = syn.sport;
      ack.dport = syn.dport;
      ack.seq = syn.seq + 1;
      ack.ack = synacks[0].seq + 1;
      ack.flags = tcp::kAck;
      benchmark::DoNotOptimize(listener.on_segment(now, ack));
    }
    (void)listener.accept(now);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ListenerNormalHandshake);

void BM_WireEncodeDecode(benchmark::State& state) {
  tcp::Segment s = make_syn(tcp::ipv4(10, 2, 0, 1), 40'000);
  tcp::ChallengeOption c;
  c.k = 2;
  c.m = 17;
  c.sol_len = 4;
  c.preimage = {1, 2, 3, 4};
  s.options.challenge = c;
  for (auto _ : state) {
    const Bytes wire = tcp::encode_segment(s);
    benchmark::DoNotOptimize(tcp::decode_segment(wire));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WireEncodeDecode);

/// The link-delivery copy: one challenge-bearing segment copied by value
/// plus its wire-size charge, exactly what Link::transmit pays per packet.
/// With the inline option buffers this is a memcpy + arithmetic — zero heap.
void BM_SegmentCopyChallenge(benchmark::State& state) {
  tcp::Segment s = make_syn(tcp::ipv4(10, 2, 0, 1), 40'000);
  tcp::ChallengeOption c;
  c.k = 2;
  c.m = 17;
  c.sol_len = 8;
  c.embedded_ts = 1000;
  c.preimage = Bytes(8, 0x5a);
  s.options.challenge = c;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    tcp::Segment copy = s;  // NOLINT(performance-unnecessary-copy)
    benchmark::DoNotOptimize(copy);
    bytes += copy.wire_size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["wire_bytes/copy"] = benchmark::Counter(
      static_cast<double>(bytes) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_SegmentCopyChallenge);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    net::Simulator sim;
    constexpr int kEvents = 10'000;
    int fired = 0;
    for (int i = 0; i < kEvents; ++i) {
      sim.schedule_at(SimTime::microseconds(i), [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10'000);
}
BENCHMARK(BM_SimulatorEventThroughput);

}  // namespace

BENCHMARK_MAIN();
