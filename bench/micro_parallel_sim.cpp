// micro: sharded engine scaling — the perf artifact for src/par/.
//
// Three sections:
//  1. Scaling curve: a mega_botnet-class workload (multi-server, thousands
//     of bots, a large discrete-client population) run at 1/2/4/8 shards;
//     reports wall time, events/s and speedup per shard count. The >= 3x
//     speedup floor at 8 shards is enforced when the machine actually has
//     >= 8 hardware threads (CI Release runners); on smaller hosts the
//     curve is still measured and recorded, and the floor degrades to a
//     4-shard check or a labelled skip — a perf floor on a 1-core box is
//     noise, not signal.
//  2. Determinism: a fixed (seed, shards) pair must reproduce the same
//     result digest and event count across repeats.
//  3. False-sharing microbench: per-thread counters packed 8-to-a-line vs
//     alignas(64)-padded, measuring the cache-line ping-pong delta that
//     motivates the padding discipline in src/par/ (Mailbox, SpinBarrier,
//     ShardSlot). Needs >= 2 hardware threads to manifest.
//
// --smoke runs a seconds-scale subset (shards {1,2}, small population, no
// perf floors) — the TSan CI job drives it to race-check the full
// bench path without paying sanitizer-slowed full runs.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "defense/spec.hpp"
#include "offense/spec.hpp"
#include "par/engine.hpp"
#include "par/mailbox.hpp"
#include "scenario/spec.hpp"

namespace {

using namespace tcpz;  // NOLINT

/// A mega_botnet-class workload: several protected servers, two bot
/// horde groups (SYN flood + connection flood), and a discrete client
/// population large enough that every shard owns thousands of agents.
/// WAN-scale link delay (5 ms) gives the conservative lookahead room to
/// breathe: rounds are duration / 5 ms, so barrier overhead stays a small
/// fraction of each round's event work.
scenario::Spec mega_workload(std::uint64_t seed, bool full, bool smoke) {
  scenario::Spec s;
  s.seed = seed;
  s.net.link_delay = SimTime::milliseconds(5);
  const int dur_s = smoke ? 2 : (full ? 30 : 10);
  s.duration = SimTime::seconds(dur_s);
  s.attack_start = SimTime::milliseconds(dur_s * 200);
  s.attack_end = SimTime::milliseconds(dur_s * 800);
  s.workload.n_clients = smoke ? 200 : (full ? 100'000 : 8'000);
  s.workload.request_rate = full ? 0.2 : 1.0;
  s.workload.response_bytes = 20'000;
  s.servers.count = 4;
  s.servers.n_workers = 8192;
  s.servers.service_rate = 8800.0;
  s.servers.policies = {defense::PolicySpec::puzzles()};
  const int per_group = smoke ? 40 : 1000;
  scenario::AttackSpec syn;
  syn.name = "syn_horde";
  syn.count = per_group;
  syn.rate = 40.0;
  syn.strategy = offense::StrategySpec::syn_flood();
  scenario::AttackSpec conn;
  conn.name = "conn_horde";
  conn.count = per_group;
  conn.rate = 40.0;
  conn.strategy = offense::StrategySpec::conn_flood();
  s.attacks = {syn, conn};
  return s;
}

/// Scalar result digest for the determinism check (the parallel test suite
/// pins the full per-agent digests; here a drift in any aggregate is
/// enough to fail).
std::uint64_t result_digest(const scenario::Result& r) {
  std::uint64_t h = 14695981039346656037ull;
  const auto fold = [&h](std::uint64_t v) {
    h = (h ^ v) * 1099511628211ull;
  };
  fold(r.events_processed);
  fold(r.cluster.established_total);
  fold(r.cluster.syns_received);
  for (const auto& g : r.groups) fold(g.total_attempts());
  for (const auto& c : r.clients) fold(c.total_completions);
  return h;
}

// -- false-sharing microbench ------------------------------------------

struct PackedSlot {
  std::atomic<std::uint64_t> v{0};
};
struct alignas(64) PaddedSlot {
  std::atomic<std::uint64_t> v{0};
};

/// N threads, each hammering its own counter slot: with PackedSlot eight
/// counters share a cache line and every increment invalidates the line in
/// the other cores; with PaddedSlot each counter owns its line. Returns
/// aggregate millions of increments per second.
template <typename Slot>
double counter_mops(int n_threads, std::uint64_t iters) {
  std::vector<Slot> slots(static_cast<std::size_t>(n_threads));
  par::SpinBarrier barrier(n_threads + 1);  // workers + the timing thread
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n_threads));
  for (int t = 0; t < n_threads; ++t) {
    threads.emplace_back([&, t] {
      bool sense = false;
      barrier.arrive_and_wait(sense);
      auto& slot = slots[static_cast<std::size_t>(t)];
      for (std::uint64_t i = 0; i < iters; ++i) {
        slot.v.fetch_add(1, std::memory_order_relaxed);
      }
      barrier.arrive_and_wait(sense);
    });
  }
  bool sense = false;
  barrier.arrive_and_wait(sense);
  const auto t0 = std::chrono::steady_clock::now();
  barrier.arrive_and_wait(sense);
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (auto& th : threads) th.join();
  const double total =
      static_cast<double>(iters) * static_cast<double>(n_threads);
  return total / dt / 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::Args args = benchutil::parse(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  benchutil::header(
      "micro: parallel_sim (sharded engine scaling)",
      "conservative-lookahead sharding scales a mega_botnet-class "
      "scenario near-linearly with cores, deterministically per "
      "(seed, shards); padded per-shard state beats packed");

  const unsigned hw = std::thread::hardware_concurrency();
  benchutil::label("mode",
                   smoke ? "smoke" : (args.full ? "full" : "default"));

  // 1. Scaling curve.
  const scenario::Spec spec = mega_workload(args.seed, args.full, smoke);
  const std::vector<int> shard_counts =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
  double wall1 = 0.0;
  double established1 = 0.0;
  double speedup4 = 0.0;
  double speedup8 = 0.0;
  double established8 = 0.0;
  bool hordes_attacked = true;
  std::printf("%8s %12s %12s %10s %10s\n", "shards", "wall_s", "events",
              "Mev/s", "speedup");
  for (const int n : shard_counts) {
    const scenario::Result r = par::run(spec, {.shards = n});
    const auto events = static_cast<double>(r.events_processed);
    for (const auto& g : r.groups) {
      hordes_attacked = hordes_attacked && g.total_attempts() > 0;
    }
    if (n == 1) {
      wall1 = r.wall_seconds;
      established1 = static_cast<double>(r.cluster.established_total);
    }
    const double speedup = wall1 / r.wall_seconds;
    if (n == 4) speedup4 = speedup;
    if (n == 8) {
      speedup8 = speedup;
      established8 = static_cast<double>(r.cluster.established_total);
    }
    std::printf("%8d %12.3f %12.0f %10.2f %10.2f\n", n, r.wall_seconds,
                events, events / r.wall_seconds / 1e6, speedup);
    const std::string tag = std::to_string(n) + "shard";
    benchutil::metric(("wall_" + tag + "_s").c_str(), r.wall_seconds);
    benchutil::metric(("events_" + tag).c_str(), events);
    benchutil::metric(("speedup_" + tag).c_str(), speedup);
  }
  // A horde that never sends leaves only client traffic to scale.
  benchutil::check("every horde makes attempts at every shard count",
                   hordes_attacked);
  if (!smoke) {
    // The sharded run approximates cross-shard queueing, so aggregates are
    // statistically — not bitwise — equal to single-thread.
    benchutil::check("8-shard aggregates within 15% of single-thread",
                     established8 > 0.85 * established1 &&
                         established8 < 1.15 * established1);
    // The speedup floor needs cores to stand on. Release CI runners have
    // them; a laptop or container that doesn't gets the measured curve in
    // its report plus an explicit skip label instead of a noise FAIL.
    if (hw >= 8) {
      benchutil::check("speedup at 8 shards >= 3x", speedup8 >= 3.0);
    } else if (hw >= 4) {
      benchutil::check("speedup at 4 shards >= 1.8x", speedup4 >= 1.8);
    } else {
      benchutil::label("speedup_floor",
                       "skipped: needs >= 4 hardware threads, have " +
                           std::to_string(hw));
    }
  }

  // 2. Determinism: fixed (seed, shards) repeats bit-for-bit.
  {
    const scenario::Spec small =
        mega_workload(args.seed, /*full=*/false, /*smoke=*/true);
    const int n = smoke ? 2 : 8;
    const scenario::Result a = par::run(small, {.shards = n});
    const scenario::Result b = par::run(small, {.shards = n});
    benchutil::check(
        "fixed (seed, shards) is deterministic across repeats",
        result_digest(a) == result_digest(b) &&
            a.events_processed == b.events_processed);
  }

  // 3. False sharing: packed vs padded per-thread counters.
  {
    const int fs_threads =
        static_cast<int>(hw >= 4 ? 4 : (hw >= 2 ? hw : 2));
    const std::uint64_t iters = smoke ? 2'000'000 : 40'000'000;
    const double packed = counter_mops<PackedSlot>(fs_threads, iters);
    const double padded = counter_mops<PaddedSlot>(fs_threads, iters);
    benchutil::metric("false_sharing_packed_mops", packed);
    benchutil::metric("false_sharing_padded_mops", padded);
    benchutil::metric("false_sharing_padded_over_packed", padded / packed);
    benchutil::label("false_sharing_threads", std::to_string(fs_threads));
    if (!smoke && hw >= 2) {
      // On one core there is no cross-core line ping-pong to measure.
      benchutil::check("padded counters beat packed (false-sharing delta)",
                       padded > packed);
    } else if (hw < 2) {
      benchutil::label("false_sharing_floor",
                       "skipped: needs >= 2 hardware threads, have " +
                           std::to_string(hw));
    }
  }

  return benchutil::finish();
}
