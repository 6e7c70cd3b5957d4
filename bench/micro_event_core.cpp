// Event-core microbenchmark: the timer-wheel core against the seed
// std::priority_queue<std::function> implementation, on identical workloads.
//
// Two claims are checked:
//  * >= 3x event throughput on a packet-like workload (concurrent event
//    chains with mixed near/medium/far deltas and segment-sized closures —
//    the seed queue pays a heap allocation per schedule AND per pop, the
//    wheel core pays none);
//  * byte-identical firing order: both cores drain the same workload in the
//    same (timestamp, sequence) order, digest-compared event by event.
//
// Self-contained (no Google Benchmark) so it always builds, and cheap enough
// in --smoke mode for the CI bench-smoke step.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <queue>

#include "bench_common.hpp"
#include "net/simulator.hpp"
#include "util/rng.hpp"

namespace {

using tcpz::Rng;
using tcpz::SimTime;

// ---------------------------------------------------------------------------
// The seed event core, verbatim: one global priority queue of
// std::function<void()> actions (net/simulator.{hpp,cpp} before the wheel).
// ---------------------------------------------------------------------------
class SeedSimulator {
 public:
  using Action = std::function<void()>;

  [[nodiscard]] SimTime now() const { return now_; }

  void schedule_at(SimTime at, Action action) {
    queue_.push(Event{at, next_seq_++, std::move(action)});
  }
  void schedule_in(SimTime delay, Action action) {
    schedule_at(now_ + delay, std::move(action));
  }

  void run() {
    while (!queue_.empty()) {
      // The seed core's hot-path copy: priority_queue::top is const, so the
      // std::function is copied out (another allocation) before pop.
      Event ev = queue_.top();
      queue_.pop();
      now_ = ev.at;
      ev.action();
    }
  }

 private:
  struct Event {
    SimTime at;
    std::uint64_t seq;
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
};

/// Stand-in for the closure payload the real hot path carries: the link
/// layer copies a tcp::Segment (152 bytes) into every delivery event.
struct SegmentSized {
  unsigned char bytes[152];
};

/// One multiply-xor round per value: cheap enough not to mask the event-core
/// cost, strong enough that any reordering of (time, chain) pairs diverges.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull;
  return (h ^ (h >> 29)) * 0xbf58476d1ce4e5b9ull;
}

/// Packet-like workload: kChains concurrent event chains; every firing
/// hashes its identity into the trace digest and schedules its successor
/// with a delta drawn from a mixed distribution (70% sub-100us "wire"
/// events, 25% millisecond "tick" events, 5% 100ms-class "timeout" events).
/// Identical across cores: chain RNG streams depend only on the seed. The
/// closure shape mirrors the real hot path — one context pointer plus a
/// segment-sized payload — so it fits the wheel core's inline buffer while
/// the seed queue's std::function must heap-allocate it.
template <typename Sim>
struct ChainWorkload {
  /// Concurrent chains = the pending-event set a fleet-scale scenario
  /// carries (100+ bots x 250 in-flight attempts, plus clients and ticks).
  static constexpr int kChains = 4096;

  Sim& sim;
  std::uint64_t n_events;
  std::vector<Rng> rngs;
  std::uint64_t fired = 0;
  std::uint64_t digest = 14695981039346656037ull;
  SegmentSized payload{};  ///< copied into every closure, like a Segment

  ChainWorkload(Sim& s, std::uint64_t seed, std::uint64_t n)
      : sim(s), n_events(n) {
    rngs.reserve(kChains);
    for (int c = 0; c < kChains; ++c) {
      rngs.emplace_back(seed ^ (0x9e37ull * static_cast<std::uint64_t>(c + 1)));
    }
    std::memset(payload.bytes, 0x5a, sizeof(payload.bytes));
  }

  void arm(int c) {
    Rng& rng = rngs[static_cast<std::size_t>(c)];
    const std::uint64_t roll = rng.uniform_u64(100);
    std::int64_t delta_ns;
    if (roll < 70) {
      // Wire events: serialization + the scenario's 500us link delay.
      delta_ns = 100'000 + static_cast<std::int64_t>(rng.uniform_u64(1'900'000));
    } else if (roll < 95) {
      // Tick-class events (agent ticks, solve completions).
      delta_ns =
          2'000'000 + static_cast<std::int64_t>(rng.uniform_u64(18'000'000));
    } else {
      // Timeout-class events (retransmits, sweeps).
      delta_ns = 100'000'000 +
                 static_cast<std::int64_t>(rng.uniform_u64(200'000'000));
    }
    ChainWorkload* self = this;
    sim.schedule_in(SimTime::nanoseconds(delta_ns),
                    [self, c, payload = payload] {
      self->digest = mix(self->digest,
                         static_cast<std::uint64_t>(self->sim.now().nanos()) ^
                             (static_cast<std::uint64_t>(c) << 48) ^
                             payload.bytes[0]);
      if (++self->fired < self->n_events) self->arm(c);
    });
  }

  /// Returns wall seconds for draining the full workload.
  double run() {
    for (int c = 0; c < kChains; ++c) arm(c);
    const auto start = std::chrono::steady_clock::now();
    sim.run();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  }
};

template <typename Sim>
double run_chain_workload(std::uint64_t seed, std::uint64_t n_events,
                          std::uint64_t& digest_out) {
  Sim sim;
  ChainWorkload<Sim> workload(sim, seed, n_events);
  const double secs = workload.run();
  digest_out = workload.digest;
  return secs;
}

// ---------------------------------------------------------------------------
// Retransmit pattern: every data event also maintains a 500 ms timeout that
// is descheduled ~milliseconds later when the next "ACK" arrives — the
// canonical TCP-stack timer pattern (SYN-ACK retransmits, attempt timeouts,
// solve-completion guards). The wheel core cancels in O(1) and the record
// recycles immediately; the seed queue cannot cancel, so every abandoned
// timeout lives in the priority queue as an epoch-guarded tombstone until
// its deadline — tens of thousands of dead entries deep — exactly what the
// seed agents' token-guarded events did.
// ---------------------------------------------------------------------------
template <typename Sim>
struct RetxWorkload {
  static constexpr int kChains = 4096;
  static constexpr bool kCancellable =
      std::is_same_v<Sim, tcpz::net::Simulator>;
  static constexpr std::int64_t kTimeoutNs = 500'000'000;

  Sim& sim;
  std::uint64_t n_events;
  std::vector<Rng> rngs;
  std::vector<tcpz::net::TimerHandle> timeouts;  // wheel core
  std::vector<std::uint64_t> epochs;             // seed queue tombstone guard
  std::uint64_t fired = 0;
  std::uint64_t digest = 14695981039346656037ull;

  RetxWorkload(Sim& s, std::uint64_t seed, std::uint64_t n)
      : sim(s), n_events(n), timeouts(kChains), epochs(kChains, 0) {
    rngs.reserve(kChains);
    for (int c = 0; c < kChains; ++c) {
      rngs.emplace_back(seed ^ (0x51edull * static_cast<std::uint64_t>(c + 1)));
    }
  }

  void on_timeout(int c) {
    digest = mix(digest, static_cast<std::uint64_t>(sim.now().nanos()) ^
                             (static_cast<std::uint64_t>(c) << 40) ^ 0x70ull);
  }

  void arm(int c) {
    RetxWorkload* self = this;
    // The previous timeout is descheduled: O(1) cancel on the wheel core, a
    // live epoch-guarded tombstone on the seed queue.
    if constexpr (kCancellable) {
      (void)sim.cancel(timeouts[static_cast<std::size_t>(c)]);
      timeouts[static_cast<std::size_t>(c)] = sim.schedule_in(
          SimTime::nanoseconds(kTimeoutNs), [self, c] { self->on_timeout(c); });
    } else {
      const std::uint64_t e = ++epochs[static_cast<std::size_t>(c)];
      sim.schedule_in(SimTime::nanoseconds(kTimeoutNs), [self, c, e] {
        if (e == self->epochs[static_cast<std::size_t>(c)]) self->on_timeout(c);
      });
    }
    // Data deltas: the same wire/tick/timeout mix as the chain workload,
    // always shorter than kTimeoutNs so a live chain never times out.
    Rng& rng = rngs[static_cast<std::size_t>(c)];
    const std::uint64_t roll = rng.uniform_u64(100);
    std::int64_t delta_ns;
    if (roll < 70) {
      delta_ns = 100'000 + static_cast<std::int64_t>(rng.uniform_u64(1'900'000));
    } else if (roll < 95) {
      delta_ns =
          2'000'000 + static_cast<std::int64_t>(rng.uniform_u64(18'000'000));
    } else {
      delta_ns = 100'000'000 +
                 static_cast<std::int64_t>(rng.uniform_u64(200'000'000));
    }
    sim.schedule_in(SimTime::nanoseconds(delta_ns), [self, c] {
      self->digest =
          mix(self->digest, static_cast<std::uint64_t>(self->sim.now().nanos()) ^
                                (static_cast<std::uint64_t>(c) << 48));
      if (++self->fired < self->n_events) self->arm(c);
    });
  }

  double run() {
    for (int c = 0; c < kChains; ++c) arm(c);
    const auto start = std::chrono::steady_clock::now();
    sim.run();  // drains end-of-run timeouts identically on both cores
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  }
};

template <typename Sim>
double run_retx_workload(std::uint64_t seed, std::uint64_t n_events,
                         std::uint64_t& digest_out) {
  Sim sim;
  RetxWorkload<Sim> workload(sim, seed, n_events);
  const double secs = workload.run();
  digest_out = workload.digest;
  return secs;
}

/// Deschedule workload (wheel core only): every event gets a shadow timer
/// that is cancelled before it could fire — the retransmit/expiry pattern.
/// The seed queue cannot express this; it fires tombstones instead.
/// `wheel_fraction_out` reports how many cancels actually took the O(1)
/// wheel-unlink path this bench claims to measure: a cursor left behind the
/// clock would silently degrade later batches to the lazy overflow-heap
/// cancel. The simulator moves the cursor to the clock after every run, and
/// this fraction pins it.
double run_cancel_workload(std::uint64_t n_events, double& wheel_fraction_out) {
  tcpz::net::Simulator sim;
  Rng rng(7);
  std::uint64_t fired = 0;
  const auto start = std::chrono::steady_clock::now();
  constexpr std::uint64_t kBatch = 4096;
  std::vector<tcpz::net::TimerHandle> handles;
  handles.reserve(kBatch);
  for (std::uint64_t done = 0; done < n_events; done += kBatch) {
    handles.clear();
    for (std::uint64_t i = 0; i < kBatch; ++i) {
      handles.push_back(sim.schedule_in(
          SimTime::microseconds(
              100 + static_cast<std::int64_t>(rng.uniform_u64(100'000))),
          [&fired] { ++fired; }));
    }
    for (auto& h : handles) (void)sim.cancel(h);
    sim.run();  // nothing left to fire; moves the cursor to the clock
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (fired != 0) std::printf("BUG: %llu cancelled timers fired\n",
                              static_cast<unsigned long long>(fired));
  wheel_fraction_out = sim.events_cancelled() == 0
                           ? 0.0
                           : static_cast<double>(sim.events_cancelled_wheel()) /
                                 static_cast<double>(sim.events_cancelled());
  return secs;
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// Median wall time of three passes of `run(seed, n, digest)`, so a single
/// slow pass cannot decide a speedup check. Every pass is deterministic and
/// leaves the same digest in `digest_out`.
template <typename Run>
double median_of_3(Run run, std::uint64_t seed, std::uint64_t n_events,
                   std::uint64_t& digest_out) {
  std::array<double, 3> secs{};
  for (double& s : secs) s = run(seed, n_events, digest_out);
  std::sort(secs.begin(), secs.end());
  return secs[1];
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::Args args = benchutil::parse(argc, argv);
  const bool smoke = has_flag(argc, argv, "--smoke");
  const std::uint64_t n_events = smoke ? 100'000 : 2'000'000;

  benchutil::header(
      "micro: event core (timer wheel vs seed priority queue)",
      "pooled wheel+heap core beats the seed queue >= 2x on pure packet "
      "chains and >= 3x on the TCP retransmit/deschedule pattern, with an "
      "identical firing order on both");

  // Warm-up pass (page in the pool, stabilize the allocator), then the
  // median of three passes per core.
  std::uint64_t digest_wheel = 0, digest_seed = 0;
  {
    std::uint64_t d;
    (void)run_chain_workload<tcpz::net::Simulator>(args.seed, n_events / 10,
                                                   d);
  }
  const double wheel_secs =
      median_of_3(run_chain_workload<tcpz::net::Simulator>, args.seed,
                  n_events, digest_wheel);
  const double seed_secs = median_of_3(run_chain_workload<SeedSimulator>,
                                       args.seed, n_events, digest_seed);
  const double chain_wheel_eps = static_cast<double>(n_events) / wheel_secs;
  const double chain_seed_eps = static_cast<double>(n_events) / seed_secs;
  const bool chain_digests_match = digest_wheel == digest_seed;

  std::uint64_t retx_digest_wheel = 0, retx_digest_seed = 0;
  const std::uint64_t n_retx = n_events / 2;  // each data event adds a timer
  const double retx_wheel_secs =
      median_of_3(run_retx_workload<tcpz::net::Simulator>, args.seed, n_retx,
                  retx_digest_wheel);
  const double retx_seed_secs = median_of_3(run_retx_workload<SeedSimulator>,
                                            args.seed, n_retx,
                                            retx_digest_seed);
  const double retx_wheel_eps = static_cast<double>(n_retx) / retx_wheel_secs;
  const double retx_seed_eps = static_cast<double>(n_retx) / retx_seed_secs;

  benchutil::metric("chain_events", static_cast<double>(n_events));
  benchutil::metric("chain_wheel_events_per_sec", chain_wheel_eps);
  benchutil::metric("chain_seed_queue_events_per_sec", chain_seed_eps);
  benchutil::metric("chain_speedup", chain_wheel_eps / chain_seed_eps);
  benchutil::metric("retx_data_events", static_cast<double>(n_retx));
  benchutil::metric("retx_wheel_events_per_sec", retx_wheel_eps);
  benchutil::metric("retx_seed_queue_events_per_sec", retx_seed_eps);
  benchutil::metric("retx_speedup", retx_wheel_eps / retx_seed_eps);

  double cancel_wheel_fraction = 0.0;
  const double cancel_secs =
      run_cancel_workload(smoke ? 50'000 : 500'000, cancel_wheel_fraction);
  benchutil::metric("cancel_ops_per_sec",
                    static_cast<double>(smoke ? 50'000 : 500'000) * 2 /
                        cancel_secs);  // schedule + cancel per op
  benchutil::metric("cancel_wheel_unlink_fraction", cancel_wheel_fraction);

  benchutil::check("identical firing order on packet chains",
                   chain_digests_match);
  benchutil::check("cancel workload measures the O(1) wheel unlink",
                   cancel_wheel_fraction >= 0.99);
  benchutil::check("identical firing order on the retransmit pattern",
                   retx_digest_wheel == retx_digest_seed);
  benchutil::check("wheel >= 2x seed queue on pure packet chains",
                   chain_wheel_eps >= 2.0 * chain_seed_eps);
  benchutil::check(
      "wheel >= 3x seed queue on the retransmit/deschedule pattern",
      retx_wheel_eps >= 3.0 * retx_seed_eps);
  benchutil::check("throughput >= 1M events/sec",
                   chain_wheel_eps >= 1e6 && retx_wheel_eps >= 1e6);
  return benchutil::finish();
}
