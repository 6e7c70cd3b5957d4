// The wire_storm workload: real sockets over loopback UDP.
//
// A wire::Host (epoll loop on its own thread) runs an always-challenge
// puzzle listener with a real Sha256PuzzleEngine at a small difficulty. The
// main thread drives a patched wire::StormClient open-loop at a fixed rate
// below saturation: the legitimate bulk load. A side thread runs a small
// open-loop client of the benchmark's own that interleaves timed patched
// handshakes (the connect-latency samples StormStats does not keep) with
// unpatched attempts that plain-ACK the challenge, the Fig. 8 attacker.
// Each repetition builds a fresh host, storm and side client.
#include <algorithm>
#include <exception>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "crypto/secret.hpp"
#include "defense/spec.hpp"
#include "probes.hpp"
#include "puzzle/engine.hpp"
#include "shim/udp_transport.hpp"
#include "tcp/connector.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "wire/host.hpp"
#include "wire/storm.hpp"

namespace perfbench {
namespace {

using namespace tcpz;

constexpr std::uint32_t kServerAddr = tcp::ipv4(10, 1, 0, 1);
constexpr puzzle::Difficulty kDifficulty{1, 6};

struct WireParams {
  double storm_rate = 10'000;  ///< legitimate storm, attempts/s
  double side_rate = 1'000;    ///< side client slots/s (half timed, half attacker)
  SimTime rep = SimTime::seconds(3);
};

/// The side client's ledger.
struct SideStats {
  SampleSet connect_ms;  ///< timed patched handshakes, SYN -> established
  std::uint64_t legit_attempts = 0;
  std::uint64_t legit_established = 0;
  std::uint64_t attacker_attempts = 0;
  double cpu_s = 0;
};

/// Open-loop side client: even slots are timed patched connects, odd slots
/// unpatched connects that answer the challenge with a plain ACK.
SideStats run_side_client(std::uint16_t host_port, const wire::Clock& clock,
                          const puzzle::PuzzleEngine& engine, double rate,
                          SimTime duration, std::uint64_t seed) {
  const double cpu0 = thread_cpu_s();
  SideStats st;
  shim::UdpTransport net(0);
  net.add_route(kServerAddr, host_port);
  struct Attempt {
    tcp::Connector conn;
    SimTime sent;
    bool legit;
  };
  std::unordered_map<std::uint16_t, Attempt> live;
  Rng rng(seed);
  std::uint16_t next_port = 40'000;

  const auto apply = [&](std::uint16_t port, tcp::ConnectorOutput out) {
    for (const auto& s : out.segments) (void)net.send(s);
    auto it = live.find(port);
    if (it == live.end()) return;
    Attempt& a = it->second;
    if (out.solve) {
      std::uint64_t ops = 0;
      const auto sol = engine.solve(*out.solve, a.conn.flow_binding(), rng, ops);
      out = a.conn.on_solved(clock.now(), sol);
      for (const auto& s : out.segments) (void)net.send(s);
    }
    if (out.established) {
      if (a.legit) {
        ++st.legit_established;
        st.connect_ms.add((clock.now() - a.sent).to_millis());
      }
      live.erase(it);
    } else if (out.failed) {
      live.erase(it);
    }
  };

  const SimTime t0 = clock.now();
  const SimTime end = t0 + duration;
  const SimTime hard_stop = end + SimTime::seconds(2);
  const SimTime tick_every = SimTime::milliseconds(10);
  SimTime next_tick = t0 + tick_every;
  std::uint64_t slot = 0;
  for (;;) {
    SimTime now = clock.now();
    if ((now >= end && live.empty()) || now >= hard_stop) break;
    while (now < end &&
           t0 + SimTime::from_seconds(static_cast<double>(slot) / rate) <= now) {
      const bool legit = slot++ % 2 == 0;
      tcp::ConnectorConfig cc;
      cc.local_addr = legit ? tcp::ipv4(10, 2, 1, 1) : tcp::ipv4(10, 3, 1, 1);
      cc.local_port = next_port;
      next_port = next_port >= 60'000 ? 40'000 : next_port + 1;
      cc.remote_addr = kServerAddr;
      cc.solve_puzzles = legit;
      cc.syn_timeout = SimTime::milliseconds(250);
      cc.max_syn_retries = 2;
      const std::uint16_t port = cc.local_port;
      live.erase(port);  // a 20k-port cycle outlives any attempt
      auto [it, ok] =
          live.emplace(port, Attempt{tcp::Connector(cc, rng.next()), now, legit});
      (legit ? st.legit_attempts : st.attacker_attempts) += 1;
      apply(port, it->second.conn.start(now));
    }
    // Block for at most 1 ms: a reply wakes us at once, so only the next
    // emission can be late, and latency is timed from the actual send.
    for (auto seg = net.recv(1); seg; seg = net.recv(0)) {
      const auto it = live.find(seg->dport);
      if (it != live.end()) {
        apply(seg->dport, it->second.conn.on_segment(clock.now(), *seg));
      }
    }
    now = clock.now();
    if (now >= next_tick) {
      std::vector<std::uint16_t> ports;
      for (const auto& [p, a] : live) ports.push_back(p);
      for (const std::uint16_t p : ports) apply(p, live.at(p).conn.on_tick(now));
      next_tick = now + tick_every;
    }
  }
  st.cpu_s = thread_cpu_s() - cpu0;
  return st;
}

struct WireRep {
  double run_s = 0;
  double host_cpu_s = 0;
  double storm_cpu_s = 0;
  wire::StormStats storm;
  SideStats side;
  tcp::ListenerCounters counters;
  wire::HostStats host;
};

/// Host construction + start() + StormClient construction: the wire
/// workload's set-up. The returned host is running.
struct Rig {
  std::unique_ptr<wire::Host> host;
  std::unique_ptr<wire::StormClient> storm;
};

Rig build_rig(const WireParams& p, std::uint64_t seed,
              const std::shared_ptr<const puzzle::PuzzleEngine>& engine,
              const crypto::SecretKey& secret) {
  auto policy = defense::PolicySpec::puzzles();
  policy.always_challenge = true;
  wire::HostConfig hc;
  hc.listener.local_addr = kServerAddr;
  hc.listener.local_port = 80;
  hc.listener.policy = policy.factory();
  hc.listener.difficulty = kDifficulty;
  hc.listener.listen_backlog = 4096;
  hc.listener.accept_backlog = 4096;
  Rig rig;
  rig.host = std::make_unique<wire::Host>(hc, secret, seed, engine);
  rig.host->start();
  wire::StormConfig sc;
  sc.server_udp_port = rig.host->bound_port();
  sc.conn_rate = p.storm_rate;
  sc.duration = p.rep;
  sc.max_inflight = 512;
  sc.strategy = offense::StrategySpec::conn_flood(/*patched=*/true);
  sc.engine = engine;
  sc.seed = seed;
  rig.storm = std::make_unique<wire::StormClient>(sc, rig.host->clock());
  return rig;
}

WireRep run_rep(const WireParams& p, std::uint64_t seed,
                const std::shared_ptr<const puzzle::PuzzleEngine>& engine,
                const crypto::SecretKey& secret) {
  WireRep r;
  Rig rig = build_rig(p, seed, engine, secret);
  wire::Host& host = *rig.host;

  const double proc0 = process_cpu_s();
  const auto t1 = Clock::now();
  std::exception_ptr side_error;
  std::thread side([&] {
    try {
      r.side = run_side_client(host.bound_port(), host.clock(), *engine,
                               p.side_rate, p.rep, seed ^ 0x5eed);
    } catch (...) {
      side_error = std::current_exception();
    }
  });
  const double storm0 = thread_cpu_s();
  try {
    r.storm = rig.storm->run();
  } catch (...) {
    side.join();
    throw;
  }
  r.storm_cpu_s = thread_cpu_s() - storm0;
  side.join();
  if (side_error) std::rethrow_exception(side_error);
  host.stop();
  host.join();
  r.run_s = seconds_since(t1);
  // Process CPU over the run minus the two client threads' own CPU clocks.
  r.host_cpu_s = process_cpu_s() - proc0 - r.storm_cpu_s - r.side.cpu_s;
  r.counters = host.counters();
  r.host = host.stats();
  return r;
}

std::uint64_t legit_attempts(const WireRep& r) {
  return r.storm.attempts + r.side.legit_attempts;
}
std::uint64_t legit_established(const WireRep& r) {
  return r.storm.established + r.side.legit_established;
}
/// Admissions that bypassed puzzle verification. On an always-challenge
/// host only an unsolved (attacker) ACK can be admitted that way.
std::uint64_t attacker_admitted(const WireRep& r) {
  return r.counters.established_total - r.counters.established_puzzle;
}

void check_reps(const std::vector<WireRep>& reps, Report& out) {
  const auto all = [&](auto pred) {
    return std::all_of(reps.begin(), reps.end(), pred);
  };
  out.check("clients: established <= attempts", all([](const WireRep& r) {
              return legit_established(r) <= legit_attempts(r);
            }));
  out.check("attackers: admitted <= attempts", all([](const WireRep& r) {
              return attacker_admitted(r) <= r.side.attacker_attempts;
            }));
  out.check("no codec rejects (decode_errors == 0)",
            all([](const WireRep& r) { return r.host.decode_errors == 0; }));
  out.check("every SYN was challenged", all([](const WireRep& r) {
              return r.counters.challenges_sent == r.counters.syns_received;
            }));
  out.check("every established storm client solved a challenge",
            all([](const WireRep& r) {
              return r.storm.solves >= r.storm.established;
            }));
  out.check("every admission was a verified puzzle solution",
            all([](const WireRep& r) {
              return attacker_admitted(r) == 0 &&
                     r.counters.solutions_valid >= r.counters.established_puzzle;
            }));
  out.check("legitimate handshakes completed", all([](const WireRep& r) {
              return r.storm.established > 0 && r.side.legit_established > 0;
            }));
}

double d(std::uint64_t v) { return static_cast<double>(v); }

void report_wire_layers(const WireParams& p, const WireRep& r, Report& out) {
  out.add("wire.rx_datagrams", d(r.host.rx_datagrams), "count");
  out.add("wire.tx_datagrams", d(r.host.tx_datagrams), "count");
  out.add("wire.wakeups", d(r.host.wakeups), "count");
  out.add("wire.datagrams_per_wakeup",
          ratio(d(r.host.rx_datagrams), d(r.host.wakeups)), "ratio");
  out.add("wire.decode_errors", d(r.host.decode_errors), "count");
  out.add("wire.storm_cpu_s", r.storm_cpu_s, "s");
  // Emission slots the storm never turned into attempts: behind schedule
  // at the end, or refused by its in-flight cap.
  const double expected_slots = p.storm_rate * p.rep.to_seconds();
  out.add("wire.generator_lag_slots",
          std::max(0.0, expected_slots - d(r.storm.slots)) +
              d(r.storm.skipped_full),
          "count");
  out.add("wire.connect_mean_ms", r.storm.connect_ms.mean(), "ms");
  out.add("wire.connect_max_ms", r.storm.connect_ms.max, "ms");
  out.add("wire.connect_p50_ms", r.side.connect_ms.quantile(0.5), "ms");
  out.add("wire.connect_p99_ms", r.side.connect_ms.quantile(0.99), "ms");
}

}  // namespace

void run_wire_storm(const Options& opt, Report& out) {
  WireParams p;
  if (opt.tiny) {
    p.storm_rate = 2000;
    p.side_rate = 200;
    p.rep = SimTime::milliseconds(300);
  }
  const auto secret = crypto::SecretKey::from_seed(opt.seed);
  puzzle::EngineConfig ecfg;
  ecfg.sol_len = 4;
  ecfg.expiry_ms = 60'000;
  const auto engine = std::make_shared<puzzle::Sha256PuzzleEngine>(secret, ecfg);

  // Set-up is tens of microseconds. Time it on its own (host up, storm
  // built, host stopped) a few times before every repetition, so the
  // samples span the same window as the runs, and report the median.
  std::vector<double> setup;
  const auto sample_setup = [&] {
    for (int i = 0; i < (opt.tiny ? 1 : 8); ++i) {
      const auto t0 = Clock::now();
      Rig rig = build_rig(p, opt.seed, engine, secret);
      setup.push_back(seconds_since(t0));
      rig.host->stop();
      rig.host->join();
    }
  };
  // Warm-up repetition, then repetitions until the budget is spent.
  (void)run_rep(p, opt.seed, engine, secret);
  std::vector<WireRep> reps;
  const auto start = Clock::now();
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  while (reps.size() < 2 || seconds_since(start) < budget) {
    sample_setup();
    reps.push_back(run_rep(p, opt.seed + reps.size(), engine, secret));
  }
  check_reps(reps, out);

  std::uint64_t attempts = 0, established = 0, atk = 0, atk_in = 0;
  std::size_t samples = 0;
  for (const WireRep& r : reps) {
    attempts += legit_attempts(r);
    established += legit_established(r);
    atk += r.side.attacker_attempts;
    atk_in += attacker_admitted(r);
    samples += r.side.connect_ms.count();
  }
  out.attempted = attempts;
  out.failed = attempts - established;
  out.label("transport", "loopback UDP");
  out.label("threads", "host loop + storm + side client");
  out.label("difficulty", "k=1,m=6");
  out.label("reps", std::to_string(reps.size()));
  out.label("side_connect_samples", std::to_string(samples));

  const auto med = [&](auto f) {
    std::vector<double> v;
    for (const WireRep& r : reps) v.push_back(f(r));
    return median(std::move(v));
  };
  if (!opt.trace) {
    out.add("setup_s", median(setup), "s");
    out.add("run_s", med([](const WireRep& r) { return r.run_s; }), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("client_success_frac", ratio(d(established), d(attempts)), "ratio");
    out.add("attacker_block_frac", 1.0 - ratio(d(atk_in), d(atk)), "ratio");
    out.add("handshakes_per_s",
            med([](const WireRep& r) { return r.storm.established_per_s(); }),
            "1/s");
    out.add("host_cpu_us_per_handshake", med([](const WireRep& r) {
              return r.host_cpu_s * 1e6 / d(legit_established(r));
            }),
            "us");
    out.aux("connect_p50_ms",
            med([](const WireRep& r) { return r.side.connect_ms.quantile(0.5); }),
            "ms", "wall clock, side client; not gated (scheduler tails)");
    out.aux("connect_p99_ms",
            med([](const WireRep& r) { return r.side.connect_ms.quantile(0.99); }),
            "ms", "wall clock, side client; not gated (scheduler tails)");
    return;
  }

  // Traced pass: wire counters of the median-time repetition, plus probes
  // of the host's layers at the wire listener's shape.
  std::vector<WireRep> by_time = reps;
  std::sort(by_time.begin(), by_time.end(),
            [](const WireRep& a, const WireRep& b) { return a.run_s < b.run_s; });
  const WireRep& r = by_time[by_time.size() / 2];
  const auto& c = r.counters;
  ProbeShape shape;
  shape.policy = defense::PolicySpec::puzzles();
  shape.policy.always_challenge = true;
  shape.sol_len = 4;
  shape.difficulty = kDifficulty;
  shape.oracle = false;
  const ProbeCosts costs = run_probes(shape);
  report_probe_costs(costs, out);

  SimCounts n;
  n.syns = c.syns_received;
  n.acks = c.acks_received;
  n.challenges = c.challenges_sent;
  n.solution_acks = c.solution_acks;
  n.listener_ticks = r.host.ticks;
  const double host_ns = r.host_cpu_s * 1e9;
  const double codec_ns = d(r.host.rx_datagrams) * costs.decode_ns +
                          d(r.host.tx_datagrams) * costs.encode_ns;
  out.add("net.events", 0, "count");
  out.add("net.share", 0, "ratio");
  out.add("crypto.share", listener_crypto_ns(costs, n) / host_ns, "ratio");
  out.add("tcp.share", (tcp_ns(costs, n) + codec_ns) / host_ns, "ratio");

  out.add("puzzle.challenges", d(c.challenges_sent), "count");
  out.add("puzzle.solution_acks", d(c.solution_acks), "count");
  out.add("puzzle.verify_valid_frac",
          ratio(d(c.solutions_valid), d(c.solution_acks)), "ratio");
  out.add("tcp.syns", d(c.syns_received), "count");
  out.add("tcp.acks", d(c.acks_received), "count");
  out.add("tcp.synack_retx", d(c.synack_retx), "count");
  out.add("tcp.half_open_expired", d(c.half_open_expired), "count");
  out.add("tcp.queue_drops", d(c.drops_queue_overflow), "count");
  // The host exposes no queue-depth series; its listener is stateless here.
  out.add("tcp.listen_depth_max", 0, "count");
  out.add("tcp.accept_depth_max", 0, "count");
  out.add("defense.challenge_frac",
          ratio(d(c.challenges_sent), d(c.syns_received)), "ratio");
  out.add("defense.cookie_frac", ratio(d(c.cookies_sent), d(c.syns_received)),
          "ratio");
  out.add("sim.client_attempts", d(legit_attempts(r)), "count");
  out.add("sim.client_refusals", d(r.storm.solves_abandoned), "count");
  out.add("sim.client_failures", d(r.storm.timeouts + r.storm.resets), "count");
  out.add("sim.bot_attempts", d(r.side.attacker_attempts), "count");
  out.add("sim.bot_established", d(attacker_admitted(r)), "count");
  out.add("sim.connect_samples", d(r.side.connect_ms.count()), "count");
  out.add("sim.connect_p50_ms", 0, "ms");
  out.add("sim.connect_p99_ms", 0, "ms");
  out.add("workload.fluid_users", 0, "count");
  out.add("workload.fluid_established_frac", 0, "ratio");
  out.add("fleet.lb_packets", 0, "count");
  out.add("fleet.lb_imbalance", 0, "ratio");
  out.add("fleet.no_backend_drops", 0, "count");
  out.add("par.run_s_2shards", 0, "s");
  out.add("par.speedup_2shards", 0, "ratio");
  for (const char* name : {"scenario.construct_s", "scenario.pre_attack_s",
                           "scenario.attack_s", "scenario.post_attack_s",
                           "scenario.collect_s"}) {
    out.add(name, 0, "s");
  }
  // The repetitions carry no spans, so tracing adds nothing here.
  out.add("trace.overhead_frac", 0, "ratio");
  report_wire_layers(p, r, out);
}

}  // namespace perfbench
