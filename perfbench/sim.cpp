// The two simulated workloads, puzzle_flood and syn_exhaust, driven through
// scenario::Engine from outside the library.
//
// Untraced pass: construct + run the same seed's spec repeatedly until the
// time budget is spent; report medians of the wall-clock figures and the
// (seed-deterministic) sim-time outcomes. Traced pass: the same runs with
// spans around construction, each simulated second (grouped into the
// pre-attack / attack / post-attack phases) and collect(), alternated with
// untraced runs for the overhead ratio; then layer probes (probes.cpp) and
// one 2-shard par::run of the same spec.
#include <algorithm>
#include <cstdio>

#include "bench.hpp"
#include "par/engine.hpp"
#include "probes.hpp"
#include "scenario/engine.hpp"
#include "scenario/spec.hpp"

namespace perfbench {
namespace {

using namespace tcpz;

// --- workload specs ----------------------------------------------------------

/// mega_botnet's production-scale puzzle server under 120 patched, solving
/// conn-flood bots, 15 open-loop Poisson clients, on a short timeline.
scenario::Spec puzzle_flood_spec(std::uint64_t seed, bool tiny) {
  scenario::Spec s;
  s.seed = seed;
  s.duration = SimTime::seconds(tiny ? 6 : 20);
  s.attack_start = SimTime::seconds(tiny ? 2 : 5);
  s.attack_end = SimTime::seconds(tiny ? 5 : 17);
  s.servers.policies = {defense::PolicySpec::puzzles()};
  s.servers.n_workers = 8192;
  s.servers.service_rate = 8800.0;
  s.servers.listen_backlog = 16'384;
  s.servers.accept_backlog = 4096;
  scenario::AttackSpec atk;
  atk.count = tiny ? 12 : 120;
  atk.strategy = offense::StrategySpec::conn_flood(/*patched=*/true);
  s.attacks = {atk};
  return s;
}

/// Stock TCP on a 4-replica scale-out fleet behind the 5-tuple balancer: a
/// 1M-user hybrid population (fluid mass + discrete cohort) under a spoofed
/// SYN flood from 40 bots at 1000 slots/s each.
scenario::Spec syn_exhaust_spec(std::uint64_t seed, bool tiny) {
  scenario::Spec s;
  s.seed = seed;
  s.duration = SimTime::seconds(tiny ? 6 : 20);
  s.attack_start = SimTime::seconds(tiny ? 3 : 10);
  s.attack_end = SimTime::seconds(tiny ? 5 : 16);
  s.servers.count = 4;
  s.servers.policies = {defense::PolicySpec::none()};
  s.fleet.enabled = true;
  s.fleet.balance = fleet::BalancePolicy::kFiveTupleHash;
  s.fleet.divide_capacity = false;
  // ~3000 req/s offered against 4 x mu = 4400; the discrete cohort (2% of
  // the users) supplies the connect-time samples.
  s.workload.model = workload::ModelSpec::hybrid(1'000'000, tiny ? 1e-3 : 2e-2);
  s.workload.model->request_rate = 3e-3;
  s.workload.request_rate = 3e-3;
  scenario::AttackSpec atk;
  atk.count = tiny ? 4 : 40;
  atk.rate = 1000.0;
  atk.strategy = offense::StrategySpec::syn_flood();
  s.attacks = {atk};
  return s;
}

// --- outcomes ----------------------------------------------------------------

/// Sim-time outcomes of one run. For a fixed seed these repeat exactly.
struct Outcome {
  std::uint64_t events = 0;
  std::uint64_t client_attempts = 0;
  std::uint64_t client_established = 0;
  std::uint64_t client_completions = 0;
  std::uint64_t client_failures = 0;
  std::uint64_t client_refusals = 0;
  std::uint64_t bot_attempts = 0;
  std::uint64_t bot_established = 0;
  std::uint64_t bot_completions = 0;
  /// SYNs the simulated listeners handled: the per-handshake unit of
  /// server work, legitimate and flood alike.
  std::uint64_t handshakes = 0;
  std::size_t connect_samples = 0;
  double connect_p50_ms = 0;
  double connect_p99_ms = 0;
  double client_conn_mean_ms = 0;
  double bot_conn_mean_ms = 0;

  bool operator==(const Outcome&) const = default;
};

Outcome outcome_of(const scenario::Result& r) {
  Outcome o;
  o.events = r.events_processed;
  SampleSet conn;
  const auto add_client = [&](const sim::HostReport& h) {
    o.client_attempts += h.total_attempts;
    o.client_established += h.total_established;
    o.client_completions += h.total_completions;
    o.client_failures += h.total_failures;
    o.client_refusals += h.solves_refused;
  };
  for (const auto& c : r.clients) {
    add_client(c);
    for (const double v : c.conn_time_ms.sorted()) conn.add(v);
  }
  for (const auto& f : r.fluid) add_client(f);
  SampleSet bot_conn;
  for (const auto& g : r.groups) {
    for (const auto& b : g.bots) {
      o.bot_attempts += b.total_attempts;
      o.bot_established += b.total_established;
      o.bot_completions += b.total_completions;
      for (const double v : b.conn_time_ms.sorted()) bot_conn.add(v);
    }
  }
  o.handshakes = r.cluster.syns_received;
  o.connect_samples = conn.count();
  if (!conn.empty()) {
    o.connect_p50_ms = conn.quantile(0.5);
    o.connect_p99_ms = conn.quantile(0.99);
    o.client_conn_mean_ms = conn.mean();
  }
  if (!bot_conn.empty()) o.bot_conn_mean_ms = bot_conn.mean();
  return o;
}

// --- timed runs --------------------------------------------------------------

struct Spans {
  double construct_s = 0;
  double pre_attack_s = 0;
  double attack_s = 0;
  double post_attack_s = 0;
  double collect_s = 0;
  double run_s = 0;       ///< run_until(duration) + collect()
  double run_cpu_s = 0;   ///< thread CPU over the same interval
};

/// Constructs and runs `spec` once. With `spans`, time advances one
/// simulated second per run_until call and each call's wall time is charged
/// to the phase that second falls in; otherwise one run_until(duration).
scenario::Result run_once(const scenario::Spec& spec, bool spans, Spans& t) {
  const auto t0 = Clock::now();
  scenario::Engine engine(spec);
  t.construct_s = seconds_since(t0);

  const double cpu0 = thread_cpu_s();
  const auto t1 = Clock::now();
  if (spans) {
    for (SimTime s = SimTime::seconds(1); s <= spec.duration;
         s = s + SimTime::seconds(1)) {
      const auto ts = Clock::now();
      engine.run_until(s);
      const double d = seconds_since(ts);
      if (s <= spec.attack_start) {
        t.pre_attack_s += d;
      } else if (s <= spec.attack_end) {
        t.attack_s += d;
      } else {
        t.post_attack_s += d;
      }
    }
    engine.run_until(spec.duration);
  } else {
    engine.run_until(spec.duration);
  }
  const auto tc = Clock::now();
  scenario::Result r = engine.collect();
  t.collect_s = seconds_since(tc);
  t.run_s = seconds_since(t1);
  t.run_cpu_s = thread_cpu_s() - cpu0;
  return r;
}

/// Checks shared by both passes: conservation of the outcome ledgers and
/// repeat identity of the sim-time outcomes.
void check_outcomes(const std::vector<Outcome>& runs, Report& out) {
  const Outcome& o = runs.front();
  out.check("clients: completions <= established <= attempts",
            o.client_completions <= o.client_established &&
                o.client_established <= o.client_attempts);
  out.check("bots: completions <= established <= attempts",
            o.bot_completions <= o.bot_established &&
                o.bot_established <= o.bot_attempts);
  out.check("legitimate clients made attempts and completed some",
            o.client_attempts > 0 && o.client_completions > 0);
  out.check("bots made attempts", o.bot_attempts > 0);
  out.check("connect-time samples present", o.connect_samples > 0);
  out.check("repeats of the same seed give identical sim-time outcomes",
            runs.size() >= 2 &&
                std::all_of(runs.begin(), runs.end(),
                            [&](const Outcome& x) { return x == o; }));
  out.attempted = o.client_attempts;
  // Every attempt that did not complete a request/response cycle counts as
  // failed, refusals included (they are attempts the solver turned down).
  out.failed = o.client_attempts - o.client_completions;
}

double max_gauge(const GaugeSeries& g) {
  double m = 0;
  for (const auto& p : g.points()) m = std::max(m, p.value);
  return m;
}

// --- passes ------------------------------------------------------------------

void untraced_pass(const scenario::Spec& spec, const Options& opt,
                   Report& out) {
  // Set-up alone is sub-millisecond to tens of milliseconds. Time it on its
  // own a few times before every repetition, so the samples span the same
  // window as the runs, and report the median.
  std::vector<double> setup;
  const int setup_per_rep = opt.tiny ? 1 : 8;
  const auto sample_setup = [&] {
    for (int i = 0; i < setup_per_rep; ++i) {
      const auto t0 = Clock::now();
      { scenario::Engine e(spec); }
      setup.push_back(seconds_since(t0));
    }
  };

  std::vector<double> run_s, cpu_us_per_hs, hs_per_s;
  std::vector<Outcome> outcomes;
  const auto start = Clock::now();
  const int min_runs = 3;
  while (static_cast<int>(outcomes.size()) < min_runs ||
         seconds_since(start) < opt.seconds) {
    sample_setup();
    Spans t;
    const scenario::Result r = run_once(spec, /*spans=*/false, t);
    const Outcome o = outcome_of(r);
    // The first full run pays first-touch page faults; keep it out of the
    // timing medians (its outcomes still enter the repeat check).
    if (!outcomes.empty()) {
      run_s.push_back(t.run_s);
      hs_per_s.push_back(static_cast<double>(o.handshakes) / t.run_s);
      cpu_us_per_hs.push_back(t.run_cpu_s * 1e6 /
                              static_cast<double>(std::max<std::uint64_t>(
                                  o.handshakes, 1)));
    }
    outcomes.push_back(o);
    std::fprintf(stderr, "run %zu: setup %.4f s run %.3f s\n", outcomes.size(),
                 t.construct_s, t.run_s);
  }
  check_outcomes(outcomes, out);
  const Outcome& o = outcomes.front();
  out.check("the servers handled SYNs", o.handshakes > 0);

  out.add("setup_s", median(setup), "s");
  out.add("run_s", median(run_s), "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.add("client_success_frac",
          ratio(static_cast<double>(o.client_completions),
               static_cast<double>(o.client_attempts)),
          "ratio");
  out.add("attacker_block_frac",
          1.0 - ratio(static_cast<double>(o.bot_established),
                     static_cast<double>(o.bot_attempts)),
          "ratio");
  out.add("handshakes_per_s", median(hs_per_s), "1/s");
  out.add("host_cpu_us_per_handshake", median(cpu_us_per_hs), "us");
  const std::string samples = std::to_string(o.connect_samples) + " samples";
  out.aux("connect_p50_ms", o.connect_p50_ms, "ms", "sim time, " + samples);
  out.aux("connect_p99_ms", o.connect_p99_ms, "ms", "sim time, " + samples);
  out.label("runs", std::to_string(outcomes.size()));
  out.label("shards", "1");
}

void traced_pass(const scenario::Spec& spec, const Options& opt,
                 const ProbeShape& shape, Report& out) {
  // Warm-up run, then alternate untraced / traced runs over the first half
  // of the budget; probes and the 2-shard run take the rest.
  Spans warm;
  (void)run_once(spec, false, warm);
  std::vector<double> plain_run_s;
  std::vector<Spans> traced;
  std::vector<Outcome> outcomes;
  scenario::Result last;
  const auto start = Clock::now();
  while (traced.empty() || seconds_since(start) < opt.seconds / 2) {
    Spans p;
    outcomes.push_back(outcome_of(run_once(spec, false, p)));
    plain_run_s.push_back(p.run_s);
    Spans t;
    last = run_once(spec, true, t);
    outcomes.push_back(outcome_of(last));
    traced.push_back(t);
  }
  check_outcomes(outcomes, out);
  const Outcome& o = outcomes.front();
  const scenario::Result& r = last;

  const auto med = [&](double Spans::*f) {
    std::vector<double> v;
    for (const Spans& s : traced) v.push_back(s.*f);
    return median(std::move(v));
  };
  const double run_s = median(plain_run_s);
  out.add("scenario.construct_s", med(&Spans::construct_s), "s");
  out.add("scenario.pre_attack_s", med(&Spans::pre_attack_s), "s");
  out.add("scenario.attack_s", med(&Spans::attack_s), "s");
  out.add("scenario.post_attack_s", med(&Spans::post_attack_s), "s");
  out.add("scenario.collect_s", med(&Spans::collect_s), "s");
  out.add("trace.overhead_frac", med(&Spans::run_s) / run_s - 1.0, "ratio");

  // Layer counts, from the run's own reports.
  const tcp::ListenerCounters& c = r.cluster;
  double listen_max = 0, accept_max = 0;
  for (const auto& s : r.servers) {
    listen_max = std::max(listen_max, max_gauge(s.listen_queue));
    accept_max = std::max(accept_max, max_gauge(s.accept_queue));
  }
  SimCounts counts;
  counts.run_s = run_s;
  counts.events = o.events;
  counts.syns = c.syns_received;
  counts.acks = c.acks_received;
  counts.challenges = c.challenges_sent;
  counts.solution_acks = c.solution_acks;
  counts.cookies = c.cookies_sent + c.cookies_valid + c.cookies_invalid;
  counts.listener_ticks = static_cast<std::uint64_t>(r.servers.size()) *
                          static_cast<std::uint64_t>(spec.duration.nanos() /
                                                     spec.tick_interval.nanos());
  // Little's law: connector-ticks = attempts x mean lifetime / tick period.
  counts.connector_ticks = static_cast<std::uint64_t>(
      (static_cast<double>(o.client_attempts - o.client_refusals) *
           o.client_conn_mean_ms +
       static_cast<double>(o.bot_established) * o.bot_conn_mean_ms) /
      spec.tick_interval.to_seconds() / 1e3);

  ProbeShape probe = shape;
  probe.listen_depth = static_cast<std::size_t>(listen_max);
  if (!(shape.policy == defense::PolicySpec::none())) {
    probe.listen_backlog = spec.servers.listen_backlog;
  }
  probe.sol_len = spec.servers.sol_len;
  probe.difficulty = spec.servers.difficulty;
  probe.oracle = true;
  const ProbeCosts costs = run_probes(probe);
  report_probe_costs(costs, out);
  report_sim_shares(costs, counts, out);

  out.add("puzzle.challenges", static_cast<double>(c.challenges_sent), "count");
  out.add("puzzle.solution_acks", static_cast<double>(c.solution_acks), "count");
  out.add("puzzle.verify_valid_frac",
          ratio(static_cast<double>(c.solutions_valid),
               static_cast<double>(c.solution_acks)),
          "ratio");
  out.add("tcp.syns", static_cast<double>(c.syns_received), "count");
  out.add("tcp.acks", static_cast<double>(c.acks_received), "count");
  out.add("tcp.synack_retx", static_cast<double>(c.synack_retx), "count");
  out.add("tcp.half_open_expired", static_cast<double>(c.half_open_expired),
          "count");
  out.add("tcp.queue_drops", static_cast<double>(c.drops_queue_overflow),
          "count");
  out.add("tcp.listen_depth_max", listen_max, "count");
  out.add("tcp.accept_depth_max", accept_max, "count");
  out.add("defense.challenge_frac",
          ratio(static_cast<double>(c.challenges_sent),
               static_cast<double>(c.syns_received)),
          "ratio");
  out.add("defense.cookie_frac",
          ratio(static_cast<double>(c.cookies_sent),
               static_cast<double>(c.syns_received)),
          "ratio");
  out.add("sim.client_attempts", static_cast<double>(o.client_attempts),
          "count");
  out.add("sim.client_refusals", static_cast<double>(o.client_refusals),
          "count");
  out.add("sim.client_failures", static_cast<double>(o.client_failures),
          "count");
  out.add("sim.bot_attempts", static_cast<double>(o.bot_attempts), "count");
  out.add("sim.bot_established", static_cast<double>(o.bot_established),
          "count");
  out.add("sim.connect_samples", static_cast<double>(o.connect_samples),
          "count");
  out.add("sim.connect_p50_ms", o.connect_p50_ms, "ms");
  out.add("sim.connect_p99_ms", o.connect_p99_ms, "ms");

  std::uint64_t fluid_attempts = 0, fluid_established = 0;
  for (const auto& f : r.fluid) {
    fluid_attempts += f.total_attempts;
    fluid_established += f.total_established;
  }
  out.add("workload.fluid_users", static_cast<double>(r.fluid_users), "count");
  out.add("workload.fluid_established_frac",
          ratio(static_cast<double>(fluid_established),
               static_cast<double>(fluid_attempts)),
          "ratio");

  double lb_total = 0, lb_max = 0;
  for (const auto& b : r.lb.backends) {
    const auto p = static_cast<double>(b.dispatched_packets);
    lb_total += p;
    lb_max = std::max(lb_max, p);
  }
  const double lb_mean =
      r.lb.backends.empty() ? 0 : lb_total / static_cast<double>(r.lb.backends.size());
  out.add("fleet.lb_packets", lb_total, "count");
  out.add("fleet.lb_imbalance", ratio(lb_max, lb_mean), "ratio");
  out.add("fleet.no_backend_drops", static_cast<double>(r.lb.no_backend_drops),
          "count");

  // The same spec on two worker shards (wall clock only; reported, not
  // gated: a two-shard run swings far more than a single-thread one).
  const auto tp = Clock::now();
  const scenario::Result pr = par::run(spec, {.shards = 2});
  const double par_s = seconds_since(tp);
  out.check("2-shard run processed events", pr.events_processed > 0);
  out.add("par.run_s_2shards", par_s, "s");
  out.add("par.speedup_2shards", run_s / par_s, "ratio");

  report_wire_absent(out);
  out.label("runs", std::to_string(traced.size()) + " traced + " +
                        std::to_string(plain_run_s.size()) + " untraced");
  out.label("shards", "1 (par.*: 2)");
}

void run_sim(const scenario::Spec& spec, const Options& opt,
             const ProbeShape& shape, Report& out) {
  if (opt.trace) {
    traced_pass(spec, opt, shape, out);
  } else {
    untraced_pass(spec, opt, out);
  }
}

}  // namespace

void run_puzzle_flood(const Options& opt, Report& out) {
  ProbeShape shape;
  shape.policy = defense::PolicySpec::puzzles();
  run_sim(puzzle_flood_spec(opt.seed, opt.tiny), opt, shape, out);
}

void run_syn_exhaust(const Options& opt, Report& out) {
  ProbeShape shape;
  shape.policy = defense::PolicySpec::none();
  run_sim(syn_exhaust_spec(opt.seed, opt.tiny), opt, shape, out);
}

}  // namespace perfbench
