// Shared FNV-1a digest helpers and fixtures for the golden-trace
// regression tests (policy_trace_test, scenario_trace_test,
// parallel_sim_test). A digest folds every field of a
// result struct in declaration order, so "digest unchanged" means the run is
// byte-for-byte identical as far as the struct can see.
//
// Field lists are expanded from the X-macro tables that declare the structs
// (TCPZ_LISTENER_COUNTER_FIELDS, TCPZ_HOST_REPORT_TOTAL_FIELDS,
// TCPZ_ROLE_SERIES_FIELDS), so a newly
// added field is folded automatically — it can no longer be forgotten here.
// The flip side: adding a field now ALWAYS perturbs the goldens (by design;
// a counter that never affects a digest is a counter nobody is testing).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "defense/spec.hpp"
#include "obs/trace.hpp"
#include "offense/spec.hpp"
#include "scenario/spec.hpp"
#include "sim/metrics.hpp"
#include "tcp/counters.hpp"

namespace tcpz::tracedigest {

inline std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

inline std::uint64_t fnv_d(std::uint64_t h, double v) {
  return fnv(h, std::bit_cast<std::uint64_t>(v));
}

inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

/// FNV-1a over every ListenerCounters field, in table (declaration) order.
inline std::uint64_t digest(const tcp::ListenerCounters& c) {
  std::uint64_t h = kFnvBasis;
#define TCPZ_X(name, help) h = fnv(h, c.name);
  TCPZ_LISTENER_COUNTER_FIELDS(TCPZ_X)
#undef TCPZ_X
  return h;
}

inline std::uint64_t fold_series(std::uint64_t h, const TimeSeries& s) {
  h = fnv(h, s.bins());
  for (std::size_t i = 0; i < s.bins(); ++i) h = fnv_d(h, s.total(i));
  return h;
}

inline std::uint64_t fold_gauge(std::uint64_t h, const GaugeSeries& g) {
  h = fnv(h, g.size());
  for (std::size_t i = 0; i < g.size(); ++i) {
    h = fnv(h, static_cast<std::uint64_t>(g.time_at(i).nanos()));
    h = fnv_d(h, g.value_at(i));
  }
  return h;
}

/// Every bin of every series of one role ledger, in table order.
inline std::uint64_t fold_role(std::uint64_t h, const sim::RoleSeries& s) {
#define TCPZ_X(name, help) h = fold_series(h, s.name);
  TCPZ_ROLE_SERIES_FIELDS(TCPZ_X)
#undef TCPZ_X
  return h;
}

inline std::uint64_t digest(const sim::RoleSeries& s) {
  return fold_role(kFnvBasis, s);
}

/// Every counter, every CPU sample and the connection-time sample set of
/// one client/bot report.
inline std::uint64_t digest(const sim::HostReport& r) {
  std::uint64_t h = kFnvBasis;
  h = fnv(h, r.conn_time_ms.count());
  for (const double s : r.conn_time_ms.sorted()) h = fnv_d(h, s);
  h = fold_gauge(h, r.cpu);
#define TCPZ_X(name, help) h = fnv(h, r.name);
  TCPZ_HOST_REPORT_TOTAL_FIELDS(TCPZ_X)
#undef TCPZ_X
  return h;
}

/// Every client and every bot report, then the legitimate ledger and each
/// group's ledger in group order.
inline std::uint64_t fold_agents(std::uint64_t h, const scenario::Result& r) {
  for (const auto& c : r.clients) h = fnv(h, digest(c));
  for (const auto& g : r.groups) {
    for (const auto& b : g.bots) h = fnv(h, digest(b));
  }
  h = fold_role(h, r.legit);
  for (const auto& g : r.groups) h = fold_role(h, g.series);
  return h;
}

/// Every server's counters, the cluster sum, every client and every bot
/// report and every role ledger — any re-ordered RNG draw or perturbed
/// event shows up.
inline std::uint64_t full_digest(const scenario::Result& r) {
  std::uint64_t h = kFnvBasis;
  for (const auto& s : r.servers) h = fnv(h, digest(s.counters));
  h = fnv(h, digest(r.cluster));
  return fold_agents(h, r);
}

/// Every sample (time and value) of every server's gauges, in server order
/// and gauge table order (TCPZ_SERVER_REPORT_GAUGE_FIELDS). full_digest and
/// sim_digest fold only the servers' counters, so this pins the queue
/// occupancy, CPU and difficulty series behind Figs. 9-10.
inline std::uint64_t server_gauge_digest(const scenario::Result& r) {
  std::uint64_t h = kFnvBasis;
  for (const auto& s : r.servers) {
#define TCPZ_X(name, help) h = fold_gauge(h, s.name);
    TCPZ_SERVER_REPORT_GAUGE_FIELDS(TCPZ_X)
#undef TCPZ_X
  }
  return h;
}

/// Single-server run: server 0's counters, every client, every bot, every
/// role ledger.
inline std::uint64_t sim_digest(const scenario::Result& r) {
  std::uint64_t h = kFnvBasis;
  h = fnv(h, digest(r.server().counters));
  return fold_agents(h, r);
}

/// A role ledger's series summed over its bins, next to the sum of the
/// matching per-host total over the hosts of that role.
struct LedgerSum {
  std::string what;
  double ledger;
  double hosts;
};

/// Every ledger series that has a per-host total: attempts, established,
/// completions and failures for the clients and for each attack group, and
/// refusals against solves_refused for the clients (a bot counts a refused
/// solve without a series entry). Each bin of a discrete run holds whole
/// events, so the two sums must be equal. Fluid populations are left out:
/// they add fractional mass to the ledger and floor-carry their totals.
inline std::vector<LedgerSum> ledger_sums(const scenario::Result& r) {
  const auto hosts = [](const std::vector<sim::HostReport>& reports,
                        std::uint64_t sim::HostReport::*total) {
    std::uint64_t sum = 0;
    for (const sim::HostReport& h : reports) sum += h.*total;
    return static_cast<double>(sum);
  };
  const auto add = [&](std::vector<LedgerSum>& out, const std::string& role,
                       const sim::RoleSeries& s,
                       const std::vector<sim::HostReport>& reports) {
    out.push_back({role + " attempts", s.attempts.sum(),
                   hosts(reports, &sim::HostReport::total_attempts)});
    out.push_back({role + " established", s.established.sum(),
                   hosts(reports, &sim::HostReport::total_established)});
    out.push_back({role + " completions", s.completions.sum(),
                   hosts(reports, &sim::HostReport::total_completions)});
    out.push_back({role + " failures", s.failures.sum(),
                   hosts(reports, &sim::HostReport::total_failures)});
  };
  std::vector<LedgerSum> out;
  add(out, "clients", r.legit, r.clients);
  out.push_back({"clients refusals", r.legit.refusals.sum(),
                 hosts(r.clients, &sim::HostReport::solves_refused)});
  for (const auto& g : r.groups) add(out, "group " + g.name, g.series, g.bots);
  return out;
}

/// Order-insensitive companion of obs::Recorder::digest(): the digest of
/// the retained events sorted by (t, track) and then by content, folded with
/// the count the ring overwrote. A
/// change that only reorders events recorded at the same instant leaves it
/// unchanged, so a moved ordered digest with an unmoved unordered one is a
/// reordering, not a change in what the run did.
inline std::uint64_t unordered_digest(const obs::Recorder& rec) {
  std::vector<obs::TraceEvent> events = rec.snapshot();
  const auto key = [](const obs::TraceEvent& e) {
    return std::tie(e.t, e.track, e.cat, e.code, e.saddr, e.daddr, e.sport,
                    e.dport, e.a0, e.a1);
  };
  std::sort(events.begin(), events.end(),
            [&](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              return key(a) < key(b);
            });
  obs::Recorder sorted(events.size());
  for (const obs::TraceEvent& e : events) sorted.append(e);
  return fnv(sorted.digest(), rec.overwritten());
}

/// Digest of the listeners' own state transitions, blind to the order and
/// link timing of their output: every kSynEnqueue, kEstablished,
/// kHalfOpenExpired and kSynackRetx record, reduced to (tick, track, flow,
/// code, arg) with `tick` the record's time in `tick`-long steps and `arg`
/// the retransmit count or establish path (queue depths, which depend on
/// arrival order, are left out), sorted and folded with the overwritten
/// count. A change that only reorders what a listener emits in one tick,
/// and so shifts when those segments leave the link, leaves it unchanged;
/// one that moves which flows are enqueued, retransmitted, expired or
/// admitted in which tick does not.
inline std::uint64_t listener_digest(
    const obs::Recorder& rec, SimTime tick = SimTime::milliseconds(100)) {
  std::vector<std::tuple<std::int64_t, std::uint16_t, std::uint32_t,
                         std::uint16_t, std::uint32_t, std::uint16_t,
                         std::uint8_t, std::uint64_t>>
      rows;
  for (const obs::TraceEvent& e : rec.snapshot()) {
    std::uint64_t arg = 0;
    switch (static_cast<obs::Code>(e.code)) {
      case obs::Code::kSynEnqueue:
        break;
      case obs::Code::kEstablished:
      case obs::Code::kHalfOpenExpired:
      case obs::Code::kSynackRetx:
        arg = e.a0;
        break;
      default:
        continue;
    }
    rows.emplace_back(e.t / tick.nanos(), e.track, e.saddr, e.sport, e.daddr,
                      e.dport, e.code, arg);
  }
  std::sort(rows.begin(), rows.end());
  std::uint64_t h = kFnvBasis;
  for (const auto& [t, track, saddr, sport, daddr, dport, code, arg] : rows) {
    h = fnv(h, static_cast<std::uint64_t>(t));
    h = fnv(h, (static_cast<std::uint64_t>(track) << 8) | code);
    h = fnv(h, (static_cast<std::uint64_t>(saddr) << 32) | daddr);
    h = fnv(h, (static_cast<std::uint64_t>(sport) << 16) | dport);
    h = fnv(h, arg);
  }
  return fnv(h, rec.overwritten());
}

/// The fixed-seed scaled §6 scenario (seed 42, 120 s, attack 30–80 s):
/// one server, 10 bots at 500 slots/s.
inline scenario::Spec scaled_fixture(const defense::PolicySpec& policy,
                                     const offense::StrategySpec& attack) {
  scenario::Spec s;
  s = s.scaled();
  s.servers.policies = {policy};
  scenario::AttackSpec a;
  a.count = 10;
  a.rate = 500.0;
  a.strategy = attack;
  s.attacks = {a};
  return s;
}

/// A fixed 3-replica fleet scenario exercising rotation, the shared replay
/// cache and a bot mix on a short timeline; every replica runs `policy`
/// with a 20 s protection hold.
inline scenario::Spec fleet_fixture(defense::PolicySpec policy,
                                    const offense::StrategySpec& attack) {
  scenario::Spec s;
  s.duration = SimTime::seconds(40);
  s.attack_start = SimTime::seconds(10);
  s.attack_end = SimTime::seconds(30);
  s.workload.n_clients = 6;
  s.workload.request_rate = 10.0;
  s.workload.response_bytes = 20'000;
  policy.protection_hold = SimTime::seconds(20);
  s.servers.count = 3;
  s.servers.policies = {policy};
  s.fleet.enabled = true;
  s.fleet.rotation_interval = SimTime::seconds(10);
  s.fleet.rotation_overlap = SimTime::seconds(3);
  scenario::AttackSpec a;
  a.count = 4;
  a.rate = 200.0;
  a.strategy = attack;
  s.attacks = {a};
  return s;
}

/// sim_digest() of scaled_fixture(puzzles, patched conn flood). Pinned by
/// scenario_trace_test (through scenario::run) and parallel_sim_test
/// (through a 1-shard par::run), so the two drivers are held to one value.
inline constexpr std::uint64_t kScaledConnFloodDigest = 0x0f29e4497ceb8b50ull;

}  // namespace tcpz::tracedigest
