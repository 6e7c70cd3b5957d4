// Tests for the workload layer (src/workload/): the per-arrival draw, the
// client's demand decisions read from a ModelSpec, the ModelSpec value-type
// arithmetic, and the hybrid fluid/discrete population.
//
// The fluid half is validated at three levels:
//  1. Conservation: every unit of offered mass is eventually completed,
//     failed, refused, or still in a pool (exact flow-balance bookkeeping,
//     driven through a real tcp::Listener so the admission split is the
//     production one).
//  2. Plumbing: a hybrid scenario::Spec wires cohort + fluid through the
//     engine, folds both into the client aggregates, and records the fluid
//     counters and trace events.
//  3. Fidelity: at an overlapping scale (15 modeled users), a hybrid run's
//     goodput must track the full-discrete run within a tight tolerance in
//     both the pre-attack and under-attack windows of the Fig. 7/8 fixture —
//     this is the gate that licenses the million-user extrapolation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "crypto/secret.hpp"
#include "defense/spec.hpp"
#include "obs/trace.hpp"
#include "offense/spec.hpp"
#include "policy_fixtures.hpp"
#include "puzzle/engine.hpp"
#include "scenario/spec.hpp"
#include "tcp/listener.hpp"
#include "util/rng.hpp"
#include "workload/fluid.hpp"
#include "workload/profiles.hpp"
#include "workload/spec.hpp"

namespace tcpz {
namespace {

using workload::FluidConfig;
using workload::FluidPopulation;
using workload::ModelSpec;

// ---------------------------------------------------------------------------
// exp_interarrival: the one shared Exp(rate) draw helper
// ---------------------------------------------------------------------------

// The clients and the server's M/M/1 service loop all sample open-loop
// waits through util/rng.hpp's exp_interarrival. This pins the draw pipeline
// byte-identically: the literal golden sequence below was recorded from
// Rng(42) at the §6 client rate, and the helper must also equal the inline
// SimTime::from_seconds(rng.exponential(rate)) form it replaced — if either
// comparison breaks, every golden scenario trace in the repo drifts.
TEST(ExpInterarrival, DrawSequencePinnedByteIdentical) {
  constexpr std::int64_t kGoldenNanos[] = {4379467ll,   23819620ll,
                                           56978498ll,  129309073ll,
                                           240204930ll, 73427192ll};
  Rng rng(42);
  Rng twin(42);
  for (const std::int64_t golden : kGoldenNanos) {
    const SimTime d = exp_interarrival(rng, workload::profiles::kRequestRate);
    EXPECT_EQ(d.nanos(), golden);
    EXPECT_EQ(d, SimTime::from_seconds(
                     twin.exponential(workload::profiles::kRequestRate)));
  }
}

// ---------------------------------------------------------------------------
// ClientAgent demand, read from the ModelSpec
// ---------------------------------------------------------------------------

/// A 20 s, no-attack run of 3 open-loop clients at λ = 2/s whose demand
/// comes from an explicitly set model.
scenario::Spec model_demand_spec(const ModelSpec& model) {
  scenario::Spec s;
  s.seed = 5;
  s.duration = SimTime::seconds(20);
  s.attack_start = s.attack_end = s.duration;
  s.workload.model = model;
  s.workload.model->request_rate = 2.0;
  s.workload.n_clients = 3;
  return s;
}

/// Sums challenges seen and refused over every discrete client.
std::pair<std::uint64_t, std::uint64_t> challenges_and_refusals(
    const scenario::Result& r) {
  std::uint64_t seen = 0, refused = 0;
  for (const sim::HostReport& c : r.clients) {
    seen += c.challenges_seen;
    refused += c.solves_refused;
  }
  return {seen, refused};
}

// Challenge backpressure: a client refuses a challenge once
// max_pending_solves solves are queued. With a cap of 0 every challenge is
// refused; with the default cap, challenges are solved.
TEST(ClientAgentDemand, SolveBacklogCapGatesChallenges) {
  ModelSpec capped = ModelSpec::open_loop();
  capped.max_pending_solves = 0;
  scenario::Spec s = model_demand_spec(capped);
  s.servers.policies = {fixtures::always_puzzles()};
  const auto [seen, refused] = challenges_and_refusals(scenario::run(s));
  EXPECT_GT(seen, 0u);
  EXPECT_EQ(refused, seen);

  s.workload.model->max_pending_solves = ModelSpec{}.max_pending_solves;
  const auto [seen_default, refused_default] =
      challenges_and_refusals(scenario::run(s));
  EXPECT_GT(seen_default, 0u);
  EXPECT_LT(refused_default, seen_default);
}

// The server sizes its responses from the workload model, not from the flat
// WorkloadSpec knob the model overrides: clients waiting for a 200 KB
// response complete even though the flat response_bytes stays at 100 KB.
TEST(ClientAgentDemand, ServerSendsTheModelResponseSize) {
  ModelSpec model = ModelSpec::open_loop();
  model.response_bytes = 200'000;
  scenario::Spec s = model_demand_spec(model);
  s.servers.policies = {defense::PolicySpec::none()};
  ASSERT_NE(s.workload.response_bytes, model.response_bytes);
  const scenario::Result r = scenario::run(s);
  std::uint64_t attempts = 0, completions = 0;
  for (const sim::HostReport& c : r.clients) {
    attempts += c.total_attempts;
    completions += c.total_completions;
  }
  ASSERT_GT(attempts, 0u);
  EXPECT_GE(static_cast<double>(completions),
            0.95 * static_cast<double>(attempts));
}

// ---------------------------------------------------------------------------
// ModelSpec value arithmetic
// ---------------------------------------------------------------------------

TEST(ModelSpecTest, LegacyShimIsOpenLoopWithSameDemand) {
  const ModelSpec m = ModelSpec::from_legacy(10.0, 300, 5'000, 2);
  ModelSpec want = ModelSpec::open_loop();
  want.request_rate = 10.0;
  want.request_bytes = 300;
  want.response_bytes = 5'000;
  want.max_pending_solves = 2;
  EXPECT_EQ(m, want);
  EXPECT_STREQ(m.kind_name(), "open-loop-poisson");
  EXPECT_EQ(m.cohort_size(), 0u);
  EXPECT_EQ(m.fluid_users(), 0u);
}

TEST(ModelSpecTest, HybridPopulationSplit) {
  // A million users at a 1e-5 sampling ratio: ten discrete agents carry the
  // exact statistics, the rest is fluid mass.
  const ModelSpec big = ModelSpec::hybrid(1'000'000, 1e-5);
  EXPECT_STREQ(big.kind_name(), "hybrid-fluid");
  EXPECT_EQ(big.cohort_size(), 10u);
  EXPECT_EQ(big.fluid_users(), 999'990u);

  EXPECT_EQ(ModelSpec::hybrid(10, 0.3).cohort_size(), 3u);
  EXPECT_EQ(ModelSpec::hybrid(10, 0.3).fluid_users(), 7u);
  // Clamps: ratio 0 is pure fluid, ratio >= 1 is pure discrete.
  EXPECT_EQ(ModelSpec::hybrid(10, 0.0).cohort_size(), 0u);
  EXPECT_EQ(ModelSpec::hybrid(10, 0.0).fluid_users(), 10u);
  EXPECT_EQ(ModelSpec::hybrid(10, 1.0).cohort_size(), 10u);
  EXPECT_EQ(ModelSpec::hybrid(10, 1.0).fluid_users(), 0u);
  EXPECT_EQ(ModelSpec::hybrid(10, 5.0).cohort_size(), 10u);
}

// ---------------------------------------------------------------------------
// FluidPopulation conservation, against a real Listener
// ---------------------------------------------------------------------------

constexpr std::uint32_t kAddr = tcp::ipv4(10, 1, 0, 1);

/// A real Listener under the given policy, same construction the scenario
/// engine performs (oracle puzzle engine, seeded secret).
struct FluidHarness {
  explicit FluidHarness(defense::PolicySpec spec,
                        std::size_t listen_backlog = 4096,
                        std::size_t accept_backlog = 1024) {
    tcp::ListenerConfig cfg;
    cfg.local_addr = kAddr;
    cfg.local_port = 80;
    cfg.listen_backlog = listen_backlog;
    cfg.accept_backlog = accept_backlog;
    cfg.difficulty = {2, 17};
    cfg.policy = spec.factory();
    engine = std::make_shared<puzzle::OraclePuzzleEngine>(
        secret, puzzle::EngineConfig{4, 4000});
    listener = std::make_unique<tcp::Listener>(cfg, secret, 1, engine);
  }

  /// Steps `pop` for `seconds` of simulated time at a 100 ms tick.
  void run(FluidPopulation& pop, double seconds) {
    const SimTime dt = SimTime::milliseconds(100);
    for (SimTime t = dt; t.to_seconds() <= seconds; t += dt) {
      pop.step(t, dt, *listener);
    }
  }

  crypto::SecretKey secret = crypto::SecretKey::from_seed(7);
  std::shared_ptr<puzzle::OraclePuzzleEngine> engine;
  std::unique_ptr<tcp::Listener> listener;
  sim::RoleSeries series;  ///< the population's ledger
};

FluidConfig benign_config(double users) {
  FluidConfig fc;
  fc.users = users;
  fc.model.request_rate = 20.0;
  fc.service_rate = 1100.0;
  return fc;
}

// Underloaded, no defense pressure: every offered unit flows straight
// through enqueue -> establish -> service -> completion. Conservation must
// be exact (up to float error) and nothing may fail or be refused.
TEST(FluidPopulationTest, BenignFlowConservesMassAndCompletes) {
  FluidHarness h(defense::PolicySpec::none());
  FluidPopulation pop(benign_config(50), {2, 17}, h.series);
  h.run(pop, 30.0);

  const double created = pop.created();
  EXPECT_NEAR(created, 50 * 20.0 * 30.0, 1e-6);
  EXPECT_LT(pop.conservation_error(), 1e-6 * created);
  EXPECT_EQ(pop.failed(), 0.0);
  EXPECT_EQ(pop.refused(), 0.0);
  // All but the in-service tail completed (demand 1000/s < mu 1100/s).
  EXPECT_GT(pop.completed(), created - 0.2 * 1000.0 - 1.0);

  const tcp::ListenerCounters& c = h.listener->counters();
  EXPECT_NEAR(static_cast<double>(c.fluid_syns_offered), created, 2.0);
  EXPECT_NEAR(static_cast<double>(c.fluid_enqueued), created, 2.0);
  EXPECT_EQ(c.fluid_challenged, 0u);
  EXPECT_EQ(c.fluid_dropped, 0u);
  EXPECT_EQ(c.fluid_deceived, 0u);
  EXPECT_NEAR(static_cast<double>(c.fluid_established),
              pop.completed() + pop.service_backlog(), 2.0);
  // The attempts series holds the offered mass; the report's integer
  // totals track it through the floor-carries.
  EXPECT_NEAR(h.series.attempts.sum(), created, 1e-6 * created);
  EXPECT_NEAR(static_cast<double>(pop.report().total_attempts), created, 2.0);
  EXPECT_NEAR(static_cast<double>(pop.report().total_completions),
              pop.completed(), 2.0);
}

// Always-challenge puzzles: the population is solve-limited at the Fig. 3a
// price. Completion throughput must converge to N * hash_rate / l(p) and the
// per-user bounded solve queue must shed the excess as refusals.
TEST(FluidPopulationTest, ChallengedFlowIsSolveLimited) {
  FluidHarness h(fixtures::always_puzzles());
  FluidPopulation pop(benign_config(50), {2, 17}, h.series);
  h.run(pop, 30.0);

  EXPECT_LT(pop.conservation_error(), 1e-6 * pop.created());
  const tcp::ListenerCounters& c = h.listener->counters();
  EXPECT_GT(c.fluid_challenged, 0u);
  EXPECT_GT(c.fluid_solution_acks, 0u);
  EXPECT_EQ(c.fluid_enqueued, 0u);

  // l(2,17) = 131072 hashes -> 2.68 solves/s/user -> 134/s for 50 users,
  // far below the 1000/s offered: the bounded queue overflows into refusals.
  const double solve_rate =
      50.0 * workload::profiles::kClientHashRate /
      puzzle::Difficulty{2, 17}.expected_solve_hashes();
  EXPECT_GT(pop.refused(), 0.0);
  EXPECT_NEAR(pop.completed(), solve_rate * 30.0, 0.15 * solve_rate * 30.0);
  // The solve backlog saturates at users * max_pending (less the one tick's
  // worth of drain that happens between refills).
  EXPECT_LE(pop.solve_backlog(), 50.0 * 4 + 1e-9);
  EXPECT_GT(pop.solve_backlog(), 50.0 * 4 - 2.0 * solve_rate * 0.1);
}

// Unpatched kernels (solve_puzzles = false) refuse every challenge.
TEST(FluidPopulationTest, UnpatchedPopulationRefusesChallenges) {
  FluidHarness h(fixtures::always_puzzles());
  FluidConfig fc = benign_config(50);
  fc.solve_puzzles = false;
  FluidPopulation pop(fc, {2, 17}, h.series);
  h.run(pop, 10.0);

  EXPECT_LT(pop.conservation_error(), 1e-6 * pop.created());
  EXPECT_EQ(pop.completed(), 0.0);
  EXPECT_NEAR(pop.refused(), pop.created(), 1e-6 * pop.created());
}

// A starved listen queue: dropped SYN mass cycles through the retry pool and
// eventually gives up, as a discrete client's SYN-retx budget does.
TEST(FluidPopulationTest, DroppedSynMassRetriesThenFails) {
  FluidHarness h(defense::PolicySpec::none(), /*listen_backlog=*/8,
                 /*accept_backlog=*/8);
  FluidConfig fc = benign_config(200);  // 4000/s offered vs 8 listen slots
  fc.service_rate = 50.0;
  FluidPopulation pop(fc, {2, 17}, h.series);
  h.run(pop, 20.0);

  EXPECT_LT(pop.conservation_error(), 1e-6 * pop.created());
  const tcp::ListenerCounters& c = h.listener->counters();
  EXPECT_GT(c.fluid_dropped, 0u);
  EXPECT_GT(pop.failed(), 0.0);
  EXPECT_GT(pop.syn_retry_backlog(), 0.0);
  // Published occupancy: the overflowing service backlog holds accept depth.
  EXPECT_GT(h.listener->fluid_accept_occupancy(), 0.0);
}

// ---------------------------------------------------------------------------
// Hybrid scenarios through the engine
// ---------------------------------------------------------------------------

/// A benign 30 s hybrid spec: `users` modeled users at the given cohort
/// ratio, no attack.
scenario::Spec benign_hybrid(std::uint64_t users, double ratio) {
  scenario::Spec s;
  s.duration = SimTime::seconds(30);
  s.attack_start = s.duration;
  s.attack_end = s.duration;
  s.workload.model = ModelSpec::hybrid(users, ratio);
  return s;
}

std::uint64_t combined_completions(const scenario::Result& r) {
  std::uint64_t total = 0;
  for (const auto& c : r.clients) total += c.total_completions;
  for (const auto& f : r.fluid) total += f.total_completions;
  return total;
}

// Sweeping the cohort ratio from pure-fluid to pure-discrete must not move
// the population's delivered throughput: the fluid aggregate and the
// discrete agents model the same per-user demand.
TEST(HybridScenarioTest, CohortRatioSweepDeliversSameThroughput) {
  const std::uint64_t kUsers = 10;
  const double kExpected = 10 * 20.0 * 30.0;  // users * lambda * duration
  std::vector<double> totals;
  for (const double ratio : {0.0, 0.3, 1.0}) {
    const ModelSpec model = ModelSpec::hybrid(kUsers, ratio);
    const scenario::Result r = scenario::run(benign_hybrid(kUsers, ratio));
    EXPECT_EQ(r.clients.size(), model.cohort_size()) << "ratio " << ratio;
    EXPECT_EQ(r.fluid_users, model.fluid_users()) << "ratio " << ratio;
    EXPECT_EQ(r.fluid.size(), model.fluid_users() > 0 ? 1u : 0u);
    const double total = static_cast<double>(combined_completions(r));
    EXPECT_NEAR(total, kExpected, 0.08 * kExpected) << "ratio " << ratio;
    totals.push_back(total);
  }
  const auto [lo, hi] = std::minmax_element(totals.begin(), totals.end());
  EXPECT_LE(*hi - *lo, 0.10 * *hi);
}

// The fluid mass flows through the real listener: its admissions land in the
// fluid_* counters and (when tracing) the kFluid event category.
TEST(HybridScenarioTest, FluidAdmissionsAreObservable) {
  scenario::Spec s = benign_hybrid(20, 0.0);
  s.duration = SimTime::seconds(10);
  s.attack_start = s.attack_end = s.duration;
  s.obs.trace = true;
  s.obs.ring_capacity = 1u << 14;
  const scenario::Result r = scenario::run(s);

  EXPECT_GT(r.server().counters.fluid_syns_offered, 0u);
  EXPECT_GT(r.server().counters.fluid_established, 0u);
  ASSERT_NE(r.trace, nullptr);
  std::uint64_t offers = 0, establishes = 0;
  r.trace->for_each([&](const obs::TraceEvent& e) {
    if (e.code == static_cast<std::uint8_t>(obs::Code::kFluidOffer)) ++offers;
    if (e.code == static_cast<std::uint8_t>(obs::Code::kFluidEstablish)) {
      ++establishes;
    }
    if (e.cat == static_cast<std::uint8_t>(obs::Cat::kFluid)) {
      EXPECT_EQ(obs::cat_of(static_cast<obs::Code>(e.code)), obs::Cat::kFluid);
    }
  });
  EXPECT_GT(offers, 0u);
  EXPECT_GT(establishes, 0u);
}

// ---------------------------------------------------------------------------
// Fluid-vs-discrete fidelity: the Fig. 7/8 fixture at overlapping scale
// ---------------------------------------------------------------------------

/// The scaled §6 shape on a 60 s timeline: 15 modeled users, a conn-flood
/// botnet in [20 s, 45 s), one policy. `hybrid` swaps the 15 discrete agents
/// for a 3-agent cohort + 12-user fluid aggregate.
scenario::Spec fidelity_spec(const defense::PolicySpec& policy, bool hybrid) {
  scenario::Spec s;
  s.duration = SimTime::seconds(60);
  s.attack_start = SimTime::seconds(20);
  s.attack_end = SimTime::seconds(45);
  s.servers.policies = {policy};
  if (hybrid) s.workload.model = ModelSpec::hybrid(15, 0.2);
  scenario::AttackSpec a;
  a.strategy = offense::StrategySpec::conn_flood();
  s.attacks = {a};
  return s;
}

// The gate on the whole hybrid construction: at a scale where both models
// are affordable, the hybrid run must reproduce the full-discrete goodput —
// pre-attack and under attack, for each defense posture of Figs. 7/8 —
// within 5% of the discrete value (with an absolute floor of 5% of the
// nominal pre-attack goodput, so collapsed-goodput windows compare
// absolutely rather than as ratios of near-zero numbers).
TEST(HybridScenarioTest, FluidMatchesDiscreteGoodputWithinTolerance) {
  struct Variant {
    const char* name;
    defense::PolicySpec policy;
  };
  const Variant kVariants[] = {
      {"puzzles", defense::PolicySpec::puzzles()},
      {"syncookies", defense::PolicySpec::syn_cookies()},
      {"none", defense::PolicySpec::none()},
  };
  for (const Variant& v : kVariants) {
    const scenario::Result d = scenario::run(fidelity_spec(v.policy, false));
    const scenario::Result h = scenario::run(fidelity_spec(v.policy, true));
    // Second-bins well inside each window (edges excluded for ramp effects).
    const double pre_d = d.client_rx_mbps(5, 18);
    const double pre_h = h.client_rx_mbps(5, 18);
    const double atk_d = d.client_rx_mbps(25, 44);
    const double atk_h = h.client_rx_mbps(25, 44);
    const double floor = 0.05 * pre_d;
    EXPECT_LE(std::abs(pre_h - pre_d), std::max(0.05 * pre_d, floor))
        << v.name << ": pre-attack goodput discrete=" << pre_d
        << " hybrid=" << pre_h;
    EXPECT_LE(std::abs(atk_h - atk_d), std::max(0.05 * atk_d, floor))
        << v.name << ": under-attack goodput discrete=" << atk_d
        << " hybrid=" << atk_h;
  }
}

}  // namespace
}  // namespace tcpz
