// Tests for the extension modules: per-user pricing analysis and the
// memory-bound PoW plumbing.
#include <gtest/gtest.h>

#include "game/heterogeneous.hpp"
#include "defense/spec.hpp"
#include "scenario/spec.hpp"
#include "trace_digest.hpp"

namespace tcpz {
namespace {

// ---------------------------------------------------------------------------
// Per-user pricing (price of statelessness)
// ---------------------------------------------------------------------------

TEST(Heterogeneous, HomogeneousUsersGainNothing) {
  game::GameConfig cfg;
  cfg.valuations.assign(50, 1000.0);
  cfg.mu = 60.0;
  // Identical users: per-user pricing cannot beat the uniform price by more
  // than the numerical tolerance.
  EXPECT_NEAR(game::price_of_statelessness(cfg), 1.0, 0.05);
}

TEST(Heterogeneous, UniformPricingIsNearOptimalEvenForSkewedMixes) {
  // The headline finding: under the paper's log-utility demand, per-user
  // pricing beats the uniform price by only a few percent even for a 33x
  // valuation skew — the stateless uniform-difficulty design costs almost
  // nothing in the leader's own objective.
  for (const double mu : {20.0, 40.0, 80.0}) {
    game::GameConfig cfg;
    for (int i = 0; i < 60; ++i) {
      cfg.valuations.push_back(i % 3 == 0 ? 10'000.0 : 300.0);
    }
    cfg.mu = mu;
    const double ratio = game::price_of_statelessness(cfg);
    EXPECT_GE(ratio, 1.0 - 1e-6) << mu;
    EXPECT_LT(ratio, 1.10) << mu;
  }
}

TEST(Heterogeneous, PricesTrackValuations) {
  game::GameConfig cfg;
  cfg.valuations = {100.0, 1'000.0, 10'000.0};
  cfg.mu = 10.0;
  const auto d = game::discriminatory_prices(cfg);
  ASSERT_EQ(d.prices.size(), 3u);
  EXPECT_LT(d.prices[0], d.prices[1]);
  EXPECT_LT(d.prices[1], d.prices[2]);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GE(d.rates[i], 0.0);
    EXPECT_LE(d.prices[i], cfg.valuations[i]);
  }
}

TEST(Heterogeneous, EmptyGameIsNeutral) {
  game::GameConfig cfg;
  cfg.mu = 10.0;
  EXPECT_DOUBLE_EQ(game::discriminatory_prices(cfg).objective, 0.0);
  EXPECT_DOUBLE_EQ(game::price_of_statelessness(cfg), 1.0);
}

// ---------------------------------------------------------------------------
// Memory-bound PoW plumbing end to end
// ---------------------------------------------------------------------------

// The scenario resolves every solver's work rate once: under memory-bound
// puzzles, discrete clients AND the fluid mass solve at mem_rate, exactly
// as a cpu-bound run whose hash_rate is that mem_rate.
TEST(MemoryBoundPow, FluidAndCohortSolveAtMemRate) {
  scenario::Spec mem_spec;
  mem_spec.duration = SimTime::seconds(20);
  mem_spec.attack_start = mem_spec.duration;
  mem_spec.attack_end = mem_spec.duration;
  workload::ModelSpec model = workload::ModelSpec::hybrid(2'000, 0.01);
  model.request_rate = 0.5;
  mem_spec.workload.model = model;
  mem_spec.workload.cpu = {50'000.0, 1, 1, 40e6};  // IoT-class client
  defense::PolicySpec policy = defense::PolicySpec::puzzles();
  policy.always_challenge = true;
  mem_spec.servers.policies = {policy};
  mem_spec.servers.difficulty = {2, 20};
  mem_spec.pow = scenario::PowKind::kMemoryBound;

  scenario::Spec cpu_spec = mem_spec;
  cpu_spec.pow = scenario::PowKind::kCpuBound;
  cpu_spec.workload.cpu.hash_rate = mem_spec.workload.cpu.mem_rate;

  const scenario::Result mem = scenario::run(mem_spec);
  const scenario::Result cpu = scenario::run(cpu_spec);
  EXPECT_EQ(tracedigest::full_digest(mem), tracedigest::full_digest(cpu));
  ASSERT_EQ(mem.fluid.size(), 1u);
  ASSERT_EQ(cpu.fluid.size(), 1u);
  EXPECT_GT(mem.fluid[0].total_attempts, 0u);
  EXPECT_EQ(mem.fluid[0].total_attempts, cpu.fluid[0].total_attempts);
  EXPECT_EQ(mem.fluid[0].total_completions, cpu.fluid[0].total_completions);
  EXPECT_EQ(mem.fluid[0].total_failures, cpu.fluid[0].total_failures);
  EXPECT_EQ(mem.fluid[0].solves_refused, cpu.fluid[0].solves_refused);
  EXPECT_EQ(tracedigest::digest(mem.fluid[0]),
            tracedigest::digest(cpu.fluid[0]));
}

TEST(MemoryBoundPow, ScenarioNarrowsDeviceGap) {
  // A weak-client population completes more under memory-bound PoW at a
  // comparable strong-device work target.
  auto base = [] {
    scenario::Spec s;
    s.seed = 5;
    s.duration = SimTime::seconds(20);
    s.attack_start = SimTime::seconds(5);
    s.attack_end = SimTime::seconds(15);
    s.workload.n_clients = 3;
    s.workload.request_rate = 5.0;
    s.workload.response_bytes = 5'000;
    s.workload.cpu = {50'000.0, 1, 1, 40e6};  // IoT-class client
    s.servers.listen_backlog = 128;
    s.servers.accept_backlog = 128;
    s.servers.service_rate = 150.0;
    s.servers.policies = {defense::PolicySpec::puzzles()};
    scenario::AttackSpec a;
    a.count = 3;
    a.rate = 400.0;
    s.attacks = {a};  // patched conn flood
    return s;
  }();

  scenario::Spec hash_spec = base;
  hash_spec.pow = scenario::PowKind::kCpuBound;
  hash_spec.servers.difficulty = {2, 17};  // 2.6 s/solve on the weak client
  const scenario::Result hash_res = scenario::run(hash_spec);

  scenario::Spec mem_spec = base;
  mem_spec.pow = scenario::PowKind::kMemoryBound;
  // ~0.8 s/solve on the weak client's memory.
  mem_spec.servers.difficulty = {2, 25};
  const scenario::Result mem_res = scenario::run(mem_spec);

  std::uint64_t hash_ok = 0, mem_ok = 0;
  for (const auto& c : hash_res.clients) hash_ok += c.total_completions;
  for (const auto& c : mem_res.clients) mem_ok += c.total_completions;
  EXPECT_GT(mem_ok, hash_ok);
}

}  // namespace
}  // namespace tcpz
