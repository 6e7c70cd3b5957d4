// Tests for the extension modules: CSV report export, per-user pricing
// analysis, and the memory-bound PoW plumbing.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "game/heterogeneous.hpp"
#include "defense/spec.hpp"
#include "scenario/spec.hpp"
#include "sim/report_io.hpp"

namespace tcpz {
namespace {

// ---------------------------------------------------------------------------
// CSV export
// ---------------------------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::size_t count_lines(const std::string& s) {
  std::size_t n = 0;
  for (char c : s) n += (c == '\n');
  return n;
}

TEST(ReportIo, WritesAllCsvFamilies) {
  scenario::Spec s;
  s.seed = 3;
  s.duration = SimTime::seconds(12);
  s.attack_start = SimTime::seconds(4);
  s.attack_end = SimTime::seconds(9);
  s.workload.n_clients = 2;
  s.workload.request_rate = 5.0;
  s.workload.response_bytes = 5'000;
  s.servers.listen_backlog = 64;
  s.servers.accept_backlog = 64;
  s.servers.service_rate = 100.0;
  s.servers.difficulty = {2, 14};
  s.servers.policies = {defense::PolicySpec::puzzles()};
  scenario::AttackSpec a;
  a.count = 2;
  a.rate = 200.0;
  s.attacks = {a};  // patched conn flood
  const scenario::Result res = scenario::run(s);

  const std::string prefix = ::testing::TempDir() + "tcpz_report";
  EXPECT_EQ(sim::write_csv(res, s, prefix), 5u);

  const std::string throughput = slurp(prefix + "_throughput.csv");
  EXPECT_NE(throughput.find("t_s,server_tx_mbps,client0_rx_mbps,client1_rx_mbps"),
            std::string::npos);
  EXPECT_EQ(count_lines(throughput), 1 + s.duration_bins());

  const std::string queues = slurp(prefix + "_queues.csv");
  EXPECT_NE(queues.find("listen,accept"), std::string::npos);
  EXPECT_EQ(count_lines(queues), 1 + s.duration_bins());

  const std::string summary = slurp(prefix + "_summary.csv");
  EXPECT_NE(summary.find("established_total,"), std::string::npos);
  EXPECT_NE(summary.find("challenges_sent,"), std::string::npos);

  // Connection-time file has one value per completed handshake.
  const std::string times = slurp(prefix + "_conn_times.csv");
  std::size_t samples = 0;
  for (const auto& c : res.clients) samples += c.conn_time_ms.count();
  EXPECT_EQ(count_lines(times), 1 + samples);
}

TEST(ReportIo, ThrowsOnUnwritablePath) {
  scenario::Spec s;
  s.duration = SimTime::seconds(1);
  s.attack_start = s.duration;
  s.attack_end = s.duration;
  s.workload.n_clients = 1;
  const scenario::Result res = scenario::run(s);
  EXPECT_THROW((void)sim::write_csv(res, s, "/nonexistent-dir/x"),
               std::runtime_error);
}

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

TEST(MemoryBoundPow, SolveTimeUsesMemRate) {
  sim::CpuModel cpu({100'000.0, 4, 1, 50e6});
  // 1e6 work units: 10 s at the hash rate, 20 ms at the mem rate.
  const SimTime hash_done = cpu.submit_solve(SimTime::zero(), 1'000'000);
  EXPECT_NEAR(hash_done.to_seconds(), 10.0, 1e-9);
  sim::CpuModel cpu2({100'000.0, 4, 1, 50e6});
  const SimTime mem_done =
      cpu2.submit_solve_at_rate(SimTime::zero(), 1'000'000, 50e6);
  EXPECT_NEAR(mem_done.to_seconds(), 0.02, 1e-9);
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
