// Golden-trace regression tests for the defense-policy layer: the
// fixed-seed scaled scenario and a fixed 3-replica fleet scenario
// (trace_digest.hpp fixtures, patched conn flood) are run under each
// canonical policy, the full ListenerCounters struct is digested
// (FNV-1a over every field, in declaration order), and the digest is
// compared against recorded values — so policy work can't silently drift
// the reproduction.
//
// If one of these digests changes, either (a) you changed handshake/defense
// semantics — decide explicitly whether that is intended, and if so,
// re-record (the tests print the computed digests on failure in hex), or
// (b) you added a ListenerCounters field, which re-shapes every digest.
#include <gtest/gtest.h>

#include <string>

#include "defense/spec.hpp"
#include "offense/spec.hpp"
#include "scenario/spec.hpp"
#include "trace_digest.hpp"

namespace tcpz {
namespace {

using tracedigest::digest;
using tracedigest::fnv;

const offense::StrategySpec kAttack = offense::StrategySpec::conn_flood();

std::uint64_t fleet_replica_digest(const scenario::Result& r) {
  std::uint64_t h = tracedigest::kFnvBasis;
  for (const auto& rep : r.servers) h = fnv(h, digest(rep.counters));
  return h;
}

struct Golden {
  defense::PolicySpec::Kind kind;
  const char* policy_name;
  std::uint64_t sim_digest;
  std::uint64_t fleet_replicas_digest;
  std::uint64_t fleet_cluster_digest;
};

constexpr Golden kGolden[] = {
    {defense::PolicySpec::Kind::kNone, "none", 0xe7c58bf12544fea7ull,
     0x0a2798261b7460f0ull, 0x0a0a678c717deabaull},
    {defense::PolicySpec::Kind::kSynCookies, "syncookies",
     0x29c0d4117d01351bull, 0x21105d1329682978ull, 0x28a7c1c1c63df580ull},
    {defense::PolicySpec::Kind::kPuzzles, "puzzles", 0x7aa76780319b2d5cull,
     0x55262b8294a8772full, 0x1641b04ca0693f91ull},
};

class PolicyTrace : public ::testing::TestWithParam<Golden> {};

TEST_P(PolicyTrace, ScaledScenarioMatchesGoldenCounters) {
  const Golden& g = GetParam();
  const scenario::Result r = scenario::run(
      tracedigest::scaled_fixture(defense::PolicySpec::of(g.kind), kAttack));
  const std::uint64_t d = digest(r.server().counters);
  EXPECT_EQ(d, g.sim_digest) << "counter trace drifted for policy "
                             << g.policy_name << "; computed 0x" << std::hex
                             << d;
  EXPECT_EQ(r.server().policy, g.policy_name);
}

TEST_P(PolicyTrace, FleetScenarioMatchesGoldenCounters) {
  const Golden& g = GetParam();
  const scenario::Result r = scenario::run(
      tracedigest::fleet_fixture(defense::PolicySpec::of(g.kind), kAttack));
  const std::uint64_t dr = fleet_replica_digest(r);
  const std::uint64_t dc = digest(r.cluster);
  EXPECT_EQ(dr, g.fleet_replicas_digest)
      << "per-replica counter trace drifted for policy " << g.policy_name
      << "; computed 0x" << std::hex << dr;
  EXPECT_EQ(dc, g.fleet_cluster_digest)
      << "cluster counter trace drifted for policy " << g.policy_name
      << "; computed 0x" << std::hex << dc;
  for (const auto& rep : r.servers) EXPECT_EQ(rep.policy, g.policy_name);
}

INSTANTIATE_TEST_SUITE_P(AllModes, PolicyTrace, ::testing::ValuesIn(kGolden),
                         [](const auto& info) {
                           return std::string(info.param.policy_name);
                         });

}  // namespace
}  // namespace tcpz
