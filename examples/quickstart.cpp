// Quickstart: the full puzzle lifecycle with the REAL SHA-256 scheme.
//
//   1. profile -> plan a difficulty with the Stackelberg theory (§4)
//   2. stand up a puzzle-protected listener
//   3. run one complete challenged handshake: SYN -> SYN-ACK+challenge ->
//      brute-force solve -> ACK+solution -> established
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <memory>

#include "crypto/secret.hpp"
#include "defense/spec.hpp"
#include "game/planner.hpp"
#include "puzzle/engine.hpp"
#include "tcp/connector.hpp"
#include "tcp/listener.hpp"

using namespace tcpz;

int main() {
  std::printf("== tcppuzzles quickstart ==\n\n");

  // --- 1. Plan the difficulty from profile data (§4.3/§4.4) ---------------
  game::ProtectedServerSettings settings;
  settings.local_addr = tcp::ipv4(10, 1, 0, 1);
  settings.local_port = 80;
  // The paper's three client CPUs (Fig. 3a) and server stress test (Fig. 3b).
  settings.plan.client_hash_rates = {380'000.0, 330'000.0, 344'725.0};
  for (double c : {100.0, 500.0, 1000.0}) {
    settings.plan.stress_test.push_back({c, 1.1 * c});
  }
  settings.plan.form = game::NashForm::kPaperExample;
  settings.engine.sol_len = 4;

  auto server = game::make_protected_server(settings,
                                           crypto::SecretKey::random(),
                                           /*seed=*/1);
  std::printf("profiled w_av = %.0f hashes, alpha = %.2f\n", server.plan.w_av,
              server.plan.alpha);
  std::printf("planned Nash difficulty: %s  (expected %.0f hashes/solve, "
              "verify cost %.1f hashes, guess probability 2^-%u)\n\n",
              server.plan.difficulty.to_string().c_str(),
              server.plan.difficulty.expected_solve_hashes(),
              server.plan.difficulty.expected_verify_hashes(),
              server.plan.difficulty.guess_bits());

  // --- 2. A client stack ----------------------------------------------------
  tcp::ConnectorConfig ccfg;
  ccfg.local_addr = tcp::ipv4(10, 2, 0, 7);
  ccfg.local_port = 40'000;
  ccfg.remote_addr = settings.local_addr;
  ccfg.remote_port = settings.local_port;
  tcp::Connector client(ccfg, /*seed=*/2);

  // For the demo, force the challenge path (no attack is filling queues) and
  // use a difficulty a laptop solves instantly.
  server.listener->set_difficulty({2, 12});
  defense::PolicySpec policy = defense::PolicySpec::puzzles();
  policy.always_challenge = true;
  tcp::ListenerConfig lcfg = server.listener->config();
  lcfg.policy = policy.factory();
  auto listener = std::make_unique<tcp::Listener>(
      lcfg, crypto::SecretKey::from_seed(3), 4, server.engine);
  auto engine = server.engine;

  // --- 3. One challenged handshake, real crypto end to end ----------------
  const SimTime t0 = SimTime::milliseconds(1);
  auto out = client.start(t0);
  std::printf("client  -> %s\n", out.segments[0].summary().c_str());

  auto synacks = listener->on_segment(t0, out.segments[0]);
  std::printf("server  -> %s\n", synacks[0].summary().c_str());
  const auto& copt = *synacks[0].options.challenge;
  std::printf("          challenge: k=%u m=%u l=%u preimage=%s\n", copt.k,
              copt.m, copt.sol_len, to_hex(copt.preimage).c_str());

  out = client.on_segment(t0, synacks[0]);
  if (!out.solve) {
    std::printf("no challenge received?\n");
    return 1;
  }
  Rng rng(5);
  std::uint64_t hash_ops = 0;
  const puzzle::Solution sol =
      engine->solve(*out.solve, client.flow_binding(), rng, hash_ops);
  std::printf("client  solved in %llu SHA-256 operations:\n",
              static_cast<unsigned long long>(hash_ops));
  for (std::size_t i = 0; i < sol.values.size(); ++i) {
    std::printf("          s%zu = %s\n", i + 1, to_hex(sol.values[i]).c_str());
  }

  out = client.on_solved(t0, sol);
  std::printf("client  -> %s\n", out.segments[0].summary().c_str());
  (void)listener->on_segment(t0, out.segments[0]);

  const auto conn = listener->accept(t0);
  if (conn && conn->path == tcp::EstablishPath::kPuzzle) {
    std::printf("server  accepted the connection via the puzzle path "
                "(peer mss=%u wscale=%u)\n\n",
                conn->peer_mss, conn->peer_wscale);
    std::printf("counters: challenges=%llu solutions_valid=%llu "
                "crypto_hash_ops=%llu\n",
                static_cast<unsigned long long>(
                    listener->counters().challenges_sent),
                static_cast<unsigned long long>(
                    listener->counters().solutions_valid),
                static_cast<unsigned long long>(
                    listener->counters().crypto_hash_ops));
    std::printf("\nquickstart OK\n");
    return 0;
  }
  std::printf("handshake failed\n");
  return 1;
}
