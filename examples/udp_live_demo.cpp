// Live demo over real sockets: a puzzle-protected server thread and a
// client thread exchange the full wire format (TCP header + options +
// checksum) in UDP datagrams on 127.0.0.1, with genuine SHA-256 brute-force
// solving. This is the closest laptop-runnable equivalent of the paper's
// kernel patch.
//
//   ./build/examples/udp_live_demo [connections] [m]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "core/tcppuzzles.hpp"
#include "defense/spec.hpp"
#include "shim/udp_transport.hpp"

using namespace tcpz;

namespace {

constexpr std::uint32_t kServerAddr = tcp::ipv4(10, 1, 0, 1);
constexpr std::uint32_t kClientAddr = tcp::ipv4(10, 2, 0, 1);

SimTime since(const std::chrono::steady_clock::time_point& t0) {
  return SimTime::from_seconds(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace

int main(int argc, char** argv) {
  const int n_conns = argc > 1 ? std::atoi(argv[1]) : 5;
  const int m = argc > 2 ? std::atoi(argv[2]) : 12;

  const auto secret = crypto::SecretKey::random();
  puzzle::EngineConfig ecfg;
  ecfg.sol_len = 4;
  ecfg.expiry_ms = 60'000;
  auto engine = std::make_shared<puzzle::Sha256PuzzleEngine>(secret, ecfg);

  shim::UdpTransport server_net(0), client_net(0);
  server_net.add_route(kClientAddr, client_net.bound_port());
  client_net.add_route(kServerAddr, server_net.bound_port());
  std::printf("server on udp/127.0.0.1:%u, client on udp/127.0.0.1:%u, "
              "difficulty (2,%d)\n\n",
              server_net.bound_port(), client_net.bound_port(), m);

  std::atomic<int> accepted{0};
  std::atomic<bool> stop{false};
  const auto t0 = std::chrono::steady_clock::now();

  std::thread server([&] {
    tcp::ListenerConfig lcfg;
    lcfg.local_addr = kServerAddr;
    lcfg.local_port = 80;
    defense::PolicySpec policy = defense::PolicySpec::puzzles();
    policy.always_challenge = true;
    lcfg.policy = policy.factory();
    lcfg.difficulty = {2, static_cast<std::uint8_t>(m)};
    tcp::Listener listener(lcfg, secret, 1, engine);
    while (!stop.load()) {
      if (const auto seg = server_net.recv(20)) {
        for (const auto& out : listener.on_segment(since(t0), *seg)) {
          (void)server_net.send(out);
        }
      }
      while (const auto conn = listener.accept(since(t0))) {
        ++accepted;
        std::printf("  server: accepted %s:%u via %s path\n",
                    tcp::ip_to_string(conn->flow.raddr).c_str(),
                    conn->flow.rport,
                    conn->path == tcp::EstablishPath::kPuzzle ? "puzzle"
                                                              : "queue");
        listener.close(conn->flow);
      }
    }
    const auto& c = listener.counters();
    std::printf("\nserver counters: challenges=%llu solutions_valid=%llu "
                "hash_ops=%llu\n",
                static_cast<unsigned long long>(c.challenges_sent),
                static_cast<unsigned long long>(c.solutions_valid),
                static_cast<unsigned long long>(c.crypto_hash_ops));
  });

  Rng rng(static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count()));
  for (int i = 0; i < n_conns; ++i) {
    tcp::ConnectorConfig ccfg;
    ccfg.local_addr = kClientAddr;
    ccfg.local_port = static_cast<std::uint16_t>(40'000 + i);
    ccfg.remote_addr = kServerAddr;
    ccfg.remote_port = 80;
    tcp::Connector conn(ccfg, rng.next());

    const auto conn_start = std::chrono::steady_clock::now();
    auto out = conn.start(since(t0));
    for (const auto& seg : out.segments) (void)client_net.send(seg);

    while (conn.state() != tcp::ConnectorState::kEstablished &&
           conn.state() != tcp::ConnectorState::kFailed) {
      const auto seg = client_net.recv(200);
      if (!seg) break;
      out = conn.on_segment(since(t0), *seg);
      if (out.solve) {
        std::uint64_t ops = 0;
        const auto sol = engine->solve(*out.solve, conn.flow_binding(), rng, ops);
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - conn_start)
                              .count();
        std::printf("client %d: solved %llu hashes in %.1f ms (wall)\n", i,
                    static_cast<unsigned long long>(ops), ms);
        out = conn.on_solved(since(t0), sol);
      }
      for (const auto& seg2 : out.segments) (void)client_net.send(seg2);
      if (out.established) break;
    }
  }

  // Give the server a beat to drain, then stop.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop = true;
  server.join();

  std::printf("established %d/%d connections over real UDP datagrams "
              "(tx=%llu rx=%llu)\n",
              accepted.load(), n_conns,
              static_cast<unsigned long long>(client_net.stats().tx_datagrams),
              static_cast<unsigned long long>(client_net.stats().rx_datagrams));
  return accepted.load() == n_conns ? 0 : 1;
}
