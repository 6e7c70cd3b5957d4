#include "probes.hpp"

#include <memory>
#include <stdexcept>
#include <vector>

#include "crypto/hmac.hpp"
#include "crypto/secret.hpp"
#include "crypto/sha256.hpp"
#include "net/simulator.hpp"
#include "puzzle/engine.hpp"
#include "shim/udp_transport.hpp"
#include "tcp/connector.hpp"
#include "tcp/listener.hpp"
#include "tcp/wire_format.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace tcpz;

constexpr std::uint32_t kServer = tcp::ipv4(10, 1, 0, 1);
constexpr int kBatch = 2000;  ///< handshakes per listener probe round
constexpr int kRounds = 5;

tcp::Connector make_connector(std::uint32_t n) {
  tcp::ConnectorConfig cc;
  cc.local_addr = tcp::ipv4(10, 2, 0, 0) + (n >> 14);
  cc.local_port = static_cast<std::uint16_t>(1024 + (n & 0x3fff));
  cc.remote_addr = kServer;
  return tcp::Connector(cc, n + 1);
}

std::shared_ptr<const puzzle::PuzzleEngine> make_engine(
    const ProbeShape& shape, const crypto::SecretKey& secret) {
  puzzle::EngineConfig ecfg;
  ecfg.sol_len = shape.sol_len;
  ecfg.expiry_ms = 60'000;
  if (shape.oracle) {
    return std::make_shared<puzzle::OraclePuzzleEngine>(secret, ecfg);
  }
  return std::make_shared<puzzle::Sha256PuzzleEngine>(secret, ecfg);
}

/// One timed section's seconds, accumulated into a per-op median later.
struct Timer {
  std::vector<double> ns_per_op;
  template <typename F>
  void time(int ops, F&& body) {
    const auto t0 = Clock::now();
    body();
    ns_per_op.push_back(seconds_since(t0) * 1e9 / ops);
  }
  [[nodiscard]] double median_ns() const { return median(ns_per_op); }
};

struct TcpCosts {
  double syn_ns = 0;
  double ack_ns = 0;
  double tick_ns = 0;
  double connector_tick_ns = 0;
};

/// Listener SYN / ACK / tick and Connector tick costs, with the half-open
/// table held at the shape's depth; also yields the segments the codec
/// probe encodes.
TcpCosts probe_tcp(const ProbeShape& shape, std::vector<tcp::Segment>& sample) {
  const auto secret = crypto::SecretKey::from_seed(11);
  const auto engine = make_engine(shape, secret);
  tcp::ListenerConfig cfg;
  cfg.local_addr = kServer;
  cfg.policy = shape.policy.factory();
  cfg.difficulty = shape.difficulty;
  cfg.listen_backlog = shape.listen_backlog > 0
                           ? shape.listen_backlog
                           : shape.listen_depth + 2 * kBatch + 16;
  cfg.accept_backlog = 2 * kBatch + 16;
  tcp::Listener listener(cfg, secret, 7, engine);
  const SimTime now = SimTime::seconds(1);
  Rng rng(3);

  std::uint32_t next_flow = 0;
  for (std::size_t i = 0; i < shape.listen_depth; ++i) {
    tcp::Connector conn = make_connector(next_flow++);
    (void)listener.on_segment(now, conn.start(now).segments.front());
  }

  Timer syn_t, ack_t, tick_t, conn_tick_t;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<tcp::Connector> conns;
    std::vector<tcp::Segment> syns;
    conns.reserve(kBatch);
    for (int j = 0; j < kBatch; ++j) {
      conns.push_back(make_connector(next_flow++));
      syns.push_back(conns.back().start(now).segments.front());
    }
    std::vector<std::vector<tcp::Segment>> replies(kBatch);
    syn_t.time(kBatch, [&] {
      for (int j = 0; j < kBatch; ++j) {
        replies[j] = listener.on_segment(now, syns[j]);
      }
    });
    conn_tick_t.time(kBatch, [&] {
      for (auto& conn : conns) (void)conn.on_tick(now);
    });
    tick_t.time(1, [&] { (void)listener.on_tick(now); });

    std::vector<tcp::Segment> acks;
    for (int j = 0; j < kBatch; ++j) {
      if (replies[j].empty()) continue;
      tcp::ConnectorOutput out = conns[j].on_segment(now, replies[j].front());
      if (out.solve) {
        std::uint64_t ops = 0;
        const puzzle::Solution sol =
            engine->solve(*out.solve, conns[j].flow_binding(), rng, ops);
        out = conns[j].on_solved(now, sol);
      }
      if (!out.segments.empty()) acks.push_back(out.segments.front());
      if (round == 0 && j < 64) {
        sample.push_back(replies[j].front());
        if (!out.segments.empty()) sample.push_back(out.segments.front());
      }
    }
    if (!acks.empty()) {
      ack_t.time(static_cast<int>(acks.size()), [&] {
        for (const auto& a : acks) (void)listener.on_segment(now, a);
      });
    }
    while (auto a = listener.accept(now)) listener.close(a->flow);
  }
  return {syn_t.median_ns(), ack_t.median_ns(), tick_t.median_ns(),
          conn_tick_t.median_ns()};
}

void probe_crypto_and_puzzle(const ProbeShape& shape, ProbeCosts& c) {
  const auto secret = crypto::SecretKey::from_seed(13);
  const auto engine = make_engine(shape, secret);
  std::uint8_t msg[32] = {};
  const crypto::HmacKey key(std::span<const std::uint8_t>(msg, sizeof msg));
  std::uint8_t sink = 0;
  c.hmac_ns = ns_per_op(
      [&](int i) {
        msg[0] = static_cast<std::uint8_t>(i);
        sink ^= key.mac(std::span<const std::uint8_t>(msg, sizeof msg))[0];
      },
      20'000);
  std::uint8_t block[64] = {};
  crypto::Sha256::State st = crypto::Sha256::initial_state();
  c.sha256_block_ns = ns_per_op(
      [&](int i) {
        block[0] = static_cast<std::uint8_t>(i);
        crypto::Sha256::compress(st, block);
      },
      50'000);
  sink ^= static_cast<std::uint8_t>(st[0]);

  std::vector<puzzle::FlowBinding> flows;
  for (std::uint32_t i = 0; i < 256; ++i) {
    flows.push_back(make_connector(i).flow_binding());
  }
  const std::uint32_t ts = 1000;
  std::vector<puzzle::Challenge> challenges;
  c.make_challenge_ns = ns_per_op(
      [&](int i) {
        const auto ch = engine->make_challenge(flows[i & 255], ts,
                                               shape.difficulty);
        if (challenges.size() < flows.size()) challenges.push_back(ch);
        sink ^= ch.preimage[0];
      },
      4096);
  Rng rng(5);
  std::vector<puzzle::Solution> solutions;
  std::uint64_t hash_ops = 0;
  for (std::size_t k = 0; k < challenges.size(); ++k) {
    solutions.push_back(engine->solve(challenges[k], flows[k], rng, hash_ops));
  }
  c.solve_ns = ns_per_op(
      [&](int i) {
        const std::size_t k = static_cast<std::size_t>(i) % challenges.size();
        sink ^= engine->solve(challenges[k], flows[k], rng, hash_ops)
                    .values[0][0];
      },
      shape.oracle ? 4096 : 256);
  int valid = 0;
  const int n_verify = 4096;
  constexpr int kBatches = 7;
  c.verify_ns = ns_per_op(
      [&](int i) {
        const std::size_t k = static_cast<std::size_t>(i) % solutions.size();
        valid += engine->verify(flows[k], solutions[k], shape.difficulty,
                                ts + 10)
                     .ok;
      },
      n_verify, kBatches);
  // A probe of the reject path would time the wrong thing.
  if (valid != n_verify * kBatches) {
    throw std::runtime_error("probe: solved puzzles failed verification");
  }
  // Keep the results observable so the timed calls cannot be elided.
  if (sink == 0xff) std::puts("");
}

void probe_codec(const std::vector<tcp::Segment>& sample, ProbeCosts& c) {
  if (sample.empty()) return;
  std::vector<Bytes> wire;
  for (const auto& s : sample) wire.push_back(tcp::encode_segment(s));
  std::size_t sink = 0;
  c.encode_ns = ns_per_op(
      [&](int i) {
        sink += tcp::encode_segment(sample[static_cast<std::size_t>(i) %
                                           sample.size()])
                    .size();
      },
      20'000);
  c.decode_ns = ns_per_op(
      [&](int i) {
        sink += tcp::decode_segment(wire[static_cast<std::size_t>(i) %
                                         wire.size()])
                    .segment.has_value();
      },
      20'000);
  if (sink == 0) std::puts("");
}

/// Self-rescheduling timers keep ~1k events pending in a net::Simulator.
void probe_events(ProbeCosts& c) {
  struct Ticker {
    net::Simulator* sim;
    Rng* rng;
    void arm() {
      sim->schedule_in(SimTime::microseconds(1 + static_cast<std::int64_t>(
                                                     rng->next() % 1000)),
                       [this] { arm(); });
    }
  };
  net::Simulator sim;
  Rng rng(9);
  std::vector<Ticker> tickers(1024, Ticker{&sim, &rng});
  for (auto& t : tickers) t.arm();
  std::vector<double> ns;
  for (int b = 0; b < 7; ++b) {
    const std::uint64_t e0 = sim.events_processed();
    const auto t0 = Clock::now();
    sim.run_until(sim.now() + SimTime::milliseconds(50));
    const double dt = seconds_since(t0);
    ns.push_back(dt * 1e9 /
                 static_cast<double>(sim.events_processed() - e0));
  }
  c.event_ns = median(std::move(ns));
}

/// Loopback UDP send/recv cost of the segment transport.
void probe_udp(const std::vector<tcp::Segment>& sample, ProbeCosts& c) {
  if (sample.empty()) return;
  shim::UdpTransport a(0), b(0);
  tcp::Segment seg = sample.front();
  seg.daddr = kServer;
  a.add_route(kServer, b.bound_port());
  constexpr int kBurst = 64;  // well inside the default socket buffer
  Timer send_t, recv_t;
  for (int round = 0; round < 20; ++round) {
    send_t.time(kBurst, [&] {
      for (int i = 0; i < kBurst; ++i) (void)a.send(seg);
    });
    int got = 0;
    recv_t.time(kBurst, [&] {
      while (got < kBurst && b.recv(100)) ++got;
    });
  }
  c.udp_send_ns = send_t.median_ns();
  c.udp_recv_ns = recv_t.median_ns();
}

}  // namespace

ProbeCosts run_probes(const ProbeShape& shape) {
  ProbeCosts c;
  std::vector<tcp::Segment> sample;
  const TcpCosts t = probe_tcp(shape, sample);
  c.listener_syn_ns = t.syn_ns;
  c.listener_ack_ns = t.ack_ns;
  c.listener_tick_ns = t.tick_ns;
  c.connector_tick_ns = t.connector_tick_ns;
  c.plain_syn_ns = t.syn_ns;
  c.plain_ack_ns = t.ack_ns;
  if (!(shape.policy == defense::PolicySpec::none())) {
    ProbeShape plain = shape;
    plain.policy = defense::PolicySpec::none();
    plain.listen_depth = 0;
    plain.listen_backlog = 0;
    std::vector<tcp::Segment> unused;
    const TcpCosts p = probe_tcp(plain, unused);
    c.plain_syn_ns = p.syn_ns;
    c.plain_ack_ns = p.ack_ns;
  }
  probe_crypto_and_puzzle(shape, c);
  probe_codec(sample, c);
  probe_events(c);
  probe_udp(sample, c);
  return c;
}

void report_probe_costs(const ProbeCosts& c, Report& out) {
  out.add("net.event_ns", c.event_ns, "ns");
  out.add("crypto.hmac_ns", c.hmac_ns, "ns");
  out.add("crypto.sha256_block_ns", c.sha256_block_ns, "ns");
  out.add("puzzle.make_challenge_ns", c.make_challenge_ns, "ns");
  out.add("puzzle.verify_ns", c.verify_ns, "ns");
  out.add("puzzle.solve_ns", c.solve_ns, "ns");
  out.add("tcp.listener_syn_ns", c.listener_syn_ns, "ns");
  out.add("tcp.listener_ack_ns", c.listener_ack_ns, "ns");
  out.add("tcp.listener_tick_ns", c.listener_tick_ns, "ns");
  out.add("tcp.connector_tick_ns", c.connector_tick_ns, "ns");
  out.add("tcp.encode_ns", c.encode_ns, "ns");
  out.add("tcp.decode_ns", c.decode_ns, "ns");
  out.add("shim.udp_send_ns", c.udp_send_ns, "ns");
  out.add("shim.udp_recv_ns", c.udp_recv_ns, "ns");
}

double listener_crypto_ns(const ProbeCosts& c, const SimCounts& n) {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  return d(n.challenges) * (c.make_challenge_ns + c.hmac_ns) +
         d(n.solution_acks) * (c.verify_ns + c.hmac_ns) +
         d(n.cookies) * c.hmac_ns;
}

double tcp_ns(const ProbeCosts& c, const SimCounts& n) {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  return d(n.challenges) * c.listener_syn_ns +
         d(n.syns - n.challenges) * c.plain_syn_ns +
         d(n.solution_acks) * c.listener_ack_ns +
         d(n.acks - n.solution_acks) * c.plain_ack_ns +
         d(n.listener_ticks) * c.listener_tick_ns +
         d(n.connector_ticks) * c.connector_tick_ns - listener_crypto_ns(c, n);
}

void report_sim_shares(const ProbeCosts& c, const SimCounts& n, Report& out) {
  const double run_ns = n.run_s * 1e9;
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  // Puzzle solves are oracle HMACs on the agents' side; the listener's own
  // crypto is inside its SYN/ACK costs and tcp_ns moves it to crypto.
  const double crypto_ns =
      listener_crypto_ns(c, n) + d(n.solution_acks) * c.solve_ns;
  out.add("net.events", d(n.events), "count");
  out.add("net.share", d(n.events) * c.event_ns / run_ns, "ratio");
  out.add("crypto.share", crypto_ns / run_ns, "ratio");
  out.add("tcp.share", tcp_ns(c, n) / run_ns, "ratio");
}

void report_wire_absent(Report& out) {
  for (const char* name :
       {"wire.rx_datagrams", "wire.tx_datagrams", "wire.wakeups",
        "wire.decode_errors", "wire.generator_lag_slots"}) {
    out.add(name, 0, "count");
  }
  out.add("wire.datagrams_per_wakeup", 0, "ratio");
  out.add("wire.storm_cpu_s", 0, "s");
  out.add("wire.connect_mean_ms", 0, "ms");
  out.add("wire.connect_max_ms", 0, "ms");
  out.add("wire.connect_p50_ms", 0, "ms");
  out.add("wire.connect_p99_ms", 0, "ms");
}

}  // namespace perfbench
