// Tests for the full-segment wire codec (TCP header + checksum) and the UDP
// loopback transport, culminating in a real challenged handshake between
// two threads over actual sockets with real SHA-256 puzzle solving.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "crypto/secret.hpp"
#include "defense/spec.hpp"
#include "offense/spec.hpp"
#include "policy_fixtures.hpp"
#include "puzzle/engine.hpp"
#include "scenario/spec.hpp"
#include "shim/udp_transport.hpp"
#include "tcp/connector.hpp"
#include "tcp/listener.hpp"
#include "tcp/wire_format.hpp"
#include "util/rng.hpp"
#include "wire/host.hpp"
#include "wire/storm.hpp"

namespace tcpz::tcp {
namespace {

Segment sample_segment() {
  Segment s;
  s.saddr = ipv4(10, 2, 0, 1);
  s.daddr = ipv4(10, 1, 0, 1);
  s.sport = 40'000;
  s.dport = 80;
  s.seq = 0x12345678;
  s.ack = 0x9abcdef0;
  s.flags = kSyn | kAck;
  s.window = 29'200;
  s.payload_bytes = 777;
  s.options.mss = 1460;
  s.options.wscale = 7;
  s.options.ts = TimestampsOption{111, 222};
  return s;
}

// ---------------------------------------------------------------------------
// Internet checksum
// ---------------------------------------------------------------------------

TEST(InternetChecksum, Rfc1071Example) {
  // The classic example: 00 01 f2 03 f4 f5 f6 f7 -> checksum 0x220d.
  const Bytes data = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(InternetChecksum, OddLengthHandled) {
  const Bytes data = {0x01, 0x02, 0x03};
  // 0x0102 + 0x0300 = 0x0402 -> ~ = 0xfbfd.
  EXPECT_EQ(internet_checksum(data), 0xfbfd);
}

TEST(InternetChecksum, ZeroForComplementedData) {
  Bytes data = {0x12, 0x34, 0x56, 0x78};
  const std::uint16_t csum = internet_checksum(data);
  data.push_back(static_cast<std::uint8_t>(csum >> 8));
  data.push_back(static_cast<std::uint8_t>(csum));
  EXPECT_EQ(internet_checksum(data), 0);
}

// ---------------------------------------------------------------------------
// Segment codec
// ---------------------------------------------------------------------------

TEST(WireCodec, RoundTripPreservesEverything) {
  const Segment s = sample_segment();
  const Bytes wire = encode_segment(s);
  const auto result = decode_segment(wire);
  ASSERT_TRUE(result.segment.has_value()) << to_string(*result.error);
  const Segment& d = *result.segment;
  EXPECT_EQ(d.saddr, s.saddr);
  EXPECT_EQ(d.daddr, s.daddr);
  EXPECT_EQ(d.sport, s.sport);
  EXPECT_EQ(d.dport, s.dport);
  EXPECT_EQ(d.seq, s.seq);
  EXPECT_EQ(d.ack, s.ack);
  EXPECT_EQ(d.flags, s.flags);
  EXPECT_EQ(d.window, s.window);
  EXPECT_EQ(d.payload_bytes, s.payload_bytes);
  EXPECT_EQ(d.options, s.options);
}

TEST(WireCodec, RoundTripWithPuzzleBlocks) {
  Segment s = sample_segment();
  ChallengeOption c;
  c.k = 2;
  c.m = 17;
  c.sol_len = 4;
  c.preimage = {1, 2, 3, 4};
  s.options.challenge = c;
  const auto result = decode_segment(encode_segment(s));
  ASSERT_TRUE(result.segment.has_value());
  EXPECT_EQ(result.segment->options, s.options);
}

TEST(WireCodec, HeaderLengthEncodesOptions) {
  Segment s = sample_segment();  // 12 bytes of options
  const Bytes wire = encode_segment(s);
  const std::uint8_t data_off = wire[kWirePreambleSize + 12] >> 4;
  EXPECT_EQ(data_off * 4u, kTcpHeaderSize + s.options.wire_size());
}

TEST(WireCodec, AnyBitFlipIsDetected) {
  const Segment s = sample_segment();
  const Bytes wire = encode_segment(s);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    Bytes bad = wire;
    const std::size_t byte = rng.uniform_u64(bad.size());
    bad[byte] ^= static_cast<std::uint8_t>(1u << rng.uniform_u64(8));
    const auto result = decode_segment(bad);
    if (result.segment.has_value()) {
      // A flip in the preamble's payload length is outside the TCP checksum;
      // everything else must be caught.
      EXPECT_TRUE(byte >= 8 && byte < 12)
          << "undetected flip at byte " << byte;
    }
  }
}

TEST(WireCodec, TruncationRejected) {
  const Bytes wire = encode_segment(sample_segment());
  for (std::size_t cut = 0; cut < kWirePreambleSize + kTcpHeaderSize; ++cut) {
    const auto result = decode_segment(
        std::span<const std::uint8_t>(wire.data(), cut));
    EXPECT_FALSE(result.segment.has_value());
    EXPECT_EQ(result.error, WireDecodeError::kTruncated);
  }
}

TEST(WireCodec, BadDataOffsetRejected) {
  Bytes wire = encode_segment(sample_segment());
  wire[kWirePreambleSize + 12] = 0xf0;  // claims 60-byte header
  EXPECT_EQ(decode_segment(wire).error, WireDecodeError::kBadDataOffset);
  wire[kWirePreambleSize + 12] = 0x10;  // claims 4-byte header (< minimum)
  EXPECT_EQ(decode_segment(wire).error, WireDecodeError::kBadDataOffset);
}

TEST(WireCodec, ChecksumCoversAddresses) {
  // The pseudo-header binds the addresses: rewriting saddr must invalidate.
  Bytes wire = encode_segment(sample_segment());
  wire[0] ^= 0x01;
  EXPECT_EQ(decode_segment(wire).error, WireDecodeError::kBadChecksum);
}

}  // namespace
}  // namespace tcpz::tcp

namespace tcpz::shim {
namespace {

using namespace tcpz::tcp;

TEST(UdpTransport, BindsEphemeralPort) {
  UdpTransport t(0);
  EXPECT_GT(t.bound_port(), 0);
}

TEST(UdpTransport, SendRecvRoundTrip) {
  UdpTransport a(0), b(0);
  constexpr std::uint32_t kAddrB = ipv4(10, 9, 9, 9);
  a.add_route(kAddrB, b.bound_port());

  Segment s;
  s.saddr = ipv4(10, 8, 8, 8);
  s.daddr = kAddrB;
  s.sport = 1;
  s.dport = 2;
  s.flags = kSyn;
  s.options.mss = 1400;
  ASSERT_TRUE(a.send(s));

  const auto got = b.recv(2000);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->daddr, kAddrB);
  EXPECT_EQ(got->options.mss, 1400);
  EXPECT_EQ(a.stats().tx_datagrams, 1u);
  EXPECT_EQ(b.stats().rx_datagrams, 1u);
}

TEST(UdpTransport, UnroutableCounted) {
  UdpTransport a(0);
  Segment s;
  s.daddr = 12345;
  EXPECT_FALSE(a.send(s));
  EXPECT_EQ(a.stats().unroutable, 1u);
}

TEST(UdpTransport, RecvTimesOut) {
  UdpTransport a(0);
  EXPECT_FALSE(a.recv(10).has_value());
}

// An undecodable datagram between two valid ones is counted and skipped:
// one non-blocking drain still yields both valid segments.
TEST(UdpTransport, DrainSkipsUndecodableDatagram) {
  UdpTransport a(0), b(0);
  constexpr std::uint32_t kAddrB = ipv4(10, 9, 9, 9);
  a.add_route(kAddrB, b.bound_port());
  Segment s;
  s.saddr = ipv4(10, 8, 8, 8);
  s.daddr = kAddrB;
  s.flags = kSyn;

  s.sport = 1;
  ASSERT_TRUE(a.send(s));
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_port = htons(b.bound_port());
  to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const std::uint8_t junk[3] = {1, 2, 3};
  ASSERT_EQ(::sendto(fd, junk, sizeof junk, 0,
                     reinterpret_cast<const sockaddr*>(&to), sizeof to),
            static_cast<ssize_t>(sizeof junk));
  ::close(fd);
  s.sport = 2;
  ASSERT_TRUE(a.send(s));

  // Loopback sendto queues each datagram on b's socket before returning.
  std::vector<std::uint16_t> got;
  while (const auto seg = b.recv(0)) got.push_back(seg->sport);
  EXPECT_EQ(got, (std::vector<std::uint16_t>{1, 2}));
  EXPECT_EQ(b.stats().rx_datagrams, 3u);
  EXPECT_EQ(b.stats().decode_errors, 1u);
}

// A peer with no configured route is answered on the UDP port its datagram
// came from.
TEST(UdpTransport, RepliesToLearnedSourcePort) {
  UdpTransport a(0), b(0);
  constexpr std::uint32_t kAddrA = ipv4(10, 8, 8, 8);
  constexpr std::uint32_t kAddrB = ipv4(10, 9, 9, 9);
  a.add_route(kAddrB, b.bound_port());

  Segment s;
  s.saddr = kAddrA;
  s.daddr = kAddrB;
  s.flags = kSyn;
  ASSERT_TRUE(a.send(s));
  const auto req = b.recv(2000);
  ASSERT_TRUE(req.has_value());

  Segment reply;
  reply.saddr = kAddrB;
  reply.daddr = req->saddr;
  reply.flags = kSyn | kAck;
  ASSERT_TRUE(b.send(reply));
  EXPECT_EQ(b.stats().unroutable, 0u);
  const auto got = a.recv(2000);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->flags, kSyn | kAck);
}

// ---------------------------------------------------------------------------
// The headline shim test: a real challenged handshake between two threads
// over loopback UDP, with genuine SHA-256 brute-force solving.
// ---------------------------------------------------------------------------

TEST(UdpTransport, RealPuzzleHandshakeOverLoopback) {
  constexpr std::uint32_t kServerAddr = ipv4(10, 1, 0, 1);
  constexpr std::uint32_t kClientAddr = ipv4(10, 2, 0, 1);

  const auto secret = crypto::SecretKey::from_seed(77);
  puzzle::EngineConfig ecfg;
  ecfg.sol_len = 4;
  ecfg.expiry_ms = 60'000;
  auto engine = std::make_shared<puzzle::Sha256PuzzleEngine>(secret, ecfg);

  UdpTransport server_net(0), client_net(0);
  server_net.add_route(kClientAddr, client_net.bound_port());
  client_net.add_route(kServerAddr, server_net.bound_port());

  std::atomic<bool> server_ok{false};

  std::thread server_thread([&] {
    tcp::ListenerConfig lcfg;
    lcfg.local_addr = kServerAddr;
    lcfg.local_port = 80;
    lcfg.policy = fixtures::always_puzzles().factory();
    lcfg.difficulty = {2, 10};
    tcp::Listener listener(lcfg, secret, 1, engine);

    const auto started = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - started <
           std::chrono::seconds(10)) {
      const auto seg = server_net.recv(50);
      const auto now = SimTime::from_seconds(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        started)
              .count());
      if (seg) {
        for (const auto& out : listener.on_segment(now, *seg)) {
          (void)server_net.send(out);
        }
      }
      if (listener.accept(now)) {
        server_ok = true;
        return;
      }
    }
  });

  tcp::ConnectorConfig ccfg;
  ccfg.local_addr = kClientAddr;
  ccfg.local_port = 40'000;
  ccfg.remote_addr = kServerAddr;
  ccfg.remote_port = 80;
  tcp::Connector connector(ccfg, 9);

  bool client_established = false;
  const auto started = std::chrono::steady_clock::now();
  auto out = connector.start(SimTime::zero());
  for (const auto& seg : out.segments) (void)client_net.send(seg);

  while (!client_established &&
         std::chrono::steady_clock::now() - started <
             std::chrono::seconds(10)) {
    const auto seg = client_net.recv(50);
    if (!seg) continue;
    const auto now = SimTime::from_seconds(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count());
    out = connector.on_segment(now, *seg);
    if (out.solve) {
      Rng rng(5);
      std::uint64_t ops = 0;
      const auto sol =
          engine->solve(*out.solve, connector.flow_binding(), rng, ops);
      EXPECT_GT(ops, 0u);
      out = connector.on_solved(now, sol);
    }
    for (const auto& seg2 : out.segments) (void)client_net.send(seg2);
    client_established = out.established;
  }

  server_thread.join();
  EXPECT_TRUE(client_established);
  EXPECT_TRUE(server_ok.load());
}

}  // namespace
}  // namespace tcpz::shim

// ---------------------------------------------------------------------------
// wire::Host + wire::StormClient: the defense layer on actual sockets.
// ---------------------------------------------------------------------------

namespace tcpz::wire {
namespace {

using tcp::ipv4;

constexpr std::uint32_t kServerAddr = ipv4(10, 1, 0, 1);
constexpr std::uint32_t kClientAddr = ipv4(10, 2, 0, 1);

std::shared_ptr<puzzle::Sha256PuzzleEngine> test_engine(std::uint64_t seed) {
  puzzle::EngineConfig ecfg;
  ecfg.sol_len = 4;
  ecfg.expiry_ms = 60'000;
  return std::make_shared<puzzle::Sha256PuzzleEngine>(
      crypto::SecretKey::from_seed(seed), ecfg);
}

HostConfig puzzle_host_config() {
  HostConfig hc;
  hc.listener.local_addr = kServerAddr;
  hc.listener.local_port = 80;
  hc.listener.policy = fixtures::always_puzzles().factory();
  hc.listener.difficulty = {1, 8};  // ~128 hashes/solve: trivial for tests
  hc.listener.listen_backlog = 256;
  hc.listener.accept_backlog = 256;
  return hc;
}

StormConfig storm_config_against(const Host& host) {
  StormConfig sc;
  sc.local_addr = kClientAddr;
  sc.server_addr = kServerAddr;
  sc.server_port = 80;
  sc.server_udp_port = host.bound_port();
  return sc;
}

TEST(WireHost, PatchedStormEstablishesThroughPuzzlePolicy) {
  const auto secret = crypto::SecretKey::from_seed(11);
  Host host(puzzle_host_config(), secret, 1, test_engine(11));
  host.start();

  StormConfig sc = storm_config_against(host);
  sc.conn_rate = 200.0;
  sc.duration = SimTime::milliseconds(500);
  sc.engine = test_engine(999);  // any secret: solving needs only the bytes
  sc.seed = 3;
  StormClient storm(sc, host.clock());
  const StormStats stats = storm.run();

  host.stop();
  host.join();

  EXPECT_GT(stats.attempts, 50u);
  EXPECT_GT(stats.established, 0u);
  EXPECT_EQ(stats.established, stats.solves);
  EXPECT_GT(stats.hash_ops, stats.solves);  // real brute force happened
  EXPECT_GT(stats.connect_ms.count, 0u);

  const tcp::ListenerCounters& c = host.counters();
  EXPECT_EQ(c.challenges_sent, c.syns_received);  // always_challenge
  EXPECT_EQ(c.established_total, c.established_puzzle);
  EXPECT_EQ(c.established_queue, 0u);
  EXPECT_EQ(c.cookies_sent, 0u);
  EXPECT_EQ(c.established_puzzle, stats.established);
  EXPECT_EQ(host.stats().decode_errors, 0u);
  EXPECT_EQ(host.stats().accepted, c.established_total);
}

TEST(WireHost, StopJoinReturnsPromptly) {
  Host host(puzzle_host_config(), crypto::SecretKey::from_seed(13), 1,
            test_engine(13));
  host.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const auto t0 = std::chrono::steady_clock::now();
  host.stop();
  host.join();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
}

TEST(WireHost, RejectsNonPositiveTickInterval) {
  HostConfig hc = puzzle_host_config();
  hc.tick_interval = SimTime::zero();
  EXPECT_THROW(Host(hc, crypto::SecretKey::from_seed(13), 1, test_engine(13)),
               std::invalid_argument);
}

TEST(WireHost, SpoofedSynFloodChallengedStatelessly) {
  const auto secret = crypto::SecretKey::from_seed(21);
  Host host(puzzle_host_config(), secret, 1, test_engine(21));
  host.start();

  StormConfig sc = storm_config_against(host);
  sc.conn_rate = 400.0;
  sc.duration = SimTime::milliseconds(400);
  sc.strategy = offense::StrategySpec::syn_flood();
  sc.seed = 5;
  StormClient storm(sc, host.clock());
  const StormStats stats = storm.run();

  host.stop();
  host.join();

  EXPECT_GT(stats.spoofed_syns, 50u);
  EXPECT_EQ(stats.established, 0u);

  const tcp::ListenerCounters& c = host.counters();
  // Every spoofed SYN drew a stateless challenge; none ever completed, and
  // no listen-queue state was allocated for any of them.
  EXPECT_EQ(c.syns_received, stats.spoofed_syns);
  EXPECT_EQ(c.challenges_sent, c.syns_received);
  EXPECT_EQ(c.established_total, 0u);
  EXPECT_EQ(host.listener().listen_depth(), 0u);
}

TEST(WireHost, BogusSolutionFloodBurnsVerificationOnly) {
  const auto secret = crypto::SecretKey::from_seed(31);
  Host host(puzzle_host_config(), secret, 1, test_engine(31));
  host.start();

  StormConfig sc = storm_config_against(host);
  sc.conn_rate = 200.0;
  sc.duration = SimTime::milliseconds(400);
  sc.strategy = offense::StrategySpec::bogus_solution_flood();
  sc.seed = 7;
  StormClient storm(sc, host.clock());
  const StormStats stats = storm.run();

  host.stop();
  host.join();

  EXPECT_GT(stats.bogus_acks, 10u);
  const tcp::ListenerCounters& c = host.counters();
  // Garbage solutions force verification work and are all rejected; the
  // 2^-(k*m) guess probability makes an accidental pass effectively
  // impossible at (1, 8) only for single bytes — (k=1, m=8) means 1/256 per
  // guess, so allow the rare lucky one but require the flood to fail.
  EXPECT_GT(c.solutions_invalid, 0u);
  EXPECT_GE(c.solution_acks, c.solutions_invalid);
  EXPECT_LT(c.established_total, stats.bogus_acks / 16);
}

// Hostile bytes mixed into live traffic: truncated datagrams and single-bit
// flips of valid encodings, sent paced from a side socket while a patched
// storm runs. Each one must be counted as a decode error and dropped before
// the listener, and the storm's handshakes must go through untouched.
TEST(WireHost, HostileDatagramsRejectedDuringStorm) {
  const auto secret = crypto::SecretKey::from_seed(41);
  Host host(puzzle_host_config(), secret, 1, test_engine(41));
  host.start();

  // Build the hostile set up front and check each datagram really is
  // undecodable: truncations below preamble + TCP header, and bit flips
  // anywhere but the preamble's payload-length word (bytes 8..11, outside
  // the checksum — see WireCodec.AnyBitFlipIsDetected).
  tcp::Segment syn;
  syn.saddr = ipv4(10, 66, 0, 1);
  syn.daddr = kServerAddr;
  syn.sport = 4242;
  syn.dport = 80;
  syn.seq = 0x01020304;
  syn.flags = tcp::kSyn;
  syn.options.mss = 1460;
  syn.options.wscale = 7;
  syn.options.ts = tcp::TimestampsOption{1, 0};
  const Bytes valid = tcp::encode_segment(syn);
  Rng rng(17);
  std::vector<Bytes> hostile;
  for (int i = 0; i < 300; ++i) {
    Bytes d = valid;
    if (i % 2 == 0) {
      d.resize(1 + rng.uniform_u64(tcp::kWirePreambleSize +
                                   tcp::kTcpHeaderSize - 1));
    } else {
      std::size_t byte = 0;
      do {
        byte = rng.uniform_u64(d.size());
      } while (byte >= 8 && byte < 12);
      d[byte] ^= static_cast<std::uint8_t>(1u << rng.uniform_u64(8));
    }
    ASSERT_FALSE(tcp::decode_segment(d).segment.has_value())
        << "datagram " << i;
    hostile.push_back(std::move(d));
  }

  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_port = htons(host.bound_port());
  to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::uint64_t sent = 0;  // read only after join()
  std::thread sender([&] {
    for (const Bytes& d : hostile) {
      if (::sendto(fd, d.data(), d.size(), 0,
                   reinterpret_cast<const sockaddr*>(&to), sizeof to) ==
          static_cast<ssize_t>(d.size())) {
        ++sent;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  StormConfig sc = storm_config_against(host);
  sc.conn_rate = 200.0;
  sc.duration = SimTime::milliseconds(500);
  sc.engine = test_engine(999);
  sc.seed = 9;
  StormClient storm(sc, host.clock());
  const StormStats stats = storm.run();
  sender.join();
  ::close(fd);

  // Loopback sendto queues the datagram on the host's socket before it
  // returns, and the host drains the socket to EAGAIN before it honours a
  // stop, so every sent datagram is decoded before join() returns.
  host.stop();
  host.join();

  EXPECT_EQ(sent, hostile.size());
  EXPECT_EQ(host.stats().decode_errors, sent);
  EXPECT_GT(stats.established, 0u);
  const tcp::ListenerCounters& c = host.counters();
  EXPECT_EQ(c.established_total, c.established_puzzle);
  EXPECT_LE(c.established_puzzle, c.solutions_valid);
  EXPECT_EQ(c.established_puzzle, stats.established);
}

// The headline cross-validation: the same policy code over real sockets and
// in the simulator produces the same ListenerCounters *ratios*. Wall-clock
// scheduling makes absolute wire counts nondeterministic; the decision
// ratios are what the backends must agree on.

TEST(WireHost, CrossValidationCleanPuzzlePath) {
  // Wire run: patched storm against PuzzlePolicy(always_challenge).
  const auto secret = crypto::SecretKey::from_seed(41);
  Host host(puzzle_host_config(), secret, 1, test_engine(41));
  host.start();

  StormConfig sc = storm_config_against(host);
  sc.conn_rate = 300.0;
  sc.duration = SimTime::milliseconds(1500);
  sc.max_inflight = 128;
  sc.engine = test_engine(999);
  sc.seed = 9;
  StormClient storm(sc, host.clock());
  const StormStats stats = storm.run();
  host.stop();
  host.join();
  const tcp::ListenerCounters& wire = host.counters();
  ASSERT_GT(wire.syns_received, 100u);
  EXPECT_EQ(stats.established, wire.established_total);

  // Equivalent sim run: solving clients against the same policy spec.
  scenario::Spec spec;
  spec.seed = 7;
  spec.duration = SimTime::seconds(20);
  spec.attack_start = SimTime::seconds(5);
  spec.attack_end = SimTime::seconds(15);
  spec.workload.n_clients = 8;
  spec.workload.solve_puzzles = true;
  spec.servers.policies = {fixtures::always_puzzles()};
  spec.servers.difficulty = {1, 8};
  spec.servers.sol_len = 4;
  const auto res = scenario::run(spec);
  const tcp::ListenerCounters& sim = res.cluster;
  ASSERT_GT(sim.syns_received, 100u);

  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  // Challenge rate: always_challenge answers every SYN with a puzzle.
  const double wire_challenge = ratio(wire.challenges_sent, wire.syns_received);
  const double sim_challenge = ratio(sim.challenges_sent, sim.syns_received);
  EXPECT_NEAR(wire_challenge, sim_challenge, 0.05);
  // Solve-accept rate: patched clients solve, solutions verify, accept has
  // room — nearly every challenge becomes a puzzle-path establishment.
  const double wire_accept = ratio(wire.established_puzzle, wire.challenges_sent);
  const double sim_accept = ratio(sim.established_puzzle, sim.challenges_sent);
  EXPECT_GT(wire_accept, 0.8);
  EXPECT_GT(sim_accept, 0.8);
  EXPECT_NEAR(wire_accept, sim_accept, 0.1);
  // No other admission path fires on either backend.
  EXPECT_EQ(wire.established_queue + wire.established_cookie, 0u);
  EXPECT_EQ(sim.established_queue + sim.established_cookie, 0u);
}

TEST(WireHost, CrossValidationDeceptionDrops) {
  // Wire run: tiny accept queue, application never accepts — valid
  // solutions hit a full queue and are silently ignored (§5 deception).
  const auto secret = crypto::SecretKey::from_seed(51);
  HostConfig hc = puzzle_host_config();
  hc.listener.accept_backlog = 8;
  hc.listener.listen_backlog = 64;
  hc.accept_rate = 0;  // never accept
  Host host(hc, secret, 1, test_engine(51));
  host.start();

  StormConfig sc = storm_config_against(host);
  sc.conn_rate = 300.0;
  sc.duration = SimTime::milliseconds(1500);
  sc.max_inflight = 128;
  sc.engine = test_engine(999);
  sc.seed = 13;
  StormClient storm(sc, host.clock());
  const StormStats stats = storm.run();
  host.stop();
  host.join();
  const tcp::ListenerCounters& wire = host.counters();
  ASSERT_GT(wire.solution_acks, 50u);
  // The deceived clients believe they connected: the storm saw far more
  // establishments than the server admitted.
  EXPECT_GT(stats.established, wire.established_total * 4);

  // Equivalent sim run: patched conn-flood bots against a starved accept
  // queue (one worker, ~10 s service time).
  scenario::Spec spec;
  spec.seed = 17;
  spec.duration = SimTime::seconds(20);
  spec.attack_start = SimTime::seconds(2);
  spec.attack_end = SimTime::seconds(18);
  spec.workload.n_clients = 2;
  spec.workload.solve_puzzles = true;
  spec.servers.policies = {fixtures::always_puzzles()};
  spec.servers.difficulty = {1, 8};
  spec.servers.sol_len = 4;
  spec.servers.accept_backlog = 8;
  spec.servers.listen_backlog = 64;
  spec.servers.service_rate = 0.1;
  spec.servers.n_workers = 1;
  scenario::AttackSpec atk;
  atk.count = 4;
  atk.rate = 100.0;
  atk.strategy = offense::StrategySpec::conn_flood(/*patched=*/true);
  spec.attacks = {atk};
  const auto res = scenario::run(spec);
  const tcp::ListenerCounters& sim = res.cluster;
  ASSERT_GT(sim.solution_acks, 50u);

  const auto deception = [](const tcp::ListenerCounters& c) {
    return static_cast<double>(c.acks_ignored_accept_full) /
           static_cast<double>(c.solution_acks);
  };
  const double wire_deception = deception(wire);
  const double sim_deception = deception(sim);
  // Both backends: once the 8-slot queue fills, essentially every solution
  // ACK is ignored unverified.
  EXPECT_GT(wire_deception, 0.7);
  EXPECT_GT(sim_deception, 0.7);
  EXPECT_NEAR(wire_deception, sim_deception, 0.15);
}

}  // namespace
}  // namespace tcpz::wire
