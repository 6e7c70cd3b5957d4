// Crypto hot-loop microbenchmark: the cached-midstate HMAC + zero-allocation
// packet path against the pre-PR implementations, embedded here verbatim as
// the reference ("seed") versions.
//
// Claims checked (the PR's acceptance bar):
//  * >= 1.5x on the HMAC-bound operations — solution verification (valid and
//    bogus), SYN-cookie encode, challenge generation — from (a) ipad/opad
//    midstates cached once per secret (~2 compressions per MAC instead of
//    4+ plus the key schedule), (b) stack-assembled MAC messages, (c) the
//    unrolled SHA-256 round function;
//  * bit-identical outputs: cached-midstate HMAC == one-shot HMAC, and the
//    new verify accepts exactly the solutions the reference verify accepts;
//  * zero heap allocations per Segment copy (the inline option buffers):
//    counted with a real operator-new hook around a copy loop;
//  * where the CPU has SHA-NI, the hardware compression is >= 2x the scalar
//    one over chained blocks (skipped, and said so, where it has not).
//
// Self-contained (no Google Benchmark) so it always builds, and cheap enough
// in --smoke mode for the CI bench-smoke step.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>

#include "bench_common.hpp"
#include "crypto/hmac.hpp"
#include "crypto/secret.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_impl.hpp"
#include "puzzle/engine.hpp"
#include "tcp/options.hpp"
#include "tcp/segment.hpp"
#include "tcp/syncookie.hpp"
#include "util/rng.hpp"

#include "util/alloc_counter.hpp"

namespace {

using namespace tcpz;

const crypto::SecretKey kSecret = crypto::SecretKey::from_seed(1);
const puzzle::FlowBinding kFlow{0x0a020001, 0x0a010001, 40000, 80, 12345};

double now_secs() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Reference implementations: the pre-PR hot paths, verbatim. Each call pays
// the full HMAC key schedule, heap-allocated message/pre-image buffers, and
// (in verify) a from-scratch rebuild of the P||i prefix per candidate.
// ---------------------------------------------------------------------------
namespace ref {

/// The seed SHA-256: same FIPS 180-4 state machine as crypto::Sha256, with
/// the pre-PR round loop (register-shuffle per round, manual rotr). The
/// reference paths hash with this so the comparison captures the full
/// pre-PR cost, round function included.
class Sha256 {
 public:
  Sha256() { reset(); }

  void reset() {
    state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
              0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    bit_count_ = 0;
    buffer_len_ = 0;
  }

  void update(std::span<const std::uint8_t> data) {
    bit_count_ += static_cast<std::uint64_t>(data.size()) * 8;
    std::size_t off = 0;
    if (buffer_len_ > 0) {
      const std::size_t take = std::min(data.size(), 64 - buffer_len_);
      std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
      buffer_len_ += take;
      off += take;
      if (buffer_len_ == 64) {
        process_block(buffer_.data());
        buffer_len_ = 0;
      }
    }
    while (off + 64 <= data.size()) {
      process_block(data.data() + off);
      off += 64;
    }
    if (off < data.size()) {
      std::memcpy(buffer_.data(), data.data() + off, data.size() - off);
      buffer_len_ = data.size() - off;
    }
  }

  [[nodiscard]] crypto::Sha256Digest finalize() {
    std::uint8_t pad[72] = {0x80};
    const std::size_t rem = buffer_len_;
    const std::size_t pad_len = (rem < 56) ? (56 - rem) : (120 - rem);
    std::uint8_t len_be[8];
    for (int i = 0; i < 8; ++i) {
      len_be[i] = static_cast<std::uint8_t>(bit_count_ >> (56 - 8 * i));
    }
    update(std::span<const std::uint8_t>(pad, pad_len));
    update(std::span<const std::uint8_t>(len_be, 8));
    crypto::Sha256Digest out;
    for (int i = 0; i < 8; ++i) {
      out[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
      out[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
      out[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
      out[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
    }
    return out;
  }

 private:
  static constexpr std::uint32_t rotr(std::uint32_t x, int n) {
    return (x >> n) | (x << (32 - n));
  }

  void process_block(const std::uint8_t* block) {
    static constexpr std::array<std::uint32_t, 64> kK = {
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
        0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
        0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
        0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
        0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
        0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
        0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
        0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
        0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
        0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
        0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
        0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(block[i * 4]) << 24) |
             (static_cast<std::uint32_t>(block[i * 4 + 1]) << 16) |
             (static_cast<std::uint32_t>(block[i * 4 + 2]) << 8) |
             static_cast<std::uint32_t>(block[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
    std::uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state_[0] += a;
    state_[1] += b;
    state_[2] += c;
    state_[3] += d;
    state_[4] += e;
    state_[5] += f;
    state_[6] += g;
    state_[7] += h;
  }

  std::array<std::uint32_t, 8> state_{};
  std::uint64_t bit_count_ = 0;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
};

/// The seed one-shot HMAC (full key schedule per call) over ref::Sha256.
crypto::Sha256Digest hmac_sha256(std::span<const std::uint8_t> key,
                                 std::span<const std::uint8_t> message) {
  constexpr std::size_t kBlock = 64;
  std::array<std::uint8_t, kBlock> key_block{};
  if (key.size() > kBlock) {
    Sha256 kh;
    kh.update(key);
    const auto d = kh.finalize();
    std::memcpy(key_block.data(), d.data(), d.size());
  } else {
    std::memcpy(key_block.data(), key.data(), key.size());
  }
  std::array<std::uint8_t, kBlock> ipad{};
  std::array<std::uint8_t, kBlock> opad{};
  for (std::size_t i = 0; i < kBlock; ++i) {
    ipad[i] = static_cast<std::uint8_t>(key_block[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(key_block[i] ^ 0x5c);
  }
  Sha256 inner;
  inner.update(ipad);
  inner.update(message);
  const auto inner_digest = inner.finalize();
  Sha256 outer;
  outer.update(opad);
  outer.update(inner_digest);
  return outer.finalize();
}

constexpr std::string_view kPreimageLabel = "tcpz-puzzle-preimage-v1";

Bytes preimage_message(const puzzle::FlowBinding& flow,
                       std::uint32_t timestamp_ms) {
  Bytes msg;
  msg.reserve(kPreimageLabel.size() + 20);
  msg.insert(msg.end(), kPreimageLabel.begin(), kPreimageLabel.end());
  put_u32be(msg, timestamp_ms);
  put_u32be(msg, flow.isn);
  put_u32be(msg, flow.saddr);
  put_u32be(msg, flow.daddr);
  put_u16be(msg, flow.sport);
  put_u16be(msg, flow.dport);
  return msg;
}

Bytes derive_preimage(const crypto::SecretKey& secret,
                      const puzzle::FlowBinding& flow, std::uint32_t ts,
                      std::uint8_t sol_len) {
  const auto digest = ref::hmac_sha256(secret.bytes(), preimage_message(flow, ts));
  return Bytes(digest.begin(), digest.begin() + sol_len);
}

crypto::Sha256Digest solution_check_hash(const Bytes& preimage,
                                         std::uint8_t index,
                                         std::span<const std::uint8_t> cand) {
  ref::Sha256 h;
  h.update(preimage);
  const std::uint8_t idx[1] = {index};
  h.update(std::span<const std::uint8_t>(idx, 1));
  h.update(cand);
  return h.finalize();
}

bool prefix_matches(const Bytes& preimage, const crypto::Sha256Digest& digest,
                    unsigned m_bits) {
  crypto::Sha256Digest p{};
  const std::size_t n = std::min(preimage.size(), p.size());
  std::copy(preimage.begin(), preimage.begin() + static_cast<long>(n),
            p.begin());
  return crypto::prefix_bits_equal(p, digest, m_bits);
}

/// The pre-PR per-ACK verify path, as the listener drove it: split the
/// concatenated wire bytes into k heap-backed values (the old Solution held
/// std::vector<Bytes>), re-derive the pre-image with a one-shot HMAC, then
/// rebuild the P||i check hash from scratch per value. Freshness/shape
/// checks are elided on BOTH sides — the inputs are well-formed and fresh.
bool verify_ack(const crypto::SecretKey& secret,
                const puzzle::FlowBinding& flow,
                std::span<const std::uint8_t> wire_solutions, std::uint32_t ts,
                puzzle::Difficulty diff, std::uint8_t sol_len) {
  std::vector<Bytes> values;
  values.reserve(diff.k);
  for (unsigned i = 0; i < diff.k; ++i) {
    values.emplace_back(wire_solutions.begin() + static_cast<long>(i) * sol_len,
                        wire_solutions.begin() +
                            static_cast<long>(i + 1) * sol_len);
  }
  const Bytes preimage = derive_preimage(secret, flow, ts, sol_len);
  for (unsigned i = 1; i <= diff.k; ++i) {
    const auto& v = values[i - 1];
    if (!prefix_matches(
            preimage,
            solution_check_hash(preimage, static_cast<std::uint8_t>(i), v),
            diff.m)) {
      return false;
    }
  }
  return true;
}

/// The pre-PR SynCookieCodec::mac24.
std::uint32_t cookie_mac24(const crypto::SecretKey& secret,
                           const tcp::FlowKey& flow, std::uint32_t client_isn,
                           std::uint32_t t, unsigned mss_idx) {
  Bytes msg;
  msg.reserve(32);
  const char label[] = "tcpz-syncookie-v1";
  msg.insert(msg.end(), label, label + sizeof(label) - 1);
  put_u32be(msg, flow.raddr);
  put_u16be(msg, flow.rport);
  put_u32be(msg, flow.laddr);
  put_u16be(msg, flow.lport);
  put_u32be(msg, client_isn);
  put_u32be(msg, t);
  msg.push_back(static_cast<std::uint8_t>(mss_idx));
  const auto digest = ref::hmac_sha256(secret.bytes(), msg);
  return (static_cast<std::uint32_t>(digest[0]) << 16) |
         (static_cast<std::uint32_t>(digest[1]) << 8) |
         static_cast<std::uint32_t>(digest[2]);
}

}  // namespace ref

struct Rate {
  double ops_per_sec;
  std::uint64_t sink;  ///< fold of the outputs, defeats dead-code elimination
};

template <typename F>
Rate timed(std::uint64_t iters, F&& op) {
  // Best of three repetitions: the checks below gate CI, so one scheduler
  // hiccup in a single pass must not fail the build — the best pass is the
  // closest measurement of what the code can do.
  std::uint64_t sink = 0;
  double best_secs = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    const double start = now_secs();
    for (std::uint64_t i = 0; i < iters; ++i) sink += op(i);
    const double secs = now_secs() - start;
    if (secs < best_secs) best_secs = secs;
  }
  return {static_cast<double>(iters) / best_secs, sink};
}

/// Times a reference/optimized pair with the repetitions interleaved
/// (ref, new, ref, new, ...), best-of-3 each: clock-frequency drift or a
/// noisy neighbour hits both sides instead of whichever phase it landed on,
/// which is what makes the speedup checks stable enough to gate CI.
template <typename FRef, typename FNew>
std::pair<Rate, Rate> timed_pair(std::uint64_t iters, FRef&& ref_op,
                                 FNew&& new_op) {
  std::uint64_t ref_sink = 0, new_sink = 0;
  double ref_best = 1e30, new_best = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    double start = now_secs();
    for (std::uint64_t i = 0; i < iters; ++i) ref_sink += ref_op(i);
    ref_best = std::min(ref_best, now_secs() - start);
    start = now_secs();
    for (std::uint64_t i = 0; i < iters; ++i) new_sink += new_op(i);
    new_best = std::min(new_best, now_secs() - start);
  }
  return {{static_cast<double>(iters) / ref_best, ref_sink},
          {static_cast<double>(iters) / new_best, new_sink}};
}

tcp::Segment make_challenge_segment() {
  tcp::Segment s;
  s.saddr = 0x0a010001;
  s.daddr = 0x0a020001;
  s.sport = 80;
  s.dport = 40000;
  s.seq = 7;
  s.ack = 12346;
  s.flags = tcp::kSyn | tcp::kAck;
  s.options.mss = 1460;
  s.options.wscale = 7;
  tcp::ChallengeOption c;
  c.k = 2;
  c.m = 17;
  c.sol_len = 8;
  c.embedded_ts = 1000;
  c.preimage = InlineBytes<tcp::kMaxPreimageBytes>(8, 0x5a);
  s.options.challenge = c;
  return s;
}

tcp::Segment make_solution_segment() {
  tcp::Segment s = make_challenge_segment();
  s.options.challenge.reset();
  tcp::SolutionOption sol;
  sol.mss = 1460;
  sol.wscale = 7;
  sol.embedded_ts = 1000;
  sol.solutions = InlineBytes<tcp::kMaxSolutionBytes>(16, 0xcd);
  s.options.solution = sol;
  return s;
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::Args args = benchutil::parse(argc, argv);
  (void)args;
  const bool smoke = has_flag(argc, argv, "--smoke");
  const std::uint64_t n = smoke ? 50'000 : 200'000;

  benchutil::header(
      "micro: crypto ops (HMAC midstate cache + zero-alloc packet path)",
      "caching the ipad/opad SHA-256 midstates per secret and keeping all "
      "packet buffers inline makes the HMAC-bound verify/cookie/challenge "
      "operations >= 1.5x faster than the seed implementation, with "
      "bit-identical outputs and zero heap allocations per segment copy");

  const puzzle::Difficulty diff{2, 10};
  puzzle::EngineConfig ecfg;
  ecfg.expiry_ms = 1u << 30;
  const puzzle::Sha256PuzzleEngine engine(kSecret, ecfg);

  // --- correctness gates: the optimized paths must be bit-identical --------
  Rng rng(7);
  bool hmac_identical = true;
  for (int i = 0; i < 256; ++i) {
    Bytes key(static_cast<std::size_t>(rng.uniform_u64(129)), 0);
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
    Bytes msg(static_cast<std::size_t>(rng.uniform_u64(200)), 0);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
    const crypto::HmacKey cached((std::span<const std::uint8_t>(key)));
    hmac_identical &= cached.mac(msg) == crypto::hmac_sha256(key, msg);
  }

  const auto challenge = engine.make_challenge(kFlow, 1000, diff);
  std::uint64_t solve_ops = 0;
  const auto solution = engine.solve(challenge, kFlow, rng, solve_ops);
  const std::uint8_t sol_len = engine.config().sol_len;

  // The solutions exactly as an ACK carries them: k*l concatenated bytes.
  Bytes wire_valid;
  for (const auto& v : solution.values) {
    wire_valid.insert(wire_valid.end(), v.begin(), v.end());
  }
  const Bytes wire_bogus(wire_valid.size(), 0xaa);

  /// The optimized per-ACK path, as Listener::handle_solution_ack drives it:
  /// split into the inline-value Solution (no heap), virtual verify.
  const auto new_verify_ack = [&](std::span<const std::uint8_t> wire) {
    puzzle::Solution s;
    s.timestamp = 1000;
    for (unsigned i = 0; i < diff.k; ++i) {
      s.values.emplace_back(wire.begin() + static_cast<long>(i) * sol_len,
                            wire.begin() + static_cast<long>(i + 1) * sol_len);
    }
    return engine.verify(kFlow, s, diff, 1005).ok;
  };

  const bool verify_agrees =
      new_verify_ack(wire_valid) &&
      ref::verify_ack(kSecret, kFlow, wire_valid, 1000, diff, sol_len) &&
      !new_verify_ack(wire_bogus) &&
      !ref::verify_ack(kSecret, kFlow, wire_bogus, 1000, diff, sol_len);

  // --- HMAC: one-shot (key schedule every call) vs cached midstates --------
  std::uint8_t msg43[43];
  std::memset(msg43, 0xab, sizeof msg43);
  const auto [hmac_ref, hmac_new] = timed_pair(
      n,
      [&](std::uint64_t i) {
        msg43[0] = static_cast<std::uint8_t>(i);
        return static_cast<std::uint64_t>(
            ref::hmac_sha256(kSecret.bytes(),
                             std::span<const std::uint8_t>(msg43, sizeof msg43))[0]);
      },
      [&](std::uint64_t i) {
        msg43[0] = static_cast<std::uint8_t>(i);
        return static_cast<std::uint64_t>(kSecret.hmac().mac(
            std::span<const std::uint8_t>(msg43, sizeof msg43))[0]);
      });

  // --- per-ACK verification, valid and bogus (the §7 solution-flood cost) --
  const auto [verify_valid_ref, verify_valid_new] = timed_pair(
      n,
      [&](std::uint64_t) {
        return static_cast<std::uint64_t>(
            ref::verify_ack(kSecret, kFlow, wire_valid, 1000, diff, sol_len));
      },
      [&](std::uint64_t) {
        return static_cast<std::uint64_t>(new_verify_ack(wire_valid));
      });

  const auto [verify_bogus_ref, verify_bogus_new] = timed_pair(
      n,
      [&](std::uint64_t) {
        return static_cast<std::uint64_t>(
            ref::verify_ack(kSecret, kFlow, wire_bogus, 1000, diff, sol_len));
      },
      [&](std::uint64_t) {
        return static_cast<std::uint64_t>(new_verify_ack(wire_bogus));
      });

  // --- SYN cookies (encode = the per-SYN cost under cookie defense) --------
  const tcp::FlowKey cflow{0x0a020001, 40000, 0x0a010001, 80};
  const tcp::SynCookieCodec codec(kSecret);
  const auto [cookie_ref, cookie_new] = timed_pair(
      n,
      [&](std::uint64_t i) {
        return static_cast<std::uint64_t>(ref::cookie_mac24(
            kSecret, cflow, static_cast<std::uint32_t>(i), 15, 3));
      },
      [&](std::uint64_t i) {
        return static_cast<std::uint64_t>(
            codec.encode(cflow, static_cast<std::uint32_t>(i), 1460, 1000));
      });

  // --- challenge generation (the per-SYN cost under puzzle defense) --------
  const auto [challenge_ref, challenge_new] = timed_pair(
      n,
      [&](std::uint64_t i) {
        return static_cast<std::uint64_t>(
            ref::derive_preimage(kSecret, kFlow, static_cast<std::uint32_t>(i),
                                 engine.config().sol_len)[0]);
      },
      [&](std::uint64_t i) {
        return static_cast<std::uint64_t>(
            engine.make_challenge(kFlow, static_cast<std::uint32_t>(i), diff)
                .preimage[0]);
      });

  // --- one compression per path, chained: each block waits on the last -----
  std::uint8_t chain_block[64] = {};
  crypto::Sha256::State scalar_state = crypto::Sha256::initial_state();
  crypto::Sha256::State hw_state = scalar_state;
  const auto scalar_block = [&](std::uint64_t i) {
    chain_block[0] = static_cast<std::uint8_t>(i);
    crypto::compress_scalar(scalar_state, chain_block);
    return static_cast<std::uint64_t>(scalar_state[0]);
  };
  const auto hw_block = [&](std::uint64_t i) {
    chain_block[0] = static_cast<std::uint8_t>(i);
    crypto::compress_shani(hw_state, chain_block);
    return static_cast<std::uint64_t>(hw_state[0]);
  };
  const bool hw = crypto::sha256_hw_available();
  const auto [block_scalar, block_hw] =
      hw ? timed_pair(n, scalar_block, hw_block)
         : std::pair<Rate, Rate>{timed(n, scalar_block), {}};

  // --- segment copy: the link-delivery closure path, allocation-counted ----
  const tcp::Segment chal_seg = make_challenge_segment();
  const tcp::Segment sol_seg = make_solution_segment();
  const std::uint64_t copies = n * 10;
  const std::uint64_t allocs_before = tcpz_alloc_count();
  const Rate seg_copy = timed(copies, [&](std::uint64_t i) {
    // Copy both hot shapes and charge their wire size, exactly as
    // Link::transmit does per packet.
    tcp::Segment a = chal_seg;    // NOLINT(performance-unnecessary-copy)
    tcp::Segment b = sol_seg;     // NOLINT(performance-unnecessary-copy)
    a.seq = static_cast<std::uint32_t>(i);
    return static_cast<std::uint64_t>(a.wire_size() + b.wire_size());
  });
  const std::uint64_t copy_allocs = tcpz_alloc_count() - allocs_before;

  benchutil::metric("ops", static_cast<double>(n));
  benchutil::metric("hmac_oneshot_ops_per_sec", hmac_ref.ops_per_sec);
  benchutil::metric("hmac_cached_ops_per_sec", hmac_new.ops_per_sec);
  benchutil::metric("hmac_speedup", hmac_new.ops_per_sec / hmac_ref.ops_per_sec);
  benchutil::metric("verify_valid_ref_ops_per_sec", verify_valid_ref.ops_per_sec);
  benchutil::metric("verify_valid_ops_per_sec", verify_valid_new.ops_per_sec);
  benchutil::metric("verify_valid_speedup",
                    verify_valid_new.ops_per_sec / verify_valid_ref.ops_per_sec);
  benchutil::metric("verify_bogus_ref_ops_per_sec", verify_bogus_ref.ops_per_sec);
  benchutil::metric("verify_bogus_ops_per_sec", verify_bogus_new.ops_per_sec);
  benchutil::metric("verify_bogus_speedup",
                    verify_bogus_new.ops_per_sec / verify_bogus_ref.ops_per_sec);
  benchutil::metric("cookie_ref_ops_per_sec", cookie_ref.ops_per_sec);
  benchutil::metric("cookie_ops_per_sec", cookie_new.ops_per_sec);
  benchutil::metric("cookie_speedup",
                    cookie_new.ops_per_sec / cookie_ref.ops_per_sec);
  benchutil::metric("challenge_ref_ops_per_sec", challenge_ref.ops_per_sec);
  benchutil::metric("challenge_ops_per_sec", challenge_new.ops_per_sec);
  benchutil::metric("challenge_speedup",
                    challenge_new.ops_per_sec / challenge_ref.ops_per_sec);
  benchutil::metric("sha256_block_ns_scalar", 1e9 / block_scalar.ops_per_sec);
  if (hw) benchutil::metric("sha256_block_ns_hw", 1e9 / block_hw.ops_per_sec);
  benchutil::metric("segment_copy_pairs_per_sec", seg_copy.ops_per_sec);
  benchutil::metric("segment_copy_heap_allocs",
                    static_cast<double>(copy_allocs));

  benchutil::check("cached-midstate HMAC == one-shot HMAC (random key/msg)",
                   hmac_identical);
  benchutil::check("optimized verify agrees with the reference verify",
                   verify_agrees);
  benchutil::check("cached HMAC >= 1.5x one-shot",
                   hmac_new.ops_per_sec >= 1.5 * hmac_ref.ops_per_sec);
  benchutil::check(
      "valid-solution verify >= 1.5x the seed implementation",
      verify_valid_new.ops_per_sec >= 1.5 * verify_valid_ref.ops_per_sec);
  benchutil::check(
      "bogus-solution verify >= 1.5x the seed implementation",
      verify_bogus_new.ops_per_sec >= 1.5 * verify_bogus_ref.ops_per_sec);
  benchutil::check("SYN-cookie encode >= 1.5x the seed implementation",
                   cookie_new.ops_per_sec >= 1.5 * cookie_ref.ops_per_sec);
  benchutil::check(
      "challenge generation >= 1.5x the seed implementation",
      challenge_new.ops_per_sec >= 1.5 * challenge_ref.ops_per_sec);
  benchutil::check("zero heap allocations per segment copy", copy_allocs == 0);
  if (hw) {
    benchutil::check("SHA-NI compression >= 2x scalar (chained blocks)",
                     block_hw.ops_per_sec >= 2 * block_scalar.ops_per_sec);
  } else {
    std::printf("[SKIP] SHA-NI compression >= 2x scalar: CPU lacks SHA-NI\n");
  }

  // Keep the sinks alive.
  if ((hmac_ref.sink ^ hmac_new.sink ^ verify_valid_ref.sink ^
       verify_valid_new.sink ^ verify_bogus_ref.sink ^ verify_bogus_new.sink ^
       cookie_ref.sink ^ cookie_new.sink ^ challenge_ref.sink ^
       challenge_new.sink ^ block_scalar.sink ^ block_hw.sink ^
       seg_copy.sink) == 0xdeadbeef) {
    std::printf("(sink)\n");
  }
  return benchutil::finish();
}
