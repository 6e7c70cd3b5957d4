#include "puzzle/engine.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace tcpz::puzzle {
namespace {

// Domain-separation labels: the pre-image derivation and the oracle solution
// derivation must never collide with each other or with SYN-cookie MACs.
constexpr std::string_view kPreimageLabel = "tcpz-puzzle-preimage-v1";
constexpr std::string_view kOracleLabel = "tcpz-puzzle-oracle-v1";

/// Assembles the pre-image HMAC input into a caller-provided stack buffer
/// (label + timestamp + flow identity, 43 bytes) — no heap on the per-packet
/// path. Returns the message length.
std::size_t preimage_message(const FlowBinding& flow, std::uint32_t timestamp_ms,
                             std::uint8_t* out) {
  std::memcpy(out, kPreimageLabel.data(), kPreimageLabel.size());
  std::uint8_t* p = out + kPreimageLabel.size();
  p = store_u32be(p, timestamp_ms);
  p = store_u32be(p, flow.isn);
  p = store_u32be(p, flow.saddr);
  p = store_u32be(p, flow.daddr);
  p = store_u16be(p, flow.sport);
  p = store_u16be(p, flow.dport);
  return static_cast<std::size_t>(p - out);
}

/// One cached-midstate HMAC (~2 compressions), truncated to sol_len bytes.
Preimage derive_preimage(const crypto::HmacKey& key, const FlowBinding& flow,
                         std::uint32_t timestamp_ms, std::uint8_t sol_len) {
  std::uint8_t msg[64];
  const std::size_t n = preimage_message(flow, timestamp_ms, msg);
  const auto digest = key.mac(std::span<const std::uint8_t>(msg, n));
  return Preimage(std::span<const std::uint8_t>(digest.data(), sol_len));
}

/// The m-bit prefix condition on h(P || i || s_i), with everything invariant
/// across candidates hoisted out of the search loop: the brute force
/// evaluates ~2^(m-1) candidates per solution, and each of them used to
/// re-absorb P and i from scratch and re-pad P into a digest-sized target.
/// Here the P ‖ i prefix is written into a contiguous stack message once per
/// index (and the padded target once per search); a candidate check is one
/// tail memcpy plus the hash itself. The whole message is at most
/// 2*kMaxSolLen+1 = 65 bytes, so midstate tricks buy nothing over hashing
/// the assembled buffer — the win is not rebuilding it ~2^(m-1) times.
class SolutionChecker {
 public:
  SolutionChecker(std::span<const std::uint8_t> preimage, unsigned m_bits)
      : len_(preimage.size()), m_bits_(m_bits) {
    std::memcpy(block_, preimage.data(), len_);
    const std::size_t n = std::min(preimage.size(), target_.size());
    std::copy(preimage.begin(), preimage.begin() + static_cast<long>(n),
              target_.begin());
    // |P ‖ i ‖ s| = 2*sol_len + 1 <= 65; with sol_len <= 27 the message plus
    // SHA-256 padding fits one 64-byte block, so the padding and the length
    // field are ALSO loop invariants — prebuild the whole padded block and
    // run the bare compression function per candidate.
    single_block_ = 2 * len_ + 1 <= 55;
    if (single_block_) {
      const std::size_t msg_len = 2 * len_ + 1;
      std::memset(block_ + msg_len, 0, sizeof(block_) - msg_len);
      block_[msg_len] = 0x80;
      const std::uint64_t bits = msg_len * 8;
      for (int i = 0; i < 8; ++i) {
        block_[56 + i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
      }
      // The m-bit comparison, precomputed at word level: the compression
      // output is compared as big-endian words, skipping the digest
      // serialization entirely on the per-candidate path.
      for (int i = 0; i < 8; ++i) {
        target_words_[static_cast<std::size_t>(i)] =
            (static_cast<std::uint32_t>(target_[i * 4]) << 24) |
            (static_cast<std::uint32_t>(target_[i * 4 + 1]) << 16) |
            (static_cast<std::uint32_t>(target_[i * 4 + 2]) << 8) |
            static_cast<std::uint32_t>(target_[i * 4 + 3]);
      }
    }
  }

  /// Fixes the 1-based solution index; invariant for a whole search.
  void set_index(std::uint8_t index) { block_[len_] = index; }

  /// One candidate check: splice s into the prebuilt P||i message, hash,
  /// compare m bits.
  [[nodiscard]] bool matches(std::span<const std::uint8_t> candidate) const {
    if (candidate.size() != len_) {
      // Off-length probe (candidate_matches is public): the prebuilt block
      // assumes |s| == sol_len and cannot hold an arbitrary candidate, so
      // hash P||i||s incrementally — same bytes the seed implementation
      // hashed, any length.
      crypto::Sha256 h;
      h.update(std::span<const std::uint8_t>(block_, len_ + 1));
      h.update(candidate);
      return crypto::prefix_bits_equal(target_, h.finalize(), m_bits_);
    }
    std::memcpy(block_ + len_ + 1, candidate.data(), candidate.size());
    if (single_block_) {
      crypto::Sha256::State s = crypto::Sha256::initial_state();
      crypto::Sha256::compress(s, block_);
      const unsigned full_words = m_bits_ / 32;
      for (unsigned i = 0; i < full_words; ++i) {
        if (s[i] != target_words_[i]) return false;
      }
      const unsigned rem = m_bits_ % 32;
      if (rem == 0) return true;
      const std::uint32_t mask = ~std::uint32_t{0} << (32 - rem);
      return ((s[full_words] ^ target_words_[full_words]) & mask) == 0;
    }
    const crypto::Sha256Digest d = crypto::Sha256::hash(
        std::span<const std::uint8_t>(block_, len_ + 1 + candidate.size()));
    return crypto::prefix_bits_equal(target_, d, m_bits_);
  }

 private:
  /// P ‖ i ‖ s (up to 65 bytes for sol_len = 32), padded in place to a full
  /// compression block when the message fits one (sol_len <= 27).
  mutable std::uint8_t block_[2 * kMaxSolLen + 1];
  std::size_t len_;  ///< |P| (== sol_len)
  bool single_block_ = false;
  crypto::Sha256Digest target_{};  ///< P zero-padded to digest width
  std::array<std::uint32_t, 8> target_words_{};  ///< target_, big-endian words
  unsigned m_bits_;
};

/// Tolerated clock skew of an echoed timestamp into the future.
constexpr std::uint32_t kFutureSlackMs = 100;

/// Timestamp freshness. The 32-bit millisecond wire timestamp wraps every
/// ~49.7 simulated days, so the comparison uses serial-number arithmetic
/// (RFC 1982 style): the signed difference decides which side of "now" the
/// echo sits on, and is exact as long as the true skew is under ~24.8 days —
/// astronomically beyond any puzzle expiry. The naive
/// `echoed + expiry < now` form misfired at the wrap: a fresh solution
/// echoed just before the wrap looked like it came from the far future.
VerifyError check_freshness(std::uint32_t echoed_ms, std::uint32_t now_ms,
                            const EngineConfig& cfg) {
  const std::int32_t age_ms = static_cast<std::int32_t>(now_ms - echoed_ms);
  if (age_ms < 0) {
    // Negate through int64: -INT32_MIN does not fit an int32.
    const auto ahead_ms =
        static_cast<std::uint32_t>(-static_cast<std::int64_t>(age_ms));
    if (ahead_ms > kFutureSlackMs) return VerifyError::kFutureTimestamp;
    return VerifyError::kNone;
  }
  if (static_cast<std::uint32_t>(age_ms) > cfg.expiry_ms) {
    return VerifyError::kExpired;
  }
  return VerifyError::kNone;
}

void validate_difficulty(Difficulty diff, const EngineConfig& cfg) {
  if (diff.k == 0) throw std::invalid_argument("puzzle: k must be >= 1");
  if (diff.k > kMaxSolutionValues) {
    // Representability bound of Solution::values. (k*sol_len may still
    // exceed the 40-byte TCP option space for engine-only use — e.g. the
    // k=4, l=16 test grids; such a solution throws std::length_error only
    // if it is ever packed into a SolutionOption, exactly where the seed
    // implementation's wire encoder threw.)
    throw std::invalid_argument("puzzle: k exceeds Solution value capacity");
  }
  if (diff.m == 0) throw std::invalid_argument("puzzle: m must be >= 1");
  if (diff.m >= cfg.sol_len * 8u) {
    throw std::invalid_argument(
        "puzzle: m must be < 8*sol_len (the m-bit prefix lives in the "
        "sol_len-byte pre-image)");
  }
}

/// The oracle's s_i: a labelled hash of P and i, truncated to |P|. Derived
/// from the challenge pre-image alone, NOT the server secret: solving must
/// not require anything beyond the SYN-ACK bytes (a real client
/// brute-forces from the challenge), and in a fleet that rotates its secret,
/// old challenges must stay solvable by clients that know nothing about
/// epochs. Verification still binds solutions to the secret — and to the
/// minting epoch — because the verifier re-derives the pre-image from its
/// own secret and the echoed flow/timestamp.
SolutionValue oracle_value(std::span<const std::uint8_t> preimage,
                           std::uint8_t index) {
  std::uint8_t msg[64];  // label (21) + pre-image (<= 32) + index
  std::memcpy(msg, kOracleLabel.data(), kOracleLabel.size());
  std::memcpy(msg + kOracleLabel.size(), preimage.data(), preimage.size());
  std::size_t n = kOracleLabel.size() + preimage.size();
  msg[n++] = index;
  const auto digest =
      crypto::Sha256::hash(std::span<const std::uint8_t>(msg, n));
  return SolutionValue(
      std::span<const std::uint8_t>(digest.data(), preimage.size()));
}

}  // namespace

std::uint64_t sample_solve_hashes(Difficulty diff, Rng& rng) {
  // The paper's cost model (§4.1): one solution takes "a maximum of 2^m and
  // an average of 2^(m-1)" hash operations, i.e. the solution is uniformly
  // located in a search space of 2^m candidates. (An unbounded random search
  // is geometric with mean 2^m — see the Sha256 engine tests; we follow the
  // paper's model so ℓ(p) = k·2^(m-1) prices the simulated work exactly.)
  const std::uint64_t space = 1ull << diff.m;
  std::uint64_t total = 0;
  for (unsigned i = 0; i < diff.k; ++i) total += 1 + rng.uniform_u64(space);
  return total;
}

// ---------------------------------------------------------------------------
// PuzzleEngine: the scheme, shared by both engines
// ---------------------------------------------------------------------------

PuzzleEngine::PuzzleEngine(crypto::SecretKey secret, EngineConfig cfg)
    : secret_(secret), cfg_(cfg) {
  if (cfg_.sol_len == 0 || cfg_.sol_len > kMaxSolLen) {
    throw std::invalid_argument("puzzle: sol_len must be in [1, 32]");
  }
}

Challenge PuzzleEngine::make_challenge(const FlowBinding& flow,
                                       std::uint32_t timestamp_ms,
                                       Difficulty diff) const {
  validate_difficulty(diff, cfg_);
  Challenge c;
  c.diff = diff;
  c.sol_len = cfg_.sol_len;
  c.timestamp = timestamp_ms;
  c.preimage =
      derive_preimage(secret_.hmac(), flow, timestamp_ms, cfg_.sol_len);
  return c;
}

VerifyOutcome PuzzleEngine::verify(const FlowBinding& flow,
                                   const Solution& solution, Difficulty diff,
                                   std::uint32_t now_ms) const {
  VerifyOutcome out;
  out.error = check_freshness(solution.timestamp, now_ms, cfg_);
  if (out.error != VerifyError::kNone) return out;
  if (solution.values.size() != diff.k) {
    out.error = VerifyError::kWrongCount;
    return out;
  }
  for (const auto& v : solution.values) {
    if (v.size() != cfg_.sol_len) {
      out.error = VerifyError::kWrongLength;
      return out;
    }
  }

  // One hash to re-derive the pre-image (statelessness: nothing was
  // stored), then one per value checked. The paper's d(p) = 1 + k/2 is the
  // expectation under early exit; success costs the full 1 + k.
  const Preimage preimage =
      derive_preimage(secret_.hmac(), flow, solution.timestamp, cfg_.sol_len);
  const std::size_t bad = first_bad_value(preimage, solution, diff.m);
  out.hash_ops = 1 + std::min<std::size_t>(bad + 1, diff.k);
  out.ok = bad == diff.k;
  if (!out.ok) out.error = VerifyError::kBadSolution;
  return out;
}

// ---------------------------------------------------------------------------
// Sha256PuzzleEngine
// ---------------------------------------------------------------------------

bool Sha256PuzzleEngine::candidate_matches(
    const Challenge& challenge, std::uint8_t index,
    std::span<const std::uint8_t> candidate) {
  SolutionChecker checker(challenge.preimage, challenge.diff.m);
  checker.set_index(index);
  return checker.matches(candidate);
}

Solution Sha256PuzzleEngine::solve(const Challenge& challenge,
                                   const FlowBinding& /*flow*/, Rng& rng,
                                   std::uint64_t& hash_ops_out) const {
  Solution sol;
  sol.timestamp = challenge.timestamp;
  sol.values.reserve(challenge.diff.k);
  hash_ops_out = 0;

  // The P (and per-index P||i) prefix is absorbed once; the ~2^(m-1)
  // candidates per solution only fork the midstate and hash themselves.
  SolutionChecker checker(challenge.preimage, challenge.diff.m);
  for (unsigned i = 1; i <= challenge.diff.k; ++i) {
    checker.set_index(static_cast<std::uint8_t>(i));
    // Start the counter at a random point so repeated solves of equivalent
    // puzzles do not share a search prefix (and so the hash-op count is a
    // true geometric sample, as the analysis assumes).
    std::uint64_t counter = rng.next();
    SolutionValue candidate(challenge.sol_len, 0);
    for (;;) {
      // Candidate = counter in big-endian, repeated/truncated to sol_len.
      for (std::size_t b = 0; b < candidate.size(); ++b) {
        candidate[b] =
            static_cast<std::uint8_t>(counter >> (8 * ((candidate.size() - 1 - b) % 8)));
      }
      ++hash_ops_out;
      if (checker.matches(candidate)) {
        sol.values.push_back(candidate);
        break;
      }
      ++counter;
    }
  }
  return sol;
}

std::size_t Sha256PuzzleEngine::first_bad_value(const Preimage& preimage,
                                                const Solution& solution,
                                                unsigned m_bits) const {
  // The padded block is built once per verify; each value only splices in.
  SolutionChecker checker(preimage, m_bits);
  const std::size_t k = solution.values.size();
  for (std::size_t i = 0; i < k; ++i) {
    checker.set_index(static_cast<std::uint8_t>(i + 1));
    if (!checker.matches(solution.values[i])) return i;
  }
  return k;
}

// ---------------------------------------------------------------------------
// OraclePuzzleEngine
// ---------------------------------------------------------------------------

Solution OraclePuzzleEngine::solve(const Challenge& challenge,
                                   const FlowBinding& /*flow*/, Rng& rng,
                                   std::uint64_t& hash_ops_out) const {
  Solution sol;
  sol.timestamp = challenge.timestamp;
  sol.values.reserve(challenge.diff.k);
  for (unsigned i = 1; i <= challenge.diff.k; ++i) {
    sol.values.push_back(
        oracle_value(challenge.preimage, static_cast<std::uint8_t>(i)));
  }
  hash_ops_out = sample_solve_hashes(challenge.diff, rng);
  return sol;
}

std::size_t OraclePuzzleEngine::first_bad_value(const Preimage& preimage,
                                                const Solution& solution,
                                                unsigned /*m_bits*/) const {
  const std::size_t k = solution.values.size();
  for (std::size_t i = 0; i < k; ++i) {
    const SolutionValue expected =
        oracle_value(preimage, static_cast<std::uint8_t>(i + 1));
    if (!ct_equal(solution.values[i], expected)) return i;
  }
  return k;
}

}  // namespace tcpz::puzzle
