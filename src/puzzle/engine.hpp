// PuzzleEngine: generation, solving and verification of client puzzles.
//
// The scheme is implemented once, in PuzzleEngine: minting a challenge
// (g(p) = 1 hash), and verifying a solution (freshness, count, every
// value's length, then 1 hash to re-derive the pre-image and 1 hash per
// value up to the first failure). Two engines differ only in how a solution
// is found and how one submitted value is checked:
//
//  * Sha256PuzzleEngine — the real scheme. solve() brute-forces the m-bit
//    prefix search with actual SHA-256 calls, exactly as a client kernel
//    would; a value passes when h(P || i || s_i) matches P in m bits. Used
//    by unit tests, examples and the crypto microbenchmarks.
//
//  * OraclePuzzleEngine — the simulation substitute. Producing a real
//    17-bit-difficulty solution costs ~2^16 hashes of *host* CPU, which would
//    conflate simulated time with wall-clock time inside the discrete-event
//    simulator. The oracle engine instead derives each "solution" value from
//    the challenge pre-image (so genuine ones verify byte-for-byte and
//    bogus/replayed ones still fail), and reports the *sampled* number of
//    hash operations a brute-force search would have performed (sum of k
//    uniform draws over 2^m). The simulator charges that cost to the solving
//    host's CPU model. Every protocol-visible property — statelessness,
//    expiry, flow binding, replay resistance, verify cost, the verdict on
//    malformed input — is the shared code's. See DESIGN.md "Substitutions".
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "crypto/secret.hpp"
#include "puzzle/types.hpp"
#include "util/rng.hpp"

namespace tcpz::puzzle {

/// Parameters common to both engines.
struct EngineConfig {
  std::uint8_t sol_len = 8;          ///< l: bytes per solution / pre-image
  std::uint32_t expiry_ms = 4'000;   ///< challenge lifetime (sysctl-tunable)
};

class PuzzleEngine {
 public:
  virtual ~PuzzleEngine() = default;

  /// Server side: derive the challenge for this flow at this timestamp.
  /// Stateless — calling it twice with the same inputs yields the same
  /// challenge. Costs g(p) = 1 hash.
  [[nodiscard]] Challenge make_challenge(const FlowBinding& flow,
                                         std::uint32_t timestamp_ms,
                                         Difficulty diff) const;

  /// Client side: produce a solution. `hash_ops_out` receives the number of
  /// hash operations the search performed (real count for the SHA-256
  /// engine, sampled count for the oracle engine).
  [[nodiscard]] virtual Solution solve(const Challenge& challenge,
                                       const FlowBinding& flow, Rng& rng,
                                       std::uint64_t& hash_ops_out) const = 0;

  /// Server side: stateless verification. Rejects, in this order and at no
  /// hash cost, a stale or future echoed timestamp, a value count other
  /// than k and any value not sol_len bytes long. Then re-derives the
  /// pre-image from the flow and the echoed timestamp (1 hash) and checks
  /// the values in order, 1 hash each, up to the first failure: success
  /// costs 1 + k. `now_ms` is the server clock.
  [[nodiscard]] VerifyOutcome verify(const FlowBinding& flow,
                                     const Solution& solution, Difficulty diff,
                                     std::uint32_t now_ms) const;

  [[nodiscard]] const EngineConfig& config() const { return cfg_; }

 protected:
  /// Throws std::invalid_argument unless sol_len is in [1, 32].
  PuzzleEngine(crypto::SecretKey secret, EngineConfig cfg);

 private:
  /// Checks solution.values in order against the pre-image at m bits and
  /// returns the index of the first value that fails, or k when all pass.
  /// verify() has already checked that there are k values of sol_len bytes.
  [[nodiscard]] virtual std::size_t first_bad_value(const Preimage& preimage,
                                                    const Solution& solution,
                                                    unsigned m_bits) const = 0;

  crypto::SecretKey secret_;
  EngineConfig cfg_;
};

/// The real scheme. Brute-force solving is exponential in m; tests and
/// examples keep m <= ~20.
class Sha256PuzzleEngine final : public PuzzleEngine {
 public:
  Sha256PuzzleEngine(crypto::SecretKey secret, EngineConfig cfg = {})
      : PuzzleEngine(secret, cfg) {}

  [[nodiscard]] Solution solve(const Challenge& challenge,
                               const FlowBinding& flow, Rng& rng,
                               std::uint64_t& hash_ops_out) const override;

  /// One solution-candidate check, independent of any engine instance (a
  /// reference for the tests and the microbenchmarks).
  [[nodiscard]] static bool candidate_matches(
      const Challenge& challenge, std::uint8_t index,
      std::span<const std::uint8_t> candidate);

 private:
  [[nodiscard]] std::size_t first_bad_value(const Preimage& preimage,
                                            const Solution& solution,
                                            unsigned m_bits) const override;
};

/// The simulation oracle (see file comment): only the solution search and
/// the value check are replaced.
class OraclePuzzleEngine final : public PuzzleEngine {
 public:
  OraclePuzzleEngine(crypto::SecretKey secret, EngineConfig cfg = {})
      : PuzzleEngine(secret, cfg) {}

  [[nodiscard]] Solution solve(const Challenge& challenge,
                               const FlowBinding& flow, Rng& rng,
                               std::uint64_t& hash_ops_out) const override;

 private:
  [[nodiscard]] std::size_t first_bad_value(const Preimage& preimage,
                                            const Solution& solution,
                                            unsigned m_bits) const override;
};

/// Samples the number of hash operations a brute-force search for a full
/// (k, m) solution performs: the sum of k independent uniform draws over the
/// 2^m-candidate space. Shared by the oracle engine and the CPU model tests.
[[nodiscard]] std::uint64_t sample_solve_hashes(Difficulty diff, Rng& rng);

}  // namespace tcpz::puzzle
