// PuzzleEngine: generation, solving and verification of client puzzles.
//
// Two implementations share one interface:
//
//  * Sha256PuzzleEngine — the real scheme. solve() brute-forces the m-bit
//    prefix search with actual SHA-256 calls, exactly as a client kernel
//    would. Used by unit tests, examples and the crypto microbenchmarks.
//
//  * OraclePuzzleEngine — the simulation substitute. Producing a real
//    17-bit-difficulty solution costs ~2^16 hashes of *host* CPU, which would
//    conflate simulated time with wall-clock time inside the discrete-event
//    simulator. The oracle engine instead derives "solutions" with the server
//    secret (so they verify byte-for-byte and bogus/replayed ones still
//    fail), and reports the *sampled* number of hash operations a brute-force
//    search would have performed (sum of k geometric(2^-m) draws). The
//    simulator charges that cost to the solving host's CPU model. Every
//    protocol-visible property — statelessness, expiry, flow binding, replay
//    resistance, verify cost — is preserved. See DESIGN.md "Substitutions".
#pragma once

#include <cstdint>
#include <memory>

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
  [[nodiscard]] virtual Challenge make_challenge(const FlowBinding& flow,
                                                 std::uint32_t timestamp_ms,
                                                 Difficulty diff) const = 0;

  /// Client side: produce a solution. `hash_ops_out` receives the number of
  /// hash operations the search performed (real count for the SHA-256
  /// engine, sampled count for the oracle engine).
  [[nodiscard]] virtual Solution solve(const Challenge& challenge,
                                       const FlowBinding& flow, Rng& rng,
                                       std::uint64_t& hash_ops_out) const = 0;

  /// Server side: stateless verification. Re-derives the challenge from the
  /// flow and the echoed timestamp, enforces expiry, then checks the k
  /// m-bit prefix conditions. `now_ms` is the server clock.
  [[nodiscard]] virtual VerifyOutcome verify(const FlowBinding& flow,
                                             const Solution& solution,
                                             Difficulty diff,
                                             std::uint32_t now_ms) const = 0;

  [[nodiscard]] virtual const EngineConfig& config() const = 0;
};

/// The real scheme. Brute-force solving is exponential in m; tests and
/// examples keep m <= ~20.
class Sha256PuzzleEngine final : public PuzzleEngine {
 public:
  Sha256PuzzleEngine(crypto::SecretKey secret, EngineConfig cfg = {});

  [[nodiscard]] Challenge make_challenge(const FlowBinding& flow,
                                         std::uint32_t timestamp_ms,
                                         Difficulty diff) const override;
  [[nodiscard]] Solution solve(const Challenge& challenge,
                               const FlowBinding& flow, Rng& rng,
                               std::uint64_t& hash_ops_out) const override;
  [[nodiscard]] VerifyOutcome verify(const FlowBinding& flow,
                                     const Solution& solution, Difficulty diff,
                                     std::uint32_t now_ms) const override;
  [[nodiscard]] const EngineConfig& config() const override { return cfg_; }

  /// Exposed for the microbenchmarks: one solution-candidate check.
  [[nodiscard]] static bool candidate_matches(
      const Challenge& challenge, std::uint8_t index,
      std::span<const std::uint8_t> candidate);

 private:
  [[nodiscard]] Preimage derive_preimage(const FlowBinding& flow,
                                         std::uint32_t timestamp_ms) const;

  crypto::SecretKey secret_;
  EngineConfig cfg_;
};

/// The simulation oracle (see file comment). Shares the challenge pre-image
/// derivation with the real engine; only the solution search is replaced.
class OraclePuzzleEngine final : public PuzzleEngine {
 public:
  OraclePuzzleEngine(crypto::SecretKey secret, EngineConfig cfg = {});

  [[nodiscard]] Challenge make_challenge(const FlowBinding& flow,
                                         std::uint32_t timestamp_ms,
                                         Difficulty diff) const override;
  [[nodiscard]] Solution solve(const Challenge& challenge,
                               const FlowBinding& flow, Rng& rng,
                               std::uint64_t& hash_ops_out) const override;
  [[nodiscard]] VerifyOutcome verify(const FlowBinding& flow,
                                     const Solution& solution, Difficulty diff,
                                     std::uint32_t now_ms) const override;
  [[nodiscard]] const EngineConfig& config() const override { return cfg_; }

 private:
  [[nodiscard]] Preimage derive_preimage(const FlowBinding& flow,
                                         std::uint32_t timestamp_ms) const;
  [[nodiscard]] SolutionValue oracle_solution(
      std::span<const std::uint8_t> preimage, std::uint8_t index) const;

  crypto::SecretKey secret_;
  EngineConfig cfg_;
};

/// Samples the number of hash operations a brute-force search for a full
/// (k, m) solution performs: the sum of k independent geometric(2^-m)
/// variables. Shared by the oracle engine and the CPU model tests.
[[nodiscard]] std::uint64_t sample_solve_hashes(Difficulty diff, Rng& rng);

}  // namespace tcpz::puzzle
