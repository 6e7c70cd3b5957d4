// Deterministic pseudo-random number generation for simulations.
//
// We ship our own xoshiro256** engine instead of std::mt19937 because (a) the
// stream must be reproducible across standard libraries for the experiment
// harness to be regression-testable, and (b) xoshiro256** is ~4x faster,
// which matters when sampling per-packet jitter millions of times.
#pragma once

#include <cstdint>
#include <cmath>
#include <limits>

#include "util/time.hpp"

namespace tcpz {

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm).
/// Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds via splitmix64 so that consecutive integer seeds give well
  /// decorrelated streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) { reseed(seed); }

  void reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<std::uint64_t>::max();
  }

  result_type operator()() { return next(); }

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0. Uses Lemire's multiply-shift
  /// rejection method to avoid modulo bias.
  std::uint64_t uniform_u64(std::uint64_t n);

  /// Exponential with the given rate (mean 1/rate). rate must be > 0.
  double exponential(double rate) {
    // 1-uniform() is in (0,1], so the log argument is never 0.
    return -std::log(1.0 - uniform()) / rate;
  }

  /// Number of Bernoulli(p) trials up to and including the first success
  /// (support {1, 2, ...}). This is exactly the distribution of the number of
  /// hash attempts a brute-force puzzle search performs for one solution with
  /// success probability p = 2^-m.
  ///
  /// Uses the inverse-CDF method: ceil(ln U / ln(1-p)), which is exact and
  /// O(1) regardless of how small p is.
  std::uint64_t geometric(double p);

  /// True with probability p.
  bool bernoulli(double p) { return uniform() < p; }

  /// Standard normal via Marsaglia polar method.
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Derives an independent child stream (for per-agent RNGs) so agents can
  /// be added or removed without perturbing each other's streams.
  Rng split();

  /// Derives a decorrelated child seed from a root seed and a *stable*
  /// stream id (e.g. an agent's (role, group, index) packed into 64 bits).
  /// Unlike drawing seeds sequentially from one seeder stream, the child
  /// seed depends only on (root_seed, stream_id) — adding or removing an
  /// agent can never perturb any other agent's stream.
  [[nodiscard]] static std::uint64_t derive_seed(std::uint64_t root_seed,
                                                 std::uint64_t stream_id);

  /// Convenience: an Rng seeded with derive_seed(root_seed, stream_id).
  [[nodiscard]] static Rng derive(std::uint64_t root_seed,
                                  std::uint64_t stream_id) {
    return Rng{derive_seed(root_seed, stream_id)};
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4]{};
  bool has_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

/// One Poisson-process inter-arrival wait: Exp(rate) mapped onto the
/// simulation clock. The client workload models and the server's M/M/1
/// service loop all draw open-loop waits through this single helper, so the
/// draw (one uniform, the same float pipeline) can never drift between call
/// sites — the golden traces pin the exact sequence.
[[nodiscard]] inline SimTime exp_interarrival(Rng& rng, double rate) {
  return SimTime::from_seconds(rng.exponential(rate));
}

}  // namespace tcpz
