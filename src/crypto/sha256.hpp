// SHA-256 (FIPS 180-4), implemented from scratch so the library has no
// external crypto dependency. The paper's puzzle scheme (after Juels &
// Brainard) relies only on pre-image resistance of the hash; the Linux patch
// used the kernel's SHA-256, we use this one.
//
// Like the kernel's, it runs on the CPU's SHA extensions where it has them:
// compress() picks the x86 SHA-NI path or the portable scalar one from the
// CPU alone, once per process, with no option to override it. Both give
// identical digests; the scalar path is the only one off x86 and the
// reference the tests hold the hardware path to.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace tcpz::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;
using Sha256Digest = std::array<std::uint8_t, kSha256DigestSize>;

/// Incremental SHA-256. Usage: update() any number of times, then finalize().
/// After finalize() the object can be reset() and reused. Copyable: the hot
/// loops snapshot a partially-absorbed hash (HMAC midstates, the invariant
/// preimage‖index prefix of the puzzle solve loop) and fork per message.
class Sha256 {
 public:
  /// The eight working words — a resumable compression-function midstate.
  using State = std::array<std::uint32_t, 8>;

  Sha256() { reset(); }

  void reset();
  void update(std::span<const std::uint8_t> data);
  void update(std::string_view s) {
    update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  }
  [[nodiscard]] Sha256Digest finalize();

  /// One-shot convenience.
  [[nodiscard]] static Sha256Digest hash(std::span<const std::uint8_t> data);
  [[nodiscard]] static Sha256Digest hash(std::string_view s);

  /// The raw compression function: folds one 64-byte block into `state`.
  /// The keyed hot paths (HMAC midstates, the puzzle solution check) build
  /// fully-padded single blocks on the stack and call this directly,
  /// skipping the incremental buffering/finalization machinery. Every hash
  /// in the library goes through here, so this is where the SHA-NI/scalar
  /// choice is made.
  static void compress(State& state, const std::uint8_t* block);

  /// Fresh initial state (FIPS 180-4 H(0)), for direct compress() use.
  [[nodiscard]] static State initial_state();

  /// Serializes a compression state into the big-endian digest form.
  [[nodiscard]] static Sha256Digest state_to_digest(const State& state);

 private:
  friend class HmacKey;  // seeds state_/bit_count_ from cached midstates

  void process_block(const std::uint8_t* block) { compress(state_, block); }

  State state_{};
  std::uint64_t bit_count_ = 0;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
};

/// Which compression path this process runs: "sha-ni" or "scalar". Bench
/// reports carry it, so a crypto timing always names its path.
[[nodiscard]] const char* sha256_impl();

/// True iff the first `bits` bits of a and b agree. The puzzle scheme
/// compares m-bit prefixes.
[[nodiscard]] bool prefix_bits_equal(const Sha256Digest& a,
                                     const Sha256Digest& b, unsigned bits);

}  // namespace tcpz::crypto
