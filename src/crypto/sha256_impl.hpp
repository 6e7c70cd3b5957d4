// The two SHA-256 compression paths behind Sha256::compress, exposed so
// tests and the crypto microbench can run each one directly. Library code
// calls Sha256::compress, which picks one per process.
#pragma once

#include <cstdint>

#include "crypto/sha256.hpp"

namespace tcpz::crypto {

/// Portable unrolled compression: the only path off x86 and on CPUs without
/// SHA-NI, and the reference the hardware path is tested against.
void compress_scalar(Sha256::State& state, const std::uint8_t* block);

/// x86 SHA-NI compression. Call only when sha256_hw_available().
void compress_shani(Sha256::State& state, const std::uint8_t* block);

/// True iff this CPU has the SHA extensions (and SSE4.1) compress_shani
/// needs. Always false off x86.
[[nodiscard]] bool sha256_hw_available();

}  // namespace tcpz::crypto
