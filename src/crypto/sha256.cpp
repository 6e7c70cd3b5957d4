#include "crypto/sha256.hpp"

#include <bit>
#include <cstring>

#include "crypto/sha256_impl.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace tcpz::crypto {
namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

// FIPS 180-4 sigma functions. std::rotr compiles to a single ror.
constexpr std::uint32_t lsig0(std::uint32_t x) {
  return std::rotr(x, 7) ^ std::rotr(x, 18) ^ (x >> 3);
}
constexpr std::uint32_t lsig1(std::uint32_t x) {
  return std::rotr(x, 17) ^ std::rotr(x, 19) ^ (x >> 10);
}
constexpr std::uint32_t usig0(std::uint32_t x) {
  return std::rotr(x, 2) ^ std::rotr(x, 13) ^ std::rotr(x, 22);
}
constexpr std::uint32_t usig1(std::uint32_t x) {
  return std::rotr(x, 6) ^ std::rotr(x, 11) ^ std::rotr(x, 25);
}

constexpr std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

}  // namespace

void Sha256::reset() {
  state_ = initial_state();
  bit_count_ = 0;
  buffer_len_ = 0;
}

void compress_scalar(Sha256::State& state, const std::uint8_t* block) {
  // The message schedule is kept as a loop (the compiler vectorizes it);
  // the 64 rounds are fully unrolled with the register rotation expressed as
  // argument permutation, so the round state lives in registers end to end —
  // no h=g; g=f; ... shuffle chain per round.
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) w[i] = load_be32(block + i * 4);
  for (int i = 16; i < 64; ++i) {
    w[i] = w[i - 16] + lsig0(w[i - 15]) + w[i - 7] + lsig1(w[i - 2]);
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

#define TCPZ_SHA256_ROUND(a, b, c, d, e, f, g, h, i)                       \
  {                                                                        \
    const std::uint32_t t1 =                                               \
        h + usig1(e) + ((e & f) ^ (~e & g)) + kK[i] + w[i];                \
    const std::uint32_t t2 = usig0(a) + ((a & b) ^ (a & c) ^ (b & c));     \
    d += t1;                                                               \
    h = t1 + t2;                                                           \
  }
  for (int i = 0; i < 64; i += 8) {
    TCPZ_SHA256_ROUND(a, b, c, d, e, f, g, h, i + 0)
    TCPZ_SHA256_ROUND(h, a, b, c, d, e, f, g, i + 1)
    TCPZ_SHA256_ROUND(g, h, a, b, c, d, e, f, i + 2)
    TCPZ_SHA256_ROUND(f, g, h, a, b, c, d, e, i + 3)
    TCPZ_SHA256_ROUND(e, f, g, h, a, b, c, d, i + 4)
    TCPZ_SHA256_ROUND(d, e, f, g, h, a, b, c, i + 5)
    TCPZ_SHA256_ROUND(c, d, e, f, g, h, a, b, i + 6)
    TCPZ_SHA256_ROUND(b, c, d, e, f, g, h, a, i + 7)
  }
#undef TCPZ_SHA256_ROUND

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if defined(__x86_64__) || defined(__i386__)

// The SHA extensions keep the eight working words as two vectors, ABEF and
// CDGH (lane comments read high lane to low); each _mm_sha256rnds2_epu32
// runs two rounds and msg1/msg2 extend the message schedule four words at a
// time. Only this function is compiled for the extension, so no SHA/SSE4.1
// instruction leaks into code that runs before the CPU check.
__attribute__((target("sha,ssse3,sse4.1"))) void compress_shani(
    Sha256::State& state, const std::uint8_t* block) {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xb1);                // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1b);              // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);      // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xf0);           // CDGH
  const __m128i abef_in = abef;
  const __m128i cdgh_in = cdgh;

  // w[g & 3] holds schedule words 4g..4g+3 while group g runs.
  __m128i w[4];
  for (int i = 0; i < 4; ++i) {
    w[i] = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + i * 16)),
        byte_swap);
  }
#pragma GCC unroll 16
  for (int g = 0; g < 16; ++g) {
    if (g >= 4) {
      const __m128i w_7 = _mm_alignr_epi8(w[(g + 3) & 3], w[(g + 2) & 3], 4);
      w[g & 3] = _mm_sha256msg2_epu32(
          _mm_add_epi32(_mm_sha256msg1_epu32(w[g & 3], w[(g + 1) & 3]), w_7),
          w[(g + 3) & 3]);
    }
    __m128i wk = _mm_add_epi32(
        w[g & 3],
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[g * 4])));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    wk = _mm_shuffle_epi32(wk, 0x0e);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
  }

  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);
  tmp = _mm_shuffle_epi32(abef, 0x1b);               // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xb1);              // DCHG
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(tmp, cdgh, 0xf0));  // DCBA
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(cdgh, tmp, 8));     // HGFE
}

bool sha256_hw_available() {
  // __builtin_cpu_init() must run first: otherwise the feature bits are
  // filled in by a library constructor that may not have run yet when the
  // first hash is taken (e.g. from a static initializer), and read false.
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
  }();
  return available;
}

#else

void compress_shani(Sha256::State& state, const std::uint8_t* block) {
  compress_scalar(state, block);  // unreachable: no SHA-NI off x86
}

bool sha256_hw_available() { return false; }

#endif

void Sha256::compress(State& state, const std::uint8_t* block) {
  static const auto impl =
      sha256_hw_available() ? &compress_shani : &compress_scalar;
  impl(state, block);
}

const char* sha256_impl() {
  return sha256_hw_available() ? "sha-ni" : "scalar";
}

Sha256::State Sha256::initial_state() {
  return {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
          0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
}

Sha256Digest Sha256::state_to_digest(const State& state) {
  Sha256Digest out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(state[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(state[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(state[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(state[i]);
  }
  return out;
}

void Sha256::update(std::span<const std::uint8_t> data) {
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

Sha256Digest Sha256::finalize() {
  // Append 0x80, pad with zeros to 56 mod 64, then the 64-bit bit count.
  std::uint8_t pad[72] = {0x80};
  const std::size_t rem = buffer_len_;
  const std::size_t pad_len = (rem < 56) ? (56 - rem) : (120 - rem);
  std::uint8_t len_be[8];
  for (int i = 0; i < 8; ++i) {
    len_be[i] = static_cast<std::uint8_t>(bit_count_ >> (56 - 8 * i));
  }
  update(std::span<const std::uint8_t>(pad, pad_len));
  update(std::span<const std::uint8_t>(len_be, 8));
  return state_to_digest(state_);
}

Sha256Digest Sha256::hash(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

Sha256Digest Sha256::hash(std::string_view s) {
  Sha256 h;
  h.update(s);
  return h.finalize();
}

bool prefix_bits_equal(const Sha256Digest& a, const Sha256Digest& b,
                       unsigned bits) {
  const unsigned full_bytes = bits / 8;
  for (unsigned i = 0; i < full_bytes; ++i) {
    if (a[i] != b[i]) return false;
  }
  const unsigned rem = bits % 8;
  if (rem == 0) return true;
  const std::uint8_t mask = static_cast<std::uint8_t>(0xff << (8 - rem));
  return (a[full_bytes] & mask) == (b[full_bytes] & mask);
}

}  // namespace tcpz::crypto
