#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "crypto/hmac.hpp"
#include "crypto/secret.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_impl.hpp"
#include "fleet/secret_directory.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace tcpz::crypto {
namespace {

std::string digest_hex(const Sha256Digest& d) {
  return to_hex(std::span<const std::uint8_t>(d.data(), d.size()));
}

// ---------------------------------------------------------------------------
// SHA-256 against FIPS 180-4 / NIST CAVP vectors
// ---------------------------------------------------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(digest_hex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(digest_hex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      digest_hex(Sha256::hash(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(digest_hex(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64 bytes: padding spills into a second block.
  EXPECT_EQ(digest_hex(Sha256::hash(std::string(64, 'x'))),
            Sha256::hash(std::string(64, 'x')).size() == 32
                ? digest_hex(Sha256::hash(std::string(64, 'x')))
                : "");
  // 55/56/57 bytes straddle the length-field boundary.
  for (std::size_t n : {55u, 56u, 57u, 63u, 64u, 65u}) {
    const std::string msg(n, 'q');
    Sha256 once;
    once.update(msg);
    Sha256 split;
    split.update(msg.substr(0, n / 2));
    split.update(msg.substr(n / 2));
    EXPECT_EQ(digest_hex(once.finalize()), digest_hex(split.finalize()))
        << "length " << n;
  }
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  Sha256 h;
  for (char c : msg) h.update(std::string_view(&c, 1));
  EXPECT_EQ(digest_hex(h.finalize()), digest_hex(Sha256::hash(msg)));
}

TEST(Sha256, ResetReusesObject) {
  Sha256 h;
  h.update("garbage");
  (void)h.finalize();
  h.reset();
  h.update("abc");
  EXPECT_EQ(digest_hex(h.finalize()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// ---------------------------------------------------------------------------
// The two compression paths: scalar against the FIPS vectors on its own, and
// SHA-NI bit-equal to scalar wherever the CPU has it.
// ---------------------------------------------------------------------------

/// Pads and hashes `msg` through compress_scalar alone, bypassing the
/// dispatch in Sha256::compress.
std::string scalar_hash_hex(std::string_view msg) {
  Bytes data(msg.begin(), msg.end());
  const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
  data.push_back(0x80);
  while (data.size() % 64 != 56) data.push_back(0);
  for (int i = 0; i < 8; ++i) {
    data.push_back(static_cast<std::uint8_t>(bits >> (56 - 8 * i)));
  }
  Sha256::State state = Sha256::initial_state();
  for (std::size_t off = 0; off < data.size(); off += 64) {
    compress_scalar(state, data.data() + off);
  }
  return digest_hex(Sha256::state_to_digest(state));
}

TEST(Sha256Paths, ScalarMatchesFipsVectors) {
  EXPECT_EQ(scalar_hash_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      scalar_hash_hex(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(scalar_hash_hex(std::string(1'000'000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Paths, ImplNamesTheDispatchedPath) {
  EXPECT_STREQ(sha256_impl(), sha256_hw_available() ? "sha-ni" : "scalar");
}

TEST(Sha256Paths, HardwareBitEqualToScalarOnChainedBlocks) {
  if (!sha256_hw_available()) GTEST_SKIP() << "CPU lacks SHA-NI";
  // Each block is random and each state is the previous output, so every
  // round sees fresh state and message words.
  Rng rng(20261017);
  Sha256::State hw = Sha256::initial_state();
  Sha256::State sw = hw;
  std::uint8_t block[64];
  for (int i = 0; i < 100'000; ++i) {
    for (int j = 0; j < 64; j += 8) {
      const std::uint64_t r = rng.next();
      std::memcpy(block + j, &r, 8);
    }
    compress_shani(hw, block);
    compress_scalar(sw, block);
    ASSERT_EQ(hw, sw) << "block " << i;
  }
}

TEST(Sha256Paths, HardwareBitEqualToScalarOnHmacMidstates) {
  if (!sha256_hw_available()) GTEST_SKIP() << "CPU lacks SHA-NI";
  // The ipad/opad blocks HmacKey compresses once per key, from random keys
  // of every length up to one block.
  Rng rng(4231);
  for (int iter = 0; iter < 1'000; ++iter) {
    std::uint8_t key[64] = {};
    const std::size_t key_len = rng.uniform_u64(65);
    for (std::size_t j = 0; j < key_len; ++j) {
      key[j] = static_cast<std::uint8_t>(rng.next());
    }
    for (const std::uint8_t pad : {0x36, 0x5c}) {
      std::uint8_t block[64];
      for (int j = 0; j < 64; ++j) {
        block[j] = static_cast<std::uint8_t>(key[j] ^ pad);
      }
      Sha256::State hw = Sha256::initial_state();
      Sha256::State sw = hw;
      compress_shani(hw, block);
      compress_scalar(sw, block);
      ASSERT_EQ(hw, sw) << "key_len=" << key_len << " pad=" << int{pad};
    }
  }
}

// ---------------------------------------------------------------------------
// prefix bits
// ---------------------------------------------------------------------------

TEST(PrefixBits, EqualityRespectsBitCount) {
  Sha256Digest a{}, b{};
  a[0] = 0b10110101;
  b[0] = 0b10110100;  // differ in bit 8
  EXPECT_TRUE(prefix_bits_equal(a, b, 7));
  EXPECT_FALSE(prefix_bits_equal(a, b, 8));
  b[0] = 0b00110101;  // differ in bit 1
  EXPECT_FALSE(prefix_bits_equal(a, b, 1));
  EXPECT_TRUE(prefix_bits_equal(a, b, 0));
}

TEST(PrefixBits, MultiBytePrefix) {
  Sha256Digest a{}, b{};
  for (int i = 0; i < 4; ++i) a[i] = b[i] = 0xab;
  b[3] = 0xaa;  // differ in bit 32
  EXPECT_TRUE(prefix_bits_equal(a, b, 31));
  EXPECT_FALSE(prefix_bits_equal(a, b, 32));
}

// ---------------------------------------------------------------------------
// HMAC-SHA256 against RFC 4231 vectors
// ---------------------------------------------------------------------------

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const auto mac = hmac_sha256(key, "Hi There");
  EXPECT_EQ(digest_hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const std::string key = "Jefe";
  const auto mac = hmac_sha256(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(key.data()), key.size()),
      "what do ya want for nothing?");
  EXPECT_EQ(digest_hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes msg(50, 0xdd);
  EXPECT_EQ(digest_hex(hmac_sha256(key, msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case4) {
  Bytes key(25);
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i + 1);  // 0x01..0x19
  }
  const Bytes msg(50, 0xcd);
  EXPECT_EQ(digest_hex(hmac_sha256(key, msg)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);  // key longer than block: hashed first
  const auto mac = hmac_sha256(
      key, "Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(digest_hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, Rfc4231Case7LongKeyLongData) {
  const Bytes key(131, 0xaa);
  const auto mac = hmac_sha256(
      key,
      "This is a test using a larger than block-size key and a larger than "
      "block-size data. The key needs to be hashed before being used by the "
      "HMAC algorithm.");
  EXPECT_EQ(digest_hex(mac),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(Hmac, KeySensitivity) {
  const Bytes k1(32, 0x01), k2(32, 0x02);
  EXPECT_NE(digest_hex(hmac_sha256(k1, "msg")), digest_hex(hmac_sha256(k2, "msg")));
}

// ---------------------------------------------------------------------------
// HmacKey: the cached-midstate form must be bit-identical to the one-shot
// reference for every key/message shape the stack can produce.
// ---------------------------------------------------------------------------

TEST(HmacKey, MatchesRfc4231Vectors) {
  const Bytes key1(20, 0x0b);
  EXPECT_EQ(digest_hex(HmacKey(key1).mac("Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  const Bytes key6(131, 0xaa);  // > 64 bytes: hashed into the pad block
  EXPECT_EQ(digest_hex(HmacKey(key6).mac(
                "Test Using Larger Than Block-Size Key - Hash Key First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacKey, EquivalentToOneShotForRandomKeyAndMessageLengths) {
  Rng rng(20260726);
  for (int iter = 0; iter < 500; ++iter) {
    // Key lengths sweep across the block boundary (empty, < 64, == 64,
    // > 64 => pre-hashed); messages across the padding boundaries.
    const std::size_t key_len = rng.uniform_u64(150);
    const std::size_t msg_len = rng.uniform_u64(300);
    Bytes key(key_len);
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
    Bytes msg(msg_len);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
    const HmacKey cached((std::span<const std::uint8_t>(key)));
    ASSERT_EQ(digest_hex(cached.mac(msg)), digest_hex(hmac_sha256(key, msg)))
        << "key_len=" << key_len << " msg_len=" << msg_len;
  }
}

TEST(HmacKey, BoundaryMessageLengths) {
  const Bytes key(32, 0x42);
  const HmacKey cached((std::span<const std::uint8_t>(key)));
  // 55/56/57 straddle the inner hash's length-field boundary (the inner
  // message is 64 + n bytes), 63/64/65 the block boundary.
  for (std::size_t n : {0u, 1u, 55u, 56u, 57u, 63u, 64u, 65u, 127u, 128u}) {
    const Bytes msg(n, 0x7e);
    ASSERT_EQ(digest_hex(cached.mac(msg)), digest_hex(hmac_sha256(key, msg)))
        << "msg_len=" << n;
  }
}

TEST(HmacKey, SecretKeyCarriesItsMidstates) {
  const SecretKey k = SecretKey::from_seed(99);
  const Bytes msg = {1, 2, 3, 4, 5};
  EXPECT_EQ(digest_hex(k.hmac().mac(msg)),
            digest_hex(hmac_sha256(k.bytes(), msg)));
  // The midstates follow the key: equal keys agree, different keys do not.
  EXPECT_EQ(k.hmac(), SecretKey::from_seed(99).hmac());
  EXPECT_NE(digest_hex(SecretKey::from_seed(100).hmac().mac(msg)),
            digest_hex(k.hmac().mac(msg)));
}

TEST(HmacKey, ConsistentAcrossSecretDirectoryRotations) {
  // Every rotation mints a fresh SecretKey; its cached midstates must track
  // the new secret exactly (stale midstates would break cross-replica
  // verification silently).
  fleet::SecretDirectoryConfig cfg;
  cfg.seed = 7;
  fleet::SecretDirectory dir(cfg);
  const Bytes msg = {0xde, 0xad, 0xbe, 0xef};
  std::string prev_mac;
  for (int epoch = 0; epoch < 4; ++epoch) {
    const SecretKey& secret = dir.current_secret();
    const std::string via_midstate = digest_hex(secret.hmac().mac(msg));
    EXPECT_EQ(via_midstate, digest_hex(hmac_sha256(secret.bytes(), msg)))
        << "epoch " << epoch;
    EXPECT_NE(via_midstate, prev_mac) << "epoch " << epoch;
    prev_mac = via_midstate;
    dir.rotate();
  }
}

// ---------------------------------------------------------------------------
// SecretKey
// ---------------------------------------------------------------------------

TEST(SecretKey, SeededKeysDeterministic) {
  EXPECT_EQ(SecretKey::from_seed(42), SecretKey::from_seed(42));
  EXPECT_NE(SecretKey::from_seed(42), SecretKey::from_seed(43));
}

TEST(SecretKey, RandomKeysDiffer) {
  const SecretKey a = SecretKey::random();
  const SecretKey b = SecretKey::random();
  EXPECT_NE(a, b);
}

TEST(SecretKey, SeedsAreWellMixed) {
  // Consecutive seeds must not produce correlated key bytes.
  const SecretKey ka = SecretKey::from_seed(1);
  const SecretKey kb = SecretKey::from_seed(2);
  const auto a = ka.bytes();
  const auto b = kb.bytes();
  int same = 0;
  for (std::size_t i = 0; i < a.size(); ++i) same += (a[i] == b[i]);
  EXPECT_LE(same, 4);
}

}  // namespace
}  // namespace tcpz::crypto
