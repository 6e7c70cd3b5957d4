// TCP header options, including the paper's challenge (0xfc) and solution
// (0xfd) blocks (Figs. 4 and 5). This header holds the value types and the
// arithmetic wire_size(); the (de)serialization itself lives in
// tcp/wire_format.{hpp,cpp} — one bounds-checked codec shared by the
// simulator and the real-wire backend's UDP transport. Options are
// length-prefixed, NOP-padded to 32-bit alignment, and bounded by the 40
// byte TCP option-space limit, so the packet-size overhead the paper reports
// is measurable here too.
//
// Challenge block (Fig. 4):
//   0xfc | len | k | m | l | [T (4B, only when TCP timestamps are not in
//   use)] | pre-image (l bytes)
// Solution block (Fig. 5):
//   0xfd | len | MSS (2B) | wscale | [T (4B, same rule)] | k solutions
//   (k*l bytes)
// The solution block re-sends MSS and wscale because the server kept no
// state from the SYN (§5). When the TCP timestamps option is present in the
// same segment, T travels in TSval/TSecr instead of being embedded.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "util/bytes.hpp"
#include "util/inline_bytes.hpp"

namespace tcpz::tcp {

inline constexpr std::uint8_t kOptEnd = 0;
inline constexpr std::uint8_t kOptNop = 1;
inline constexpr std::uint8_t kOptMss = 2;
inline constexpr std::uint8_t kOptWscale = 3;
inline constexpr std::uint8_t kOptSackPerm = 4;
inline constexpr std::uint8_t kOptTimestamps = 8;
inline constexpr std::uint8_t kOptChallenge = 0xfc;  ///< paper's unused opcode
inline constexpr std::uint8_t kOptSolution = 0xfd;   ///< paper's unused opcode

inline constexpr std::size_t kMaxOptionsBytes = 40;

/// Inline capacities of the challenge/solution payloads. Both blocks must
/// cross the wire inside the 40-byte option space (the pre-image is bounded
/// by the engine's sol_len <= 32 on top of that), so the bytes live inline
/// in the Segment: copying a packet — including into a link-delivery
/// closure — never allocates. Oversized payloads throw std::length_error at
/// construction, before they ever reach the wire codec.
inline constexpr std::size_t kMaxPreimageBytes = 32;
inline constexpr std::size_t kMaxSolutionBytes = 40;

struct TimestampsOption {
  std::uint32_t tsval = 0;
  std::uint32_t tsecr = 0;
  bool operator==(const TimestampsOption&) const = default;
};

struct ChallengeOption {
  std::uint8_t k = 0;
  std::uint8_t m = 0;
  std::uint8_t sol_len = 0;  ///< l
  std::optional<std::uint32_t> embedded_ts;
  InlineBytes<kMaxPreimageBytes> preimage;  ///< l bytes, inline
  bool operator==(const ChallengeOption&) const = default;
};

struct SolutionOption {
  std::uint16_t mss = 0;
  std::uint8_t wscale = 0;
  std::optional<std::uint32_t> embedded_ts;
  InlineBytes<kMaxSolutionBytes> solutions;  ///< k*l bytes, concatenated
  bool operator==(const SolutionOption&) const = default;
};

struct Options {
  std::optional<std::uint16_t> mss;
  std::optional<std::uint8_t> wscale;
  bool sack_permitted = false;
  std::optional<TimestampsOption> ts;
  std::optional<ChallengeOption> challenge;
  std::optional<SolutionOption> solution;

  bool operator==(const Options&) const = default;

  /// Wire size after NOP padding to a 4-byte boundary, computed
  /// arithmetically — the link layer charges it for every transmitted
  /// segment, so it must not serialize (or allocate). Throws if the encoded
  /// form would exceed the 40-byte TCP limit (callers size l and k to fit);
  /// encode_options() produces exactly this many bytes.
  [[nodiscard]] std::size_t wire_size() const;
};

}  // namespace tcpz::tcp
