// The single wire codec shared by every backend that puts segments on real
// bytes: the simulator's option round-trip checks and the real-wire
// backend's one UDP transport (shim::UdpTransport, under wire::Host and
// wire::StormClient).
//
// Two layers, both here so they cannot drift apart:
//
//  * Option codec — TCP header options including the paper's challenge
//    (0xfc) and solution (0xfd) blocks (Figs. 4 and 5). Options are
//    length-prefixed, NOP-padded to 32-bit alignment, and bounded by the
//    40-byte TCP option-space limit. Decode is explicitly bounds-checked:
//    truncated option lists, declared lengths running past the buffer, and
//    zero-length challenge/solution payloads all return a DecodeResult
//    error instead of reading past the end — the input is attacker-supplied
//    bytes on the wire backends.
//
//  * Segment codec — a real 20-byte TCP header (network byte order, correct
//    data-offset, flags, and checksum over the IPv4 pseudo-header),
//    preceded by a 12-byte encapsulation preamble carrying the addresses
//    and the simulated payload length:
//
//      [ saddr(4) | daddr(4) | payload_bytes(4) ]  encapsulation preamble
//      [ 20-byte TCP header | options (padded) ]   real TCP wire format
//
//    The payload itself travels as a length (the library models state
//    exhaustion, not data transfer). The checksum is the genuine Internet
//    checksum, so a flipped bit anywhere in the header or options is
//    detected.
#pragma once

#include <optional>

#include "tcp/segment.hpp"
#include "util/bytes.hpp"

namespace tcpz::tcp {

// -- option codec -------------------------------------------------------------

enum class DecodeResult : std::uint8_t { kOk, kTruncated, kBadLength, kTooLong };

/// Serialises to wire bytes (padded). Throws std::length_error when the
/// encoding exceeds kMaxOptionsBytes.
[[nodiscard]] Bytes encode_options(const Options& opts);

/// Parses wire bytes. Unknown options are skipped via their length byte, as
/// legacy TCP stacks do — this is what makes a non-patched client ignore the
/// challenge block (§6.5). Returns kOk and fills `out` on success. Every
/// read is bounds-checked against the buffer AND the declared lengths; a
/// challenge with a zero-length pre-image or a solution block with no
/// solution bytes is kBadLength (such a block can never verify, and the
/// zero-length forms used to sail through to the verification layer).
[[nodiscard]] DecodeResult decode_options(std::span<const std::uint8_t> wire,
                                          Options& out);

// -- segment codec ------------------------------------------------------------

inline constexpr std::size_t kWirePreambleSize = 12;
inline constexpr std::size_t kTcpHeaderSize = 20;

/// Serialises the segment. Throws std::length_error if the options exceed
/// the 40-byte TCP limit.
[[nodiscard]] Bytes encode_segment(const Segment& seg);

enum class WireDecodeError : std::uint8_t {
  kTruncated,
  kBadDataOffset,
  kBadChecksum,
  kBadOptions,
};

[[nodiscard]] const char* to_string(WireDecodeError e);

struct WireDecodeResult {
  std::optional<Segment> segment;
  std::optional<WireDecodeError> error;
};

/// Parses wire bytes; verifies the checksum and the options encoding.
[[nodiscard]] WireDecodeResult decode_segment(std::span<const std::uint8_t> wire);

/// RFC 1071 Internet checksum over the given bytes (used for the TCP
/// checksum with the IPv4 pseudo-header; exposed for tests).
[[nodiscard]] std::uint16_t internet_checksum(std::span<const std::uint8_t> data);

}  // namespace tcpz::tcp
