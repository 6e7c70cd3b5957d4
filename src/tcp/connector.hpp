// Client-side handshake state machine.
//
// A "patched" connector (solve_puzzles = true) recognises the challenge
// option in a SYN-ACK, asks its host to solve it (the host charges the solve
// time to its CPU model — in the kernel this brute force happens inline),
// and answers with an ACK carrying the solution block. A legacy connector
// skips the unknown option — exactly what an unpatched stack does — and
// sends a plain ACK, believing the connection established; if the server was
// protecting itself, that connection does not exist and the first data
// segment draws a RST (§6.5).
//
// Like Listener, this is sans-I/O.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "puzzle/types.hpp"
#include "tcp/segment.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace tcpz::tcp {

enum class ConnectorState : std::uint8_t {
  kClosed,
  kSynSent,
  kSolving,      ///< challenge received, waiting for the solver
  kEstablished,  ///< from our side; the server may have silently dropped us
  kFailed,
};

enum class ConnectFail : std::uint8_t {
  kNone,
  kTimeout,            ///< SYN retries exhausted
  kReset,              ///< RST received
  kRefusedDifficulty,  ///< puzzle price above our valuation w_i
  kBadChallenge,       ///< malformed challenge option
};

[[nodiscard]] const char* to_string(ConnectorState s);
[[nodiscard]] const char* to_string(ConnectFail f);

struct ConnectorConfig {
  std::uint32_t local_addr = 0;
  std::uint16_t local_port = 0;
  std::uint32_t remote_addr = 0;
  std::uint16_t remote_port = 80;
  /// Patched stack? Legacy stacks ignore the challenge option.
  bool solve_puzzles = true;
  /// The client's valuation w_i as a hash budget: refuse puzzles whose
  /// expected cost exceeds it (§4.2: clients with w_i below the price drop
  /// out).
  double max_price_hashes = std::numeric_limits<double>::infinity();
  SimTime syn_timeout = SimTime::seconds(1);
  int max_syn_retries = 3;
  std::uint16_t mss = 1460;
  std::uint8_t wscale = 7;
  bool use_timestamps = true;
};

struct ConnectorOutput {
  std::vector<Segment> segments;
  /// Set when the host must run the puzzle solver and then call on_solved().
  std::optional<puzzle::Challenge> solve;
  bool established = false;
  bool failed = false;
  ConnectFail reason = ConnectFail::kNone;
};

class Connector {
 public:
  Connector(ConnectorConfig cfg, std::uint64_t seed);

  /// Emits the initial SYN.
  [[nodiscard]] ConnectorOutput start(SimTime now);
  [[nodiscard]] ConnectorOutput on_segment(SimTime now, const Segment& seg);
  /// Host callback once the solver finished; emits the solution ACK.
  [[nodiscard]] ConnectorOutput on_solved(SimTime now,
                                          const puzzle::Solution& solution);
  /// SYN retransmission / timeout processing.
  [[nodiscard]] ConnectorOutput on_tick(SimTime now);

  /// Data segment on the established connection (request/response payloads).
  [[nodiscard]] Segment make_data_segment(SimTime now,
                                          std::uint32_t payload_bytes);

  [[nodiscard]] ConnectorState state() const { return state_; }
  [[nodiscard]] std::uint32_t iss() const { return iss_; }
  /// Binding used for the puzzle pre-image (valid once started).
  [[nodiscard]] puzzle::FlowBinding flow_binding() const;
  /// Negotiated peer parameters (valid once established).
  [[nodiscard]] std::uint16_t peer_mss() const { return peer_mss_; }
  [[nodiscard]] bool was_challenged() const { return was_challenged_; }

 private:
  [[nodiscard]] Segment make_syn(SimTime now) const;
  [[nodiscard]] Segment make_plain_ack(SimTime now) const;

  ConnectorConfig cfg_;
  Rng rng_;
  ConnectorState state_ = ConnectorState::kClosed;

  std::uint32_t iss_ = 0;
  std::uint32_t peer_seq_ = 0;  ///< server's ISS from the SYN-ACK
  std::uint16_t peer_mss_ = 536;
  std::uint8_t peer_wscale_ = 0;
  bool peer_ts_ok_ = false;
  std::uint32_t peer_tsval_ = 0;
  bool was_challenged_ = false;
  std::uint8_t challenge_sol_len_ = 0;

  SimTime next_retx_;
  int retx_count_ = 0;
};

}  // namespace tcpz::tcp
