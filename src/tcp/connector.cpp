#include "tcp/connector.hpp"

#include <stdexcept>

namespace tcpz::tcp {

const char* to_string(ConnectorState s) {
  switch (s) {
    case ConnectorState::kClosed: return "closed";
    case ConnectorState::kSynSent: return "syn-sent";
    case ConnectorState::kSolving: return "solving";
    case ConnectorState::kEstablished: return "established";
    case ConnectorState::kFailed: return "failed";
  }
  return "unknown";
}

const char* to_string(ConnectFail f) {
  switch (f) {
    case ConnectFail::kNone: return "none";
    case ConnectFail::kTimeout: return "timeout";
    case ConnectFail::kReset: return "reset";
    case ConnectFail::kRefusedDifficulty: return "refused-difficulty";
    case ConnectFail::kBadChallenge: return "bad-challenge";
  }
  return "unknown";
}

Connector::Connector(ConnectorConfig cfg, std::uint64_t seed)
    : cfg_(cfg), rng_(seed) {}

puzzle::FlowBinding Connector::flow_binding() const {
  return {cfg_.local_addr, cfg_.remote_addr, cfg_.local_port, cfg_.remote_port,
          iss_};
}

Segment Connector::make_syn(SimTime now) const {
  Segment s;
  s.saddr = cfg_.local_addr;
  s.daddr = cfg_.remote_addr;
  s.sport = cfg_.local_port;
  s.dport = cfg_.remote_port;
  s.seq = iss_;
  s.flags = kSyn;
  s.options.mss = cfg_.mss;
  s.options.wscale = cfg_.wscale;
  s.options.sack_permitted = true;
  if (cfg_.use_timestamps) s.options.ts = TimestampsOption{wire_ms(now), 0};
  return s;
}

Segment Connector::make_plain_ack(SimTime now) const {
  Segment s;
  s.saddr = cfg_.local_addr;
  s.daddr = cfg_.remote_addr;
  s.sport = cfg_.local_port;
  s.dport = cfg_.remote_port;
  s.seq = iss_ + 1;
  s.ack = peer_seq_ + 1;
  s.flags = kAck;
  if (cfg_.use_timestamps && peer_ts_ok_) {
    s.options.ts = TimestampsOption{wire_ms(now), peer_tsval_};
  }
  return s;
}

ConnectorOutput Connector::start(SimTime now) {
  if (state_ != ConnectorState::kClosed) {
    throw std::logic_error("Connector::start called twice");
  }
  iss_ = static_cast<std::uint32_t>(rng_.next());
  state_ = ConnectorState::kSynSent;
  next_retx_ = now + cfg_.syn_timeout;
  retx_count_ = 0;

  ConnectorOutput out;
  out.segments.push_back(make_syn(now));
  return out;
}

ConnectorOutput Connector::on_segment(SimTime now, const Segment& seg) {
  ConnectorOutput out;
  if (seg.daddr != cfg_.local_addr || seg.dport != cfg_.local_port ||
      seg.saddr != cfg_.remote_addr || seg.sport != cfg_.remote_port) {
    return out;
  }

  if (seg.is_rst()) {
    if (state_ != ConnectorState::kClosed && state_ != ConnectorState::kFailed) {
      state_ = ConnectorState::kFailed;
      out.failed = true;
      out.reason = ConnectFail::kReset;
    }
    return out;
  }

  if (!seg.is_syn_ack()) return out;  // data handled at host level

  if (state_ == ConnectorState::kEstablished) {
    // Duplicate SYN-ACK (our ACK was lost): re-ACK. Never re-solve.
    out.segments.push_back(make_plain_ack(now));
    return out;
  }
  if (state_ != ConnectorState::kSynSent) return out;
  if (seg.ack != iss_ + 1) return out;  // not for this attempt

  peer_seq_ = seg.seq;
  peer_mss_ = seg.options.mss.value_or(536);
  peer_wscale_ = seg.options.wscale.value_or(0);
  peer_ts_ok_ = seg.options.ts.has_value();
  peer_tsval_ = peer_ts_ok_ ? seg.options.ts->tsval : 0;

  if (seg.options.challenge && cfg_.solve_puzzles) {
    const ChallengeOption& copt = *seg.options.challenge;
    was_challenged_ = true;

    puzzle::Challenge ch;
    ch.diff = puzzle::Difficulty{copt.k, copt.m};
    ch.sol_len = copt.sol_len;
    ch.preimage = copt.preimage;
    if (copt.embedded_ts) {
      ch.timestamp = *copt.embedded_ts;
    } else if (peer_ts_ok_) {
      ch.timestamp = peer_tsval_;  // echoed back via TSecr
    } else {
      state_ = ConnectorState::kFailed;
      out.failed = true;
      out.reason = ConnectFail::kBadChallenge;
      return out;
    }
    if (copt.k == 0 || copt.m == 0 ||
        copt.preimage.size() != copt.sol_len ||
        copt.m >= static_cast<unsigned>(copt.sol_len) * 8) {
      state_ = ConnectorState::kFailed;
      out.failed = true;
      out.reason = ConnectFail::kBadChallenge;
      return out;
    }
    // The economic decision of §4.2: a client whose valuation w_i is below
    // the asked price walks away.
    if (ch.diff.expected_solve_hashes() > cfg_.max_price_hashes) {
      state_ = ConnectorState::kFailed;
      out.failed = true;
      out.reason = ConnectFail::kRefusedDifficulty;
      return out;
    }
    challenge_sol_len_ = copt.sol_len;
    state_ = ConnectorState::kSolving;
    out.solve = std::move(ch);
    return out;
  }

  // Plain SYN-ACK — or a challenge we cannot see (legacy stack): ACK and
  // consider ourselves connected.
  if (seg.options.challenge && !cfg_.solve_puzzles) was_challenged_ = true;
  state_ = ConnectorState::kEstablished;
  out.established = true;
  out.segments.push_back(make_plain_ack(now));
  return out;
}

ConnectorOutput Connector::on_solved(SimTime now,
                                     const puzzle::Solution& solution) {
  ConnectorOutput out;
  if (state_ != ConnectorState::kSolving) return out;

  Segment s = make_plain_ack(now);
  SolutionOption sopt;
  // Re-send MSS and wscale: the server kept no state from our SYN (§5).
  sopt.mss = cfg_.mss;
  sopt.wscale = cfg_.wscale;
  for (const auto& v : solution.values) {
    sopt.solutions.insert(sopt.solutions.end(), v.begin(), v.end());
  }
  if (!(cfg_.use_timestamps && peer_ts_ok_)) {
    sopt.embedded_ts = solution.timestamp;
  }
  s.options.solution = std::move(sopt);

  state_ = ConnectorState::kEstablished;
  out.established = true;
  out.segments.push_back(std::move(s));
  return out;
}

ConnectorOutput Connector::on_tick(SimTime now) {
  ConnectorOutput out;
  if (state_ != ConnectorState::kSynSent) return out;
  if (now < next_retx_) return out;
  if (retx_count_ >= cfg_.max_syn_retries) {
    state_ = ConnectorState::kFailed;
    out.failed = true;
    out.reason = ConnectFail::kTimeout;
    return out;
  }
  ++retx_count_;
  next_retx_ = now + cfg_.syn_timeout * (1ll << retx_count_);
  out.segments.push_back(make_syn(now));
  return out;
}

Segment Connector::make_data_segment(SimTime now, std::uint32_t payload_bytes) {
  if (state_ != ConnectorState::kEstablished) {
    throw std::logic_error("Connector::make_data_segment before established");
  }
  Segment s = make_plain_ack(now);
  s.flags = kAck | kPsh;
  s.payload_bytes = payload_bytes;
  return s;
}

}  // namespace tcpz::tcp
