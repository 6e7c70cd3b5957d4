#include "tcp/listener.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "crypto/hmac.hpp"
#include "defense/policies.hpp"
#include "obs/trace.hpp"

namespace tcpz::tcp {
Listener::Listener(ListenerConfig cfg, crypto::SecretKey secret,
                   std::uint64_t seed,
                   std::shared_ptr<const puzzle::PuzzleEngine> engine)
    : cfg_(cfg),
      secret_(secret),
      engine_(std::move(engine)),
      cookies_(secret),
      rng_(seed),
      policy_(cfg_.policy ? cfg_.policy()
                          : std::make_unique<defense::NonePolicy>()),
      listen_(cfg.listen_backlog),
      accept_(cfg.accept_backlog) {
  if (!policy_) {
    throw std::invalid_argument("Listener: policy factory returned null");
  }
  if (policy_->requires_engine() && !engine_) {
    throw std::invalid_argument(
        "Listener: policy requires a PuzzleEngine (or cookie_fallback)");
  }
}

void Listener::set_policy(std::unique_ptr<defense::DefensePolicy> policy) {
  if (!policy) {
    throw std::invalid_argument("Listener: null policy");
  }
  if (policy->requires_engine() && !engine_) {
    throw std::invalid_argument("Listener: no PuzzleEngine installed");
  }
  policy_ = std::move(policy);
}

void Listener::set_difficulty(puzzle::Difficulty d) {
  if (d.k == 0 || d.m == 0) {
    throw std::invalid_argument("Listener: difficulty must have k,m >= 1");
  }
  cfg_.difficulty = d;
}

void Listener::set_engine(std::shared_ptr<const puzzle::PuzzleEngine> engine) {
  engine_ = std::move(engine);
}

void Listener::rotate_secret(crypto::SecretKey secret,
                             std::shared_ptr<const puzzle::PuzzleEngine> engine) {
  if (!engine) {
    throw std::invalid_argument("Listener::rotate_secret: engine required");
  }
  prev_ = PrevEpoch{secret_, std::move(engine_)};
  secret_ = secret;
  engine_ = std::move(engine);
  ++epoch_;
  ++counters_.secret_rotations;
}

void Listener::drop_previous_secret() { prev_.reset(); }

defense::QueueView Listener::queue_view() const {
  defense::QueueView q;
  q.listen_depth = listen_.size() + static_cast<std::size_t>(fluid_listen_);
  q.listen_capacity = listen_.capacity();
  q.listen_full = listen_.full() || q.listen_depth >= q.listen_capacity;
  q.accept_depth = accept_.size() + static_cast<std::size_t>(fluid_accept_);
  q.accept_capacity = accept_.capacity();
  q.accept_full = accept_.full() || q.accept_depth >= q.accept_capacity;
  q.has_engine = engine_ != nullptr;
  return q;
}

void Listener::add_mass(std::uint64_t& counter, double& frac, double mass) {
  frac += mass;
  const double whole = std::floor(frac);
  counter += static_cast<std::uint64_t>(whole);
  frac -= whole;
}

void Listener::set_fluid_occupancy(double listen, double accept) {
  fluid_listen_ = std::max(0.0, listen);
  fluid_accept_ = std::max(0.0, accept);
}

Listener::FluidAdmission Listener::admit_fluid_syns(SimTime now,
                                                    double offered) {
  FluidAdmission out;
  out.difficulty = cfg_.difficulty;
  if (offered <= 0.0) return out;
  observe_policy(now);
  add_mass(counters_.fluid_syns_offered, frac_offered_, offered);

  // One policy verdict covers the whole tick's mass: the same on_syn call a
  // discrete SYN gets, over the combined queue view.
  const defense::SynDecision verdict = policy_->on_syn(now, queue_view());
  switch (verdict.action) {
    case defense::SynAction::kChallenge:
      if (engine_ == nullptr) {
        out.dropped = offered;
        break;
      }
      out.challenged = offered;
      // g(p) = 1 hash per minted challenge, charged like the discrete path.
      add_mass(counters_.crypto_hash_ops, frac_crypto_ops_, offered);
      hash_ops_pending_ += static_cast<std::uint64_t>(offered);
      break;
    case defense::SynAction::kCookie:
      out.cookied = offered;
      add_mass(counters_.crypto_hash_ops, frac_crypto_ops_, offered);
      hash_ops_pending_ += static_cast<std::uint64_t>(offered);
      break;
    case defense::SynAction::kDrop:
      out.dropped = offered;
      break;
    case defense::SynAction::kEnqueue: {
      // Room-limited: the fluid share of the listen queue is whatever space
      // the combined occupancy leaves.
      const double room =
          std::max(0.0, static_cast<double>(listen_.capacity()) -
                            (static_cast<double>(listen_.size()) + fluid_listen_));
      out.enqueued = std::min(offered, room);
      out.dropped = offered - out.enqueued;
      break;
    }
  }

  add_mass(counters_.fluid_enqueued, frac_enqueued_, out.enqueued);
  add_mass(counters_.fluid_challenged, frac_challenged_, out.challenged);
  add_mass(counters_.fluid_cookied, frac_cookied_, out.cookied);
  add_mass(counters_.fluid_dropped, frac_dropped_, out.dropped);
  TCPZ_TRACE(now, obs::Code::kFluidOffer, cfg_.trace_track,
             static_cast<std::uint64_t>(offered * 1000.0),
             static_cast<std::uint64_t>(out.dropped * 1000.0));
  if (out.challenged > 0.0) {
    TCPZ_TRACE(now, obs::Code::kFluidChallenge, cfg_.trace_track,
               static_cast<std::uint64_t>(out.challenged * 1000.0),
               (static_cast<std::uint64_t>(cfg_.difficulty.k) << 8) |
                   cfg_.difficulty.m);
  }
  return out;
}

double Listener::admit_fluid_handshakes(SimTime now, double offered,
                                        bool puzzle_path) {
  if (offered <= 0.0) return 0.0;
  observe_policy(now);
  if (puzzle_path) {
    add_mass(counters_.fluid_solution_acks, frac_solutions_, offered);
    // d(p) hashes per verification, charged like the discrete path.
    const double verify_ops =
        offered * cfg_.difficulty.expected_verify_hashes();
    add_mass(counters_.crypto_hash_ops, frac_crypto_ops_, verify_ops);
    hash_ops_pending_ += static_cast<std::uint64_t>(verify_ops);
  }
  // §5 semantics, aggregated: a saturated accept queue ignores the whole
  // tick's completion mass (deception); otherwise the mass establishes up to
  // the room the combined occupancy leaves.
  double admitted = 0.0;
  if (!accept_saturated()) {
    const double room =
        std::max(0.0, static_cast<double>(accept_.capacity()) -
                          (static_cast<double>(accept_.size()) + fluid_accept_));
    admitted = std::min(offered, room);
  }
  const double deceived = offered - admitted;
  add_mass(counters_.fluid_established, frac_established_, admitted);
  add_mass(counters_.fluid_deceived, frac_deceived_, deceived);
  if (admitted > 0.0) {
    TCPZ_TRACE(now, obs::Code::kFluidEstablish, cfg_.trace_track,
               static_cast<std::uint64_t>(admitted * 1000.0),
               puzzle_path ? 1u : 0u);
  }
  if (deceived > 0.0) {
    TCPZ_TRACE(now, obs::Code::kFluidDeceive, cfg_.trace_track,
               static_cast<std::uint64_t>(deceived * 1000.0),
               puzzle_path ? 1u : 0u);
  }
  return admitted;
}

bool Listener::protection_active() const {
  return policy_->protection_active(queue_view());
}

void Listener::observe_policy(SimTime now) {
  obs::Recorder* rec = obs::recorder();
  if (rec == nullptr || !rec->wants(obs::Cat::kDefense)) [[likely]] {
    policy_->observe(now, queue_view());
    return;
  }
  // Traced path: bracket the observe call with protection_active probes so
  // edge-triggered latch flips (PuzzlePolicy/HybridPolicy watermarks) show
  // up as explicit transition events.
  const defense::QueueView q = queue_view();
  const bool before = policy_->protection_active(q);
  policy_->observe(now, q);
  const bool after = policy_->protection_active(q);
  if (before != after) {
    rec->record(now,
                after ? obs::Code::kLatchEngage : obs::Code::kLatchDisengage,
                cfg_.trace_track, q.listen_depth, q.accept_depth);
  }
}

std::uint32_t Listener::stateless_iss_with(const crypto::SecretKey& secret,
                                           const FlowKey& flow,
                                           std::uint32_t ts) {
  // Per-packet MAC: cached-midstate HMAC over a stack-assembled message —
  // no key schedule, no heap.
  constexpr char kLabel[] = "tcpz-iss-v1";
  constexpr std::size_t kLabelLen = sizeof(kLabel) - 1;
  std::uint8_t msg[kLabelLen + 16];
  std::memcpy(msg, kLabel, kLabelLen);
  std::uint8_t* p = msg + kLabelLen;
  p = store_u32be(p, flow.raddr);
  p = store_u16be(p, flow.rport);
  p = store_u32be(p, flow.laddr);
  p = store_u16be(p, flow.lport);
  p = store_u32be(p, ts);
  const auto d = secret.hmac().mac(
      std::span<const std::uint8_t>(msg, static_cast<std::size_t>(p - msg)));
  return (static_cast<std::uint32_t>(d[0]) << 24) |
         (static_cast<std::uint32_t>(d[1]) << 16) |
         (static_cast<std::uint32_t>(d[2]) << 8) | d[3];
}

std::uint32_t Listener::stateless_iss(const FlowKey& flow,
                                      std::uint32_t ts) const {
  return stateless_iss_with(secret_, flow, ts);
}

std::uint64_t Listener::take_hash_ops() {
  const std::uint64_t ops = hash_ops_pending_;
  hash_ops_pending_ = 0;
  return ops;
}

std::vector<Segment> Listener::on_segment(SimTime now, const Segment& seg) {
  if (seg.daddr != cfg_.local_addr || seg.dport != cfg_.local_port) return {};
  observe_policy(now);

  if (seg.is_rst()) {
    const FlowKey flow = FlowKey::from_incoming(seg);
    listen_.erase(flow);
    established_.erase(flow);
    return {};
  }
  if (seg.is_syn()) return handle_syn(now, seg);
  if (seg.flags & kAck) return handle_ack(now, seg);
  return {};
}

Segment Listener::make_synack(const HalfOpenEntry& entry,
                              std::uint32_t now_ms) const {
  Segment s;
  s.saddr = entry.flow.laddr;
  s.daddr = entry.flow.raddr;
  s.sport = entry.flow.lport;
  s.dport = entry.flow.rport;
  s.seq = entry.iss;
  s.ack = entry.client_isn + 1;
  s.flags = kSyn | kAck;
  s.options.mss = cfg_.mss;
  s.options.wscale = cfg_.wscale;
  if (cfg_.use_timestamps && entry.peer_ts_ok) {
    s.options.ts = TimestampsOption{now_ms, entry.peer_tsval};
  }
  return s;
}

Segment Listener::make_challenge_synack(const Segment& seg, const FlowKey& flow,
                                        std::uint32_t now_ms) {
  // Stateless challenge path: derive everything from the secret and the
  // packet; nothing is enqueued.
  puzzle::FlowBinding bind{seg.saddr, seg.daddr, seg.sport, seg.dport, seg.seq};
  const puzzle::Challenge ch =
      engine_->make_challenge(bind, now_ms, cfg_.difficulty);
  hash_ops_pending_ +=
      static_cast<std::uint64_t>(puzzle::Difficulty::generate_hashes());
  counters_.crypto_hash_ops += 1;

  Segment s;
  s.saddr = seg.daddr;
  s.daddr = seg.saddr;
  s.sport = seg.dport;
  s.dport = seg.sport;
  s.seq = stateless_iss(flow, now_ms);
  s.ack = seg.seq + 1;
  s.flags = kSyn | kAck;
  s.options.mss = cfg_.mss;
  s.options.wscale = cfg_.wscale;
  ChallengeOption copt;
  copt.k = ch.diff.k;
  copt.m = ch.diff.m;
  copt.sol_len = ch.sol_len;
  copt.preimage = ch.preimage;
  if (cfg_.use_timestamps && seg.options.ts.has_value()) {
    s.options.ts = TimestampsOption{now_ms, seg.options.ts->tsval};
  } else {
    copt.embedded_ts = now_ms;
  }
  s.options.challenge = std::move(copt);
  ++counters_.challenges_sent;
  ++counters_.synacks_sent;
  return s;
}

Segment Listener::make_cookie_synack(const Segment& seg, const FlowKey& flow,
                                     SimTime now) {
  const std::uint16_t peer_mss = seg.options.mss.value_or(536);
  const std::uint32_t cookie =
      cookies_.encode(flow, seg.seq, peer_mss, to_sec(now));
  counters_.crypto_hash_ops += 1;
  ++hash_ops_pending_;

  Segment s;
  s.saddr = seg.daddr;
  s.daddr = seg.saddr;
  s.sport = seg.dport;
  s.dport = seg.sport;
  s.seq = cookie;
  s.ack = seg.seq + 1;
  s.flags = kSyn | kAck;
  // SYN cookies cannot carry wscale and only an approximate MSS — this is
  // the performance loss §5 calls out.
  s.options.mss = SynCookieCodec::kMssTable[SynCookieCodec::mss_to_index(peer_mss)];
  if (cfg_.use_timestamps && seg.options.ts.has_value()) {
    s.options.ts = TimestampsOption{to_ms(now), seg.options.ts->tsval};
  }
  ++counters_.cookies_sent;
  ++counters_.synacks_sent;
  return s;
}

Segment Listener::make_rst(const Segment& in) const {
  Segment s;
  s.saddr = in.daddr;
  s.daddr = in.saddr;
  s.sport = in.dport;
  s.dport = in.sport;
  s.seq = in.ack;
  s.ack = in.seq + in.payload_bytes;
  s.flags = kRst | kAck;
  return s;
}

std::vector<Segment> Listener::handle_syn(SimTime now, const Segment& seg) {
  ++counters_.syns_received;
  const FlowKey flow = FlowKey::from_incoming(seg);
  const std::uint32_t now_ms = to_ms(now);

  // Retransmitted SYN for an existing half-open connection: resend SYN-ACK.
  if (HalfOpenEntry* entry = listen_.find(flow)) {
    ++counters_.synack_retx;
    ++counters_.synacks_sent;
    TCPZ_TRACE(now, obs::Code::kSynRetxRequest, cfg_.trace_track, flow,
               entry->retx_count);
    return {make_synack(*entry, now_ms)};
  }
  // SYN for an already-established flow: ignore (simplified; stock stacks
  // send a challenge-ACK here).
  if (established_.contains(flow)) return {};

  const defense::SynDecision verdict = policy_->on_syn(now, queue_view());
  switch (verdict.action) {
    case defense::SynAction::kChallenge:
      // Policies only request a challenge when the view showed an engine;
      // treat a violation as overload (nothing can be minted).
      if (!engine_) {
        ++counters_.drops_queue_overflow;
        TCPZ_TRACE(now, obs::Code::kSynDropOverflow, cfg_.trace_track, flow);
        return {};
      }
      TCPZ_TRACE(now, obs::Code::kSynChallenge, cfg_.trace_track, flow,
                 (static_cast<std::uint64_t>(cfg_.difficulty.k) << 8) |
                     cfg_.difficulty.m);
      return {make_challenge_synack(seg, flow, now_ms)};
    case defense::SynAction::kCookie:
      TCPZ_TRACE(now, obs::Code::kSynCookie, cfg_.trace_track, flow);
      return {make_cookie_synack(seg, flow, now)};
    case defense::SynAction::kDrop:
      if (verdict.drop_reason == defense::DropReason::kOverflow) {
        ++counters_.drops_queue_overflow;
        TCPZ_TRACE(now, obs::Code::kSynDropOverflow, cfg_.trace_track, flow);
      } else {
        ++counters_.drops_policy;
        TCPZ_TRACE(now, obs::Code::kSynDropPolicy, cfg_.trace_track, flow);
      }
      return {};
    case defense::SynAction::kEnqueue:
      break;
  }
  // No stateless answer and no room (counting the fluid share): the SYN is
  // dropped even if the policy asked to enqueue (queue mechanics stay with
  // the listener).
  if (listen_saturated()) {
    ++counters_.drops_queue_overflow;
    TCPZ_TRACE(now, obs::Code::kSynDropOverflow, cfg_.trace_track, flow);
    return {};
  }

  // Normal, opportunistic path: allocate half-open state.
  HalfOpenEntry entry;
  entry.flow = flow;
  entry.client_isn = seg.seq;
  entry.iss = static_cast<std::uint32_t>(rng_.next());
  entry.peer_mss = seg.options.mss.value_or(536);
  entry.peer_wscale = seg.options.wscale.value_or(0);
  entry.peer_ts_ok = seg.options.ts.has_value();
  entry.peer_tsval = entry.peer_ts_ok ? seg.options.ts->tsval : 0;
  entry.next_retx = now + cfg_.synack_timeout;
  listen_.insert(entry);

  ++counters_.plain_synacks;
  ++counters_.synacks_sent;
  TCPZ_TRACE(now, obs::Code::kSynEnqueue, cfg_.trace_track, flow,
             listen_.size());
  return {make_synack(entry, now_ms)};
}

std::vector<Segment> Listener::handle_ack(SimTime now, const Segment& seg) {
  ++counters_.acks_received;
  const FlowKey flow = FlowKey::from_incoming(seg);
  const defense::AckDecision dispatch = policy_->on_ack(now, queue_view());

  // 1. ACK carrying a puzzle solution.
  if (seg.options.solution && dispatch.check_solution && engine_) {
    return handle_solution_ack(now, seg);
  }

  // 2. Final ACK of a stateful handshake (also reached by a duplicate ACK or
  // by the first data segment, which carries the same acknowledgment — this
  // is how a parked SYN_RECV entry eventually completes).
  if (HalfOpenEntry* entry = listen_.find(flow)) {
    if (seg.ack != entry->iss + 1) return {};  // stray or spoofed
    if (accept_saturated()) {
      // Linux semantics: the ACK is dropped and the connection request stays
      // in the SYN queue, retransmitting its SYN-ACK until it expires. It
      // completes only if the peer sends again while there is room. Flood
      // tools never send again; real clients do.
      if (!entry->acked) {
        entry->acked = true;
        ++counters_.acks_pending_accept;
        TCPZ_TRACE(now, obs::Code::kAckPendingAccept, cfg_.trace_track, flow);
      }
      return {};
    }
    AcceptedConnection conn;
    conn.flow = flow;
    conn.client_isn = entry->client_isn;
    conn.iss = entry->iss;
    conn.peer_mss = entry->peer_mss;
    conn.peer_wscale = entry->peer_wscale;
    conn.path = EstablishPath::kQueue;
    conn.established_at = now;
    listen_.erase(flow);
    establish(now, conn);
    if (seg.payload_bytes > 0) {
      ++counters_.data_segments;
      if (data_handler_) data_handler_(now, flow, seg);
    }
    return {};
  }

  // 3. Data segment on an established flow.
  if (established_.contains(flow)) {
    if (seg.payload_bytes > 0) {
      ++counters_.data_segments;
      if (data_handler_) data_handler_(now, flow, seg);
    }
    return {};
  }

  // 4. Possible SYN-cookie ACK (no local state at all). Cookie ACKs never
  // carry payload; the decode itself stays listener mechanics.
  if (dispatch.check_cookie && seg.payload_bytes == 0) {
    const std::uint32_t cookie = seg.ack - 1;
    const std::uint32_t client_isn = seg.seq - 1;
    counters_.crypto_hash_ops += 1;
    ++hash_ops_pending_;
    if (const auto mss = cookies_.decode(flow, client_isn, cookie, to_sec(now))) {
      ++counters_.cookies_valid;
      TCPZ_TRACE(now, obs::Code::kCookieValid, cfg_.trace_track, flow);
      if (accept_saturated()) {
        ++counters_.cookie_drops_accept_full;
        TCPZ_TRACE(now, obs::Code::kCookieDropFull, cfg_.trace_track, flow);
        return {};
      }
      AcceptedConnection conn;
      conn.flow = flow;
      conn.client_isn = client_isn;
      conn.iss = cookie;
      conn.peer_mss = *mss;
      conn.peer_wscale = 0;  // cookies cannot carry wscale
      conn.path = EstablishPath::kCookie;
      conn.established_at = now;
      establish(now, conn);
      return {};
    }
    ++counters_.cookies_invalid;
    TCPZ_TRACE(now, obs::Code::kCookieInvalid, cfg_.trace_track, flow);
    return {};
  }

  // 5. Unknown flow. Data gets a RST (this is how a deceived flooder learns
  // its "connection" does not exist); bare ACKs are ignored to avoid
  // becoming a RST amplifier under spoofed floods.
  if (seg.payload_bytes > 0) {
    ++counters_.data_unknown_flow;
    TCPZ_TRACE(now, obs::Code::kDataUnknownFlow, cfg_.trace_track, flow);
    ++counters_.rsts_sent;
    TCPZ_TRACE(now, obs::Code::kRstSent, cfg_.trace_track, flow);
    return {make_rst(seg)};
  }
  return {};
}

std::vector<Segment> Listener::handle_solution_ack(SimTime now,
                                                   const Segment& seg) {
  ++counters_.solution_acks;
  const FlowKey flow = FlowKey::from_incoming(seg);
  const std::uint32_t now_ms = to_ms(now);
  const SolutionOption& sopt = *seg.options.solution;

  // Recover the challenge timestamp: TSecr when timestamps are in use,
  // otherwise the embedded copy.
  std::uint32_t ts;
  if (seg.options.ts) {
    ts = seg.options.ts->tsecr;
  } else if (sopt.embedded_ts) {
    ts = *sopt.embedded_ts;
  } else {
    ++counters_.solutions_invalid;
    TCPZ_TRACE(now, obs::Code::kSolutionInvalid, cfg_.trace_track, flow);
    return {};
  }

  // The ACK must acknowledge the stateless ISS we derived for this flow and
  // timestamp; otherwise the sender never saw our SYN-ACK. The ISS doubles
  // as the epoch selector after a secret rotation: a challenge minted under
  // the previous secret produced a previous-secret ISS, so a match there
  // routes verification to the previous epoch's engine for the duration of
  // the overlap window.
  bool prev_epoch = false;
  if (seg.ack != stateless_iss(flow, ts) + 1) {
    if (prev_ && seg.ack == stateless_iss_with(prev_->secret, flow, ts) + 1) {
      prev_epoch = true;
    } else {
      ++counters_.solutions_bad_ackno;
      TCPZ_TRACE(now, obs::Code::kSolutionBadAckno, cfg_.trace_track, flow);
      return {};
    }
  }

  // Replay of a flow that is already admitted occupies no additional slot.
  if (established_.contains(flow) || accept_.contains(flow)) {
    ++counters_.solutions_duplicate;
    TCPZ_TRACE(now, obs::Code::kSolutionDuplicate, cfg_.trace_track, flow);
    return {};
  }

  // §5: while under attack, verify only when there is room to accept; a full
  // queue means the ACK is silently ignored (deception: the sender believes
  // the connection exists until its first data segment draws a RST).
  if (accept_saturated()) {
    ++counters_.acks_ignored_accept_full;
    TCPZ_TRACE(now, obs::Code::kSolutionIgnoredFull, cfg_.trace_track, flow);
    return {};
  }

  // Split the concatenated solution bytes into k values of sol_len bytes
  // (per the epoch that minted the challenge, should configs ever differ).
  const std::uint8_t sol_len =
      (prev_epoch ? prev_->engine : engine_)->config().sol_len;
  const unsigned k = cfg_.difficulty.k;
  puzzle::Solution solution;
  solution.timestamp = ts;
  if (sol_len == 0 ||
      sopt.solutions.size() != static_cast<std::size_t>(sol_len) * k) {
    ++counters_.solutions_invalid;
    TCPZ_TRACE(now, obs::Code::kSolutionInvalid, cfg_.trace_track, flow);
    return {};
  }
  solution.values.reserve(k);
  for (unsigned i = 0; i < k; ++i) {
    solution.values.emplace_back(
        sopt.solutions.begin() + static_cast<long>(i) * sol_len,
        sopt.solutions.begin() + static_cast<long>(i + 1) * sol_len);
  }

  puzzle::FlowBinding bind{seg.saddr, seg.daddr, seg.sport, seg.dport,
                           seg.seq - 1};
  const puzzle::PuzzleEngine& engine = prev_epoch ? *prev_->engine : *engine_;
  const puzzle::VerifyOutcome outcome =
      engine.verify(bind, solution, cfg_.difficulty, now_ms);
  counters_.crypto_hash_ops += outcome.hash_ops;
  hash_ops_pending_ += outcome.hash_ops;

  if (!outcome.ok) {
    if (outcome.error == puzzle::VerifyError::kExpired ||
        outcome.error == puzzle::VerifyError::kFutureTimestamp) {
      ++counters_.solutions_expired;
      TCPZ_TRACE(now, obs::Code::kSolutionExpired, cfg_.trace_track, flow);
    } else {
      ++counters_.solutions_invalid;
      TCPZ_TRACE(now, obs::Code::kSolutionInvalid, cfg_.trace_track, flow);
    }
    return {};
  }

  // Cluster-level replay check (after verification: only solutions that
  // actually verify enter the shared cache, and the attacker still pays for
  // forcing the verify work).
  if (replay_filter_ && replay_filter_(flow, ts, now_ms)) {
    ++counters_.solutions_duplicate;
    ++counters_.solutions_replay_filtered;
    TCPZ_TRACE(now, obs::Code::kSolutionReplayed, cfg_.trace_track, flow);
    return {};
  }

  ++counters_.solutions_valid;
  if (prev_epoch) ++counters_.solutions_valid_prev_epoch;
  TCPZ_TRACE(now, obs::Code::kSolutionValid, cfg_.trace_track, flow,
             /*a0=*/0, /*a1=*/prev_epoch ? 1 : 0);
  AcceptedConnection conn;
  conn.flow = flow;
  conn.client_isn = seg.seq - 1;
  conn.iss = seg.ack - 1;
  conn.peer_mss = sopt.mss;        // re-sent in the solution block (§5)
  conn.peer_wscale = sopt.wscale;  // full wscale, unlike SYN cookies
  conn.path = EstablishPath::kPuzzle;
  conn.established_at = now;
  establish(now, conn);
  return {};
}

void Listener::establish(SimTime now, const AcceptedConnection& conn) {
  established_.insert(conn.flow);
  accept_.push(conn);
  ++counters_.established_total;
  switch (conn.path) {
    case EstablishPath::kQueue: ++counters_.established_queue; break;
    case EstablishPath::kCookie: ++counters_.established_cookie; break;
    case EstablishPath::kPuzzle: ++counters_.established_puzzle; break;
  }
  TCPZ_TRACE(now, obs::Code::kEstablished, cfg_.trace_track, conn.flow,
             static_cast<std::uint64_t>(conn.path), accept_.size());
  if (establish_handler_) establish_handler_(now, conn);
}

std::vector<Segment> Listener::on_tick(SimTime now) {
  observe_policy(now);
  // Policy control point: e.g. the adaptive decorator retunes difficulty
  // from the counter-derived demand/yield signals.
  const defense::TickDecision decision =
      policy_->on_tick(now, queue_view(), counters_);
  if (decision.difficulty && *decision.difficulty != cfg_.difficulty) {
    TCPZ_TRACE(now, obs::Code::kDifficultyRetune, cfg_.trace_track,
               (static_cast<std::uint64_t>(cfg_.difficulty.k) << 8) |
                   cfg_.difficulty.m,
               (static_cast<std::uint64_t>(decision.difficulty->k) << 8) |
                   decision.difficulty->m);
    set_difficulty(*decision.difficulty);
  }

  std::vector<Segment> out;
  const std::uint32_t now_ms = to_ms(now);

  listen_.retain([&](HalfOpenEntry& entry) {
    // Parked (acked) entries are NOT promoted here: Linux completes them
    // only when the peer transmits again (duplicate ACK or data) while the
    // accept queue has room. They keep retransmitting the SYN-ACK — which is
    // what prompts a live peer to re-ACK — and expire like any half-open.
    if (now >= entry.next_retx) {
      if (entry.retx_count >= cfg_.max_synack_retries) {
        ++counters_.half_open_expired;
        TCPZ_TRACE(now, obs::Code::kHalfOpenExpired, cfg_.trace_track,
                   entry.flow, entry.retx_count);
        return false;
      }
      ++entry.retx_count;
      // Exponential backoff, as the kernel does.
      entry.next_retx = now + cfg_.synack_timeout * (1ll << entry.retx_count);
      ++counters_.synack_retx;
      ++counters_.synacks_sent;
      TCPZ_TRACE(now, obs::Code::kSynackRetx, cfg_.trace_track, entry.flow,
                 entry.retx_count);
      out.push_back(make_synack(entry, now_ms));
    }
    return true;
  });
  return out;
}

std::optional<AcceptedConnection> Listener::accept(SimTime now) {
  (void)now;
  return accept_.pop();
}

void Listener::close(const FlowKey& flow) { established_.erase(flow); }

}  // namespace tcpz::tcp
