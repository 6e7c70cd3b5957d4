#include "obs/trace.hpp"

#include <bit>

namespace tcpz::obs {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  constexpr std::size_t kMin = 64;
  if (n < kMin) n = kMin;
  return std::bit_ceil(n);
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

Recorder::Recorder(std::size_t capacity, std::uint32_t category_mask)
    : ring_(round_up_pow2(capacity)),
      idx_mask_(ring_.size() - 1),
      mask_(category_mask) {}

std::vector<TraceEvent> Recorder::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(size());
  for_each([&out](const TraceEvent& ev) { out.push_back(ev); });
  return out;
}

std::uint64_t Recorder::digest() const {
  // Fold fields explicitly (not the raw bytes) so the digest is independent
  // of any future padding in the layout.
  std::uint64_t h = fnv(kFnvBasis, total_recorded());
  for_each([&h](const TraceEvent& ev) {
    h = fnv(h, static_cast<std::uint64_t>(ev.t));
    h = fnv(h, (static_cast<std::uint64_t>(ev.saddr) << 32) | ev.daddr);
    h = fnv(h, (static_cast<std::uint64_t>(ev.sport) << 48) |
                   (static_cast<std::uint64_t>(ev.dport) << 32) |
                   (static_cast<std::uint64_t>(ev.cat) << 24) |
                   (static_cast<std::uint64_t>(ev.code) << 16) | ev.track);
    h = fnv(h, ev.a0);
    h = fnv(h, ev.a1);
  });
  return h;
}

const char* to_string(Cat c) {
  switch (c) {
    case Cat::kListener: return "listener";
    case Cat::kDefense: return "defense";
    case Cat::kOffense: return "offense";
    case Cat::kEvent: return "event";
    case Cat::kLink: return "link";
    case Cat::kSecret: return "secret";
    case Cat::kLb: return "lb";
    case Cat::kFluid: return "fluid";
  }
  return "?";
}

const char* to_string(Code c) {
  switch (c) {
    case Code::kSynEnqueue: return "syn_enqueue";
    case Code::kSynChallenge: return "syn_challenge";
    case Code::kSynCookie: return "syn_cookie";
    case Code::kSynDropPolicy: return "syn_drop_policy";
    case Code::kSynDropOverflow: return "syn_drop_overflow";
    case Code::kSynRetxRequest: return "syn_retx_request";
    case Code::kAckPendingAccept: return "ack_pending_accept";
    case Code::kSolutionValid: return "solution_valid";
    case Code::kSolutionInvalid: return "solution_invalid";
    case Code::kSolutionExpired: return "solution_expired";
    case Code::kSolutionBadAckno: return "solution_bad_ackno";
    case Code::kSolutionDuplicate: return "solution_duplicate";
    case Code::kSolutionIgnoredFull: return "solution_ignored_accept_full";
    case Code::kSolutionReplayed: return "solution_replay_filtered";
    case Code::kCookieValid: return "cookie_valid";
    case Code::kCookieInvalid: return "cookie_invalid";
    case Code::kCookieDropFull: return "cookie_drop_accept_full";
    case Code::kEstablished: return "established";
    case Code::kHalfOpenExpired: return "half_open_expired";
    case Code::kSynackRetx: return "synack_retx";
    case Code::kRstSent: return "rst_sent";
    case Code::kDataUnknownFlow: return "data_unknown_flow";
    case Code::kLatchEngage: return "latch_engage";
    case Code::kLatchDisengage: return "latch_disengage";
    case Code::kDifficultyRetune: return "difficulty_retune";
    case Code::kSlotSpoofedSyn: return "slot_spoofed_syn";
    case Code::kSlotConnect: return "slot_connect";
    case Code::kSlotIdle: return "slot_idle";
    case Code::kChallengeSolve: return "challenge_solve";
    case Code::kChallengeAbandon: return "challenge_abandon";
    case Code::kBogusAck: return "bogus_ack";
    case Code::kOutcomeEstablished: return "outcome_established";
    case Code::kOutcomeReset: return "outcome_reset";
    case Code::kOutcomeTimeout: return "outcome_timeout";
    case Code::kOutcomeSolveRefused: return "outcome_solve_refused";
    case Code::kSched: return "sched";
    case Code::kCancel: return "cancel";
    case Code::kFire: return "fire";
    case Code::kLinkTx: return "link_tx";
    case Code::kLinkDrop: return "link_drop";
    case Code::kSecretRotate: return "secret_rotate";
    case Code::kSecretOverlapEnd: return "secret_overlap_end";
    case Code::kLbPick: return "lb_pick";
    case Code::kLbNoBackend: return "lb_no_backend";
    case Code::kLbEvict: return "lb_evict";
    case Code::kFluidOffer: return "fluid_offer";
    case Code::kFluidChallenge: return "fluid_challenge";
    case Code::kFluidEstablish: return "fluid_establish";
    case Code::kFluidDeceive: return "fluid_deceive";
  }
  return "?";
}

}  // namespace tcpz::obs
