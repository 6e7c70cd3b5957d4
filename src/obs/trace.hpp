// Flight-recorder tracing: see every packet decision without perturbing the
// hot path.
//
// The evaluation lives or dies on *why* each SYN/ACK was admitted,
// challenged, or dropped, yet those decisions used to be visible only as
// end-of-run aggregate counters. This layer records the decision stream
// itself into a fixed-capacity ring of trivially-copyable TraceEvent
// records — the flight-recorder model: always cheap, bounded memory, the
// last N events survive for post-mortem no matter how large the run.
//
// Contract (pinned by tests/alloc_guard_test.cpp and bench/micro_obs_ops):
//
//  * When no recorder is installed, every TCPZ_TRACE(...) site compiles to a
//    single predictable branch (one global load + test). The PR 4
//    zero-allocation / golden-trace guarantees hold verbatim with tracing
//    absent.
//  * When a recorder IS installed, record() is a bounds-masked store into a
//    preallocated ring: no allocation, no locks, no syscalls. The packet
//    path stays zero-alloc with tracing enabled.
//  * Events carry sim-time only (never wall clock) and only
//    seed-deterministic payloads (no pointers), so a trace digest is a pure
//    function of the scenario seed — shard merges and refactors can be
//    pinned against it exactly like the counter digests.
//
// Category/code taxonomy: every event belongs to a Cat (maskable per
// category at runtime) and carries a Code naming the decision — the reason
// taxonomy the per-flow lifecycle reconstructor (obs/export.hpp) chains into
// SYN -> challenge -> solve -> established/drop stories.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <vector>

#include "tcp/segment.hpp"
#include "util/time.hpp"

namespace tcpz::obs {

/// Event categories, maskable individually via Recorder's category mask.
enum class Cat : std::uint8_t {
  kListener = 0,  ///< SYN/ACK verdicts, establishment, drops, expiries
  kDefense = 1,   ///< protection-latch transitions, difficulty retunes
  kOffense = 2,   ///< bot slot/challenge/outcome decisions
  kEvent = 3,     ///< event-core schedule/cancel/fire tiers (high volume)
  kLink = 4,      ///< wire transit and queue drops
  kSecret = 5,    ///< secret rotations and overlap windows
  kLb = 6,        ///< balancer dispatch decisions
  kFluid = 7,     ///< aggregate fluid-population admissions (per tick)
};
inline constexpr unsigned kCatCount = 8;
[[nodiscard]] constexpr std::uint32_t cat_bit(Cat c) {
  return 1u << static_cast<unsigned>(c);
}
inline constexpr std::uint32_t kAllCategories = (1u << kCatCount) - 1;

/// Every decision the recorder can witness. Codes map to exactly one Cat
/// (cat_of); the listener block doubles as the drop/admit reason taxonomy.
enum class Code : std::uint8_t {
  // -- kListener: SYN verdicts ----------------------------------------------
  kSynEnqueue = 0,       ///< plain SYN-ACK, half-open state allocated
  kSynChallenge,         ///< stateless puzzle challenge minted (a0 = k<<8|m)
  kSynCookie,            ///< stateless SYN cookie minted
  kSynDropPolicy,        ///< policy-directed drop (defense::SynAction::kDrop)
  kSynDropOverflow,      ///< listen queue full, no stateless answer possible
  kSynRetxRequest,       ///< retransmitted SYN for an existing half-open
  // -- kListener: ACK paths -------------------------------------------------
  kAckPendingAccept,     ///< handshake done but accept queue full; parked
  kSolutionValid,        ///< puzzle solution verified (a1 = 1: prev epoch)
  kSolutionInvalid,      ///< malformed or wrong solution bytes
  kSolutionExpired,      ///< stale or future challenge timestamp
  kSolutionBadAckno,     ///< ACK does not bind to our stateless ISS
  kSolutionDuplicate,    ///< flow already admitted (local duplicate)
  kSolutionIgnoredFull,  ///< accept queue full: deception path, ACK ignored
  kSolutionReplayed,     ///< cluster replay filter rejected the solution
  kCookieValid,          ///< SYN-cookie ACK decoded
  kCookieInvalid,        ///< SYN-cookie decode failed
  kCookieDropFull,       ///< valid cookie, accept queue full
  // -- kListener: lifecycle -------------------------------------------------
  kEstablished,          ///< connection admitted (a0 = EstablishPath)
  kHalfOpenExpired,      ///< half-open entry gave up after max retries
  kSynackRetx,           ///< SYN-ACK retransmitted by the timer
  kRstSent,              ///< RST answered data on an unknown flow
  kDataUnknownFlow,      ///< data segment matched no flow
  // -- kDefense -------------------------------------------------------------
  kLatchEngage,          ///< protection latch engaged (a0 = listen, a1 = accept depth)
  kLatchDisengage,       ///< protection latch released after the hold
  kDifficultyRetune,     ///< adaptive controller moved (k,m): a0 = old, a1 = new (k<<8|m)
  // -- kOffense -------------------------------------------------------------
  kSlotSpoofedSyn,       ///< strategy spent the slot on a spoofed SYN (a0 = target)
  kSlotConnect,          ///< strategy spent the slot on a connect (a0 = target, a1 = patched)
  kSlotIdle,             ///< strategy idled the slot
  kChallengeSolve,       ///< strategy chose to pay for a challenge (a0 = k<<8|m)
  kChallengeAbandon,     ///< strategy (or solver backlog) refused the price
  kBogusAck,             ///< bogus-solution ACK emitted for a challenge
  kOutcomeEstablished,   ///< attempt outcome fed back to the strategy
  kOutcomeReset,
  kOutcomeTimeout,
  kOutcomeSolveRefused,
  // -- kEvent ---------------------------------------------------------------
  kSched,                ///< scheduled (a0 = seq, a1 = 0 batch, 1 wheel, 2 overflow)
  kCancel,               ///< descheduled (a0 = seq, a1 = 1 wheel unlink, 0 lazy)
  kFire,                 ///< event fired (a0 = seq)
  // -- kLink (pinned: codes outside kEvent keep their numbers) --------------
  kLinkTx = 41,          ///< serialized onto the wire (a0 = bytes, a1 = arrival ns)
  kLinkDrop,             ///< link queue overflow (a0 = bytes)
  // -- kSecret --------------------------------------------------------------
  kSecretRotate,         ///< listener installed a new secret epoch (a0 = epoch)
  kSecretOverlapEnd,     ///< previous-epoch solutions stopped verifying
  // -- kLb ------------------------------------------------------------------
  kLbPick,               ///< balancer dispatched a segment (a0 = backend)
  kLbNoBackend,          ///< no live backend; segment dropped
  kLbEvict,              ///< failover evicted a tracked flow (a0 = backend)
  // -- kFluid ---------------------------------------------------------------
  kFluidOffer,           ///< fluid SYN mass offered (a0 = mass x1000, a1 = dropped x1000)
  kFluidChallenge,       ///< fluid mass challenged (a0 = mass x1000, a1 = k<<8|m)
  kFluidEstablish,       ///< fluid mass admitted (a0 = mass x1000, a1 = puzzle path)
  kFluidDeceive,         ///< fluid mass deceived at full accept (a0 = mass x1000, a1 = puzzle path)
};

/// The category a code reports under (drives masking and export grouping).
[[nodiscard]] constexpr Cat cat_of(Code c) {
  if (c <= Code::kDataUnknownFlow) return Cat::kListener;
  if (c <= Code::kDifficultyRetune) return Cat::kDefense;
  if (c <= Code::kOutcomeSolveRefused) return Cat::kOffense;
  if (c <= Code::kFire) return Cat::kEvent;
  if (c <= Code::kLinkDrop) return Cat::kLink;
  if (c <= Code::kSecretOverlapEnd) return Cat::kSecret;
  if (c <= Code::kLbEvict) return Cat::kLb;
  return Cat::kFluid;
}

[[nodiscard]] const char* to_string(Cat c);
[[nodiscard]] const char* to_string(Code c);

/// One recorded decision. Exactly 40 bytes, no padding, trivially copyable:
/// ring writes are plain stores and a trace digest can fold fields without
/// worrying about indeterminate bytes.
struct TraceEvent {
  std::int64_t t = 0;  ///< sim-time nanoseconds (never wall clock)
  std::uint32_t saddr = 0;  ///< flow 4-tuple, zero when not flow-scoped
  std::uint32_t daddr = 0;
  std::uint16_t sport = 0;
  std::uint16_t dport = 0;
  std::uint8_t cat = 0;
  std::uint8_t code = 0;
  std::uint16_t track = 0;  ///< export track: one per agent/replica
  std::uint64_t a0 = 0;  ///< code-specific payload (see Code comments)
  std::uint64_t a1 = 0;
};
static_assert(sizeof(TraceEvent) == 40, "TraceEvent layout drifted");
static_assert(std::is_trivially_copyable_v<TraceEvent>);

/// Fixed-capacity flight-recorder ring. All hot-path members are inline;
/// record() is a mask check plus one bounds-masked store.
class Recorder {
 public:
  /// Capacity is rounded up to a power of two (>= 64) and preallocated —
  /// the only allocation the recorder ever performs.
  explicit Recorder(std::size_t capacity,
                    std::uint32_t category_mask = kAllCategories);

  [[nodiscard]] bool wants(Cat c) const { return (mask_ & cat_bit(c)) != 0; }
  [[nodiscard]] std::uint32_t category_mask() const { return mask_; }

  // -- hot path --------------------------------------------------------------
  void record(SimTime t, Code code, std::uint16_t track, std::uint64_t a0 = 0,
              std::uint64_t a1 = 0) {
    store(t, code, track, 0, 0, 0, 0, a0, a1);
  }
  void record(SimTime t, Code code, std::uint16_t track,
              const tcp::FlowKey& flow, std::uint64_t a0 = 0,
              std::uint64_t a1 = 0) {
    // Client endpoint first: listener events share the SYN's orientation.
    store(t, code, track, flow.raddr, flow.laddr, flow.rport, flow.lport, a0,
          a1);
  }
  void record(SimTime t, Code code, std::uint16_t track,
              const tcp::Segment& seg, std::uint64_t a0 = 0,
              std::uint64_t a1 = 0) {
    store(t, code, track, seg.saddr, seg.daddr, seg.sport, seg.dport, a0, a1);
  }

  // -- wrap/overflow accounting ----------------------------------------------
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  /// Events accepted over the recorder's lifetime (including overwritten).
  [[nodiscard]] std::uint64_t total_recorded() const { return head_; }
  /// Events currently retained (== capacity once the ring has wrapped).
  [[nodiscard]] std::size_t size() const {
    return head_ < ring_.size() ? static_cast<std::size_t>(head_)
                                : ring_.size();
  }
  /// Oldest events lost to wrap-around.
  [[nodiscard]] std::uint64_t overwritten() const {
    return head_ < ring_.size() ? 0 : head_ - ring_.size();
  }
  /// Events refused by the category mask.
  [[nodiscard]] std::uint64_t suppressed() const { return suppressed_; }

  // -- consumption (oldest -> newest) ----------------------------------------
  template <typename F>
  void for_each(F&& fn) const {
    const std::uint64_t begin = overwritten();
    for (std::uint64_t i = begin; i < head_; ++i) {
      fn(ring_[static_cast<std::size_t>(i) & idx_mask_]);
    }
  }
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;
  /// FNV-1a over every retained event, oldest to newest — the trace analogue
  /// of the counter digests in tests/trace_digest.hpp. Same seed, same
  /// scenario => same digest.
  [[nodiscard]] std::uint64_t digest() const;

  /// Appends an already-formed event, bypassing the category mask — the
  /// merge path for per-shard recorders (src/par/ sorts the shards' retained
  /// events by sim time and folds them into one ring). Same single-writer
  /// rules as record(): the merging thread is the writer.
  void append(const TraceEvent& ev) {
    assert_single_writer();
    ring_[static_cast<std::size_t>(head_) & idx_mask_] = ev;
    ++head_;
  }

  void clear() {
    head_ = 0;
    suppressed_ = 0;
#ifndef NDEBUG
    writer_ = std::thread::id{};
#endif
  }

 private:
  /// Debug teeth for the single-writer contract: the first write pins the
  /// owning thread; any other thread writing the same ring is a race the
  /// thread_local install was supposed to make impossible.
  void assert_single_writer() {
#ifndef NDEBUG
    const std::thread::id self = std::this_thread::get_id();
    if (writer_ == std::thread::id{}) writer_ = self;
    assert(writer_ == self &&
           "obs::Recorder written from two threads — each shard must "
           "install (and be the sole writer of) its own recorder");
#endif
  }

  void store(SimTime t, Code code, std::uint16_t track, std::uint32_t saddr,
             std::uint32_t daddr, std::uint16_t sport, std::uint16_t dport,
             std::uint64_t a0, std::uint64_t a1) {
    const Cat c = cat_of(code);
    if (!wants(c)) {
      ++suppressed_;
      return;
    }
    assert_single_writer();
    TraceEvent& ev = ring_[static_cast<std::size_t>(head_) & idx_mask_];
    ev.t = t.nanos();
    ev.saddr = saddr;
    ev.daddr = daddr;
    ev.sport = sport;
    ev.dport = dport;
    ev.cat = static_cast<std::uint8_t>(c);
    ev.code = static_cast<std::uint8_t>(code);
    ev.track = track;
    ev.a0 = a0;
    ev.a1 = a1;
    ++head_;
  }

  std::vector<TraceEvent> ring_;
  std::size_t idx_mask_ = 0;
  std::uint64_t head_ = 0;
  std::uint64_t suppressed_ = 0;
  std::uint32_t mask_ = kAllCategories;
#ifndef NDEBUG
  std::thread::id writer_{};  ///< pinned by the first write; see above
#endif
};

/// The installed recorder, or nullptr — one slot PER THREAD.
///
/// Single-writer contract (the sharded engine in src/par/ depends on it):
/// a Recorder has exactly one writing thread — the thread that installed
/// it. The slot is thread_local, so installing a recorder never makes its
/// ring visible to another thread's TCPZ_TRACE sites: each simulation
/// shard (and the wire backend's host thread) installs its own recorder
/// and is that ring's only writer, with no atomics or locks on the record
/// path. Readers (digest/export/merge) run after the writing thread is
/// joined or otherwise quiescent. Debug builds assert the contract: the
/// first record() pins the writer thread and cross-thread writes abort.
/// The disabled path stays a single TLS load + predictable branch.
namespace detail {
inline thread_local Recorder* g_recorder = nullptr;  // NOLINT
}  // namespace detail

/// This thread's installed recorder (other threads' recorders are never
/// visible here — see the single-writer contract above).
[[nodiscard]] inline Recorder* recorder() { return detail::g_recorder; }
inline void install_recorder(Recorder* r) { detail::g_recorder = r; }

/// RAII install/restore, used by scenario::run and the tests so a traced run
/// can never leak its recorder into the next one.
class ScopedRecorder {
 public:
  explicit ScopedRecorder(Recorder* r) : prev_(recorder()) {
    install_recorder(r);
  }
  ~ScopedRecorder() { install_recorder(prev_); }
  ScopedRecorder(const ScopedRecorder&) = delete;
  ScopedRecorder& operator=(const ScopedRecorder&) = delete;

 private:
  Recorder* prev_;
};

}  // namespace tcpz::obs

/// The tracepoint. Disabled (no recorder installed): one global load and a
/// predictable not-taken branch — nothing else, no argument evaluation
/// beyond what the call site already computed. Enabled: an inline masked
/// ring store. Usage:
///   TCPZ_TRACE(now, obs::Code::kSynChallenge, track_, flow, packed_km);
#define TCPZ_TRACE(...)                                               \
  do {                                                                \
    if (::tcpz::obs::Recorder* tcpz_rec_ = ::tcpz::obs::recorder();   \
        tcpz_rec_ != nullptr) [[unlikely]] {                          \
      tcpz_rec_->record(__VA_ARGS__);                                 \
    }                                                                 \
  } while (0)
