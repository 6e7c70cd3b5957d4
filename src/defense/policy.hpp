// Pluggable defense policies for the TCP listener.
//
// The paper's contribution is a *family* of handshake defenses —
// opportunistic puzzles, SYN cookies as baseline and backup, and the §7
// adaptive extensions. Each member is a DefensePolicy the listener consults
// at its three decision points:
//
//   on_syn   — what to answer a fresh SYN with: admit to the listen queue
//              (plain SYN-ACK), mint a stateless challenge, mint a stateless
//              SYN cookie, or drop;
//   on_ack   — which stateless credentials an unmatched ACK may redeem
//              (puzzle solution and/or SYN cookie);
//   on_tick  — periodic control: engage/disengage protection, retune the
//              puzzle difficulty (the §7 closed loop).
//
// Each point returns a small decision struct; the listener keeps owning the
// queues, the retransmit machinery and the wire formatting, so it stays
// sans-I/O and policies stay trivially testable. Policies see listener state
// only through the read-only QueueView snapshot, which makes the contract
// explicit: a policy can decide, never mutate.
//
// Concrete policies live in defense/policies.hpp; declarative construction
// in defense/spec.hpp.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "puzzle/types.hpp"
#include "tcp/counters.hpp"
#include "util/time.hpp"

namespace tcpz::defense {

/// Read-only snapshot of the listener state a policy may consult. Built
/// fresh by the listener at every decision point.
struct QueueView {
  std::size_t listen_depth = 0;
  std::size_t listen_capacity = 0;
  bool listen_full = false;
  std::size_t accept_depth = 0;
  std::size_t accept_capacity = 0;
  bool accept_full = false;
  /// A PuzzleEngine is installed: challenges can be minted and solutions
  /// verified. Policies must not request kChallenge (or solution checking)
  /// without it.
  bool has_engine = false;
};

/// What the listener should do with a SYN that matched no existing state.
enum class SynAction : std::uint8_t {
  kEnqueue,    ///< allocate half-open state, answer with a plain SYN-ACK
  kChallenge,  ///< stateless puzzle challenge in the SYN-ACK (needs engine)
  kCookie,     ///< stateless SYN-cookie SYN-ACK
  kDrop,       ///< drop silently (stock TCP under overload)
};

/// Why a kDrop was directed. Drives the drops_queue_overflow vs drops_policy
/// counter split and the trace reason taxonomy (obs::Code).
enum class DropReason : std::uint8_t {
  kPolicy,    ///< deliberate filtering decision, regardless of queue room
  kOverflow,  ///< no room and nothing stateless to answer with (stock TCP)
};

struct SynDecision {
  SynAction action = SynAction::kEnqueue;
  DropReason drop_reason = DropReason::kPolicy;  ///< meaningful when kDrop
};

/// Which stateless credentials an ACK that matches no half-open or
/// established flow may redeem. The listener still performs all validation
/// (ISS binding, freshness, accept-queue room, replay) mechanically.
struct AckDecision {
  bool check_solution = false;  ///< validate a carried puzzle solution
  bool check_cookie = false;    ///< attempt SYN-cookie decode
};

/// Periodic control output. `difficulty` retunes the puzzle difficulty the
/// listener mints and verifies with (the §7 adaptive loop); nullopt leaves
/// it untouched.
struct TickDecision {
  std::optional<puzzle::Difficulty> difficulty;
};

class DefensePolicy {
 public:
  virtual ~DefensePolicy() = default;

  /// Stable identifier, threaded into scenario reports and bench JSON so
  /// result files name the defense that produced them.
  [[nodiscard]] virtual const char* name() const = 0;

  /// Called once at the start of every listener entry point (each segment
  /// and each tick), before any decision is requested — the place for
  /// edge-triggered state such as the opportunistic protection latch.
  virtual void observe(SimTime now, const QueueView& q) {
    (void)now;
    (void)q;
  }

  [[nodiscard]] virtual SynDecision on_syn(SimTime now, const QueueView& q) = 0;

  [[nodiscard]] virtual AckDecision on_ack(SimTime now,
                                           const QueueView& q) const = 0;

  /// Called from Listener::on_tick (the maintenance cadence), with the
  /// cumulative counters for rate derivation.
  [[nodiscard]] virtual TickDecision on_tick(
      SimTime now, const QueueView& q, const tcp::ListenerCounters& counters) {
    (void)now;
    (void)q;
    (void)counters;
    return {};
  }

  /// True when the next SYN would be answered statelessly (challenge or
  /// cookie) rather than enqueued — the introspection hook behind
  /// Listener::protection_active().
  [[nodiscard]] virtual bool protection_active(const QueueView& q) const = 0;

  /// True when the policy cannot operate without a PuzzleEngine installed;
  /// the listener rejects construction/installation in that case.
  [[nodiscard]] virtual bool requires_engine() const { return false; }
};

/// How configs carry a policy: a factory, so every Listener gets its own
/// (stateful) instance even when configs are copied around.
using PolicyFactory = std::function<std::unique_ptr<DefensePolicy>()>;

}  // namespace tcpz::defense
