// Pluggable attack strategies for the botnet agent — the offense-side mirror
// of the defense::DefensePolicy layer.
//
// The paper's evaluation is a matrix of attacker behaviours × defenses: SYN
// floods, connection floods (patched and legacy kernels), bogus-solution
// floods (§7), rate/botnet sweeps (Figs. 13-14) and partial adoption
// (Fig. 15). Each behaviour is an AttackStrategy sim::AttackerAgent
// consults at its decision points:
//
//   on_slot      — at every emission slot of the constant-rate flood loop:
//                  send a spoofed SYN, launch a real connection attempt
//                  (patched or legacy stack, against which target), or idle
//                  (pulsed/shrew duty cycles);
//   on_rx        — how to treat an incoming segment before the connector
//                  sees it: forward it, ignore it (SYN-flood backscatter),
//                  or answer a challenge SYN-ACK with a garbage solution
//                  (§7 solution floods);
//   on_challenge — what to do when the patched connector asks for a solve:
//                  run the in-kernel solver or abandon the attempt;
//   on_outcome   — notification of attempt verdicts (established / RST /
//                  timeout / solver refusal), the feedback channel adaptive
//                  strategies re-plan from.
//
// The agent keeps owning sockets, timers, the CPU model, metric accounting
// and the wire formatting — a strategy decides, never mutates. Strategies
// see the bot only through the read-only BotView snapshot; the one mutable
// handle is the bot's deterministic RNG stream, because strategy draws are
// part of the reproducible trace.
//
// Concrete strategies live in offense/strategies.hpp; declarative
// construction in offense/spec.hpp.
#pragma once

#include <cstdint>

#include "puzzle/types.hpp"
#include "sim/cpu.hpp"
#include "tcp/segment.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace tcpz::offense {

/// Read-only snapshot of the bot state a strategy may consult. Built fresh
/// by the agent at every decision point.
struct BotView {
  SimTime now;
  SimTime attack_start;
  SimTime attack_end;
  std::size_t inflight = 0;      ///< attempts currently holding a tool slot
  int max_inflight = 0;          ///< the tool's concurrency cap
  int pending_solves = 0;        ///< solver jobs queued or running
  SimTime attempt_timeout;       ///< when the tool abandons an attempt
  bool has_engine = false;       ///< a PuzzleEngine is wired (solving possible)
  std::size_t n_targets = 1;     ///< servers this bot can aim at
  const sim::CpuModel* cpu = nullptr;  ///< solver-lane occupancy, hash rate
  /// The bot's deterministic stream. Strategy draws are part of the trace:
  /// a strategy that consumes no randomness perturbs nothing.
  Rng* rng = nullptr;
};

/// What to do with one emission slot of the flood loop.
enum class SlotAction : std::uint8_t {
  kSpoofedSyn,  ///< one SYN from a random spoofed source (hping3-style)
  kConnect,     ///< launch a real connection attempt (nping-style)
  kIdle,        ///< let the slot pass (off phase of a pulsed attack)
};

struct SlotDecision {
  SlotAction action = SlotAction::kConnect;
  /// kConnect only: patched stack (solves challenges through the CPU model)
  /// or legacy stack (plain-ACKs them).
  bool patched = true;
  /// Which target to aim at (index into the agent's target list).
  std::size_t target = 0;
};

/// How to treat a received segment, decided before the connector sees it.
enum class RxAction : std::uint8_t {
  kForward,   ///< hand to the attempt's connector state machine
  kBogusAck,  ///< answer a challenge SYN-ACK with garbage solution bytes
  kIgnore,    ///< drop on the floor (spoofed-source backscatter)
};

/// The RxAction::kBogusAck reply to a challenge SYN-ACK: the ACK a patched
/// stack would send, mirrored 4-tuple and timestamps, carrying garbage
/// solution bytes of the declared (k, sol_len) size, so the server must do
/// verification work to reject it. Draws one rng.next() per solution byte.
[[nodiscard]] tcp::Segment make_bogus_solution_ack(SimTime now,
                                                   const tcp::Segment& synack,
                                                   Rng& rng);

/// What to do when the patched connector asks the host to run the solver.
enum class ChallengeAction : std::uint8_t {
  kSolve,    ///< solve, subject to the tool's serial-solver admission
  kAbandon,  ///< refuse; the attempt holds its slot until the tool times out
};

/// Attempt verdicts fed back to the strategy.
enum class Outcome : std::uint8_t {
  kEstablished,   ///< handshake completed (from the bot's view)
  kReset,         ///< RST received
  kTimeout,       ///< the tool recycled a stale attempt
  kSolveRefused,  ///< solver backlogged (or strategy abandoned the solve)
};

class AttackStrategy {
 public:
  virtual ~AttackStrategy() = default;

  /// Stable identifier, threaded into scenario reports and bench JSON.
  [[nodiscard]] virtual const char* name() const = 0;

  [[nodiscard]] virtual SlotDecision on_slot(const BotView& v) = 0;

  [[nodiscard]] virtual RxAction on_rx(const BotView& v,
                                       const tcp::Segment& seg) {
    (void)v;
    (void)seg;
    return RxAction::kForward;
  }

  [[nodiscard]] virtual ChallengeAction on_challenge(
      const BotView& v, const puzzle::Challenge& challenge) {
    (void)v;
    (void)challenge;
    return ChallengeAction::kSolve;
  }

  virtual void on_outcome(const BotView& v, Outcome outcome) {
    (void)v;
    (void)outcome;
  }
};

}  // namespace tcpz::offense
