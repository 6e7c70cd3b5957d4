// Server-side TCP handshake state machine with the paper's protections.
//
// This is the userspace equivalent of the paper's Linux 4.13 patch (§5):
//
//  * Puzzles are off in normal operation; a SYN is answered with a plain
//    SYN-ACK and a listen-queue entry ("opportunistic controller").
//  * When the listen queue — or, per the paper's modification, the accept
//    queue — is full and puzzles are enabled, the server answers SYNs with a
//    challenge in the SYN-ACK and keeps NO state (statelessness property).
//  * An ACK carrying a valid, fresh solution establishes the connection
//    directly into the accept queue. If the accept queue is full the ACK is
//    ignored; the client believes it connected and a later data segment is
//    answered with RST (the deception mechanism of §5).
//  * SYN cookies are implemented as the comparison baseline and as the
//    backup option.
//  * Difficulty (k, m) and the defense policy are runtime-tunable,
//    mirroring the sysctl interface.
//
// WHICH defense applies — and when it engages — is decided by a pluggable
// defense::DefensePolicy (src/defense/policy.hpp) the listener consults at
// its three decision points (on_syn / on_ack / on_tick). The listener owns
// the mechanics: queues, retransmits, stateless credential validation and
// wire formatting.
//
// The class is sans-I/O: callers feed segments and ticks in, and get
// segments to transmit back. That makes it equally usable from unit tests,
// the discrete-event simulator, and a raw-socket/DPDK shim.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "crypto/secret.hpp"
#include "defense/policy.hpp"
#include "puzzle/engine.hpp"
#include "tcp/counters.hpp"
#include "tcp/queues.hpp"
#include "tcp/segment.hpp"
#include "tcp/syncookie.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace tcpz::tcp {

struct ListenerConfig {
  std::uint32_t local_addr = 0;
  std::uint16_t local_port = 80;
  std::size_t listen_backlog = 1024;
  std::size_t accept_backlog = 1024;
  /// The defense policy the listener is built from (see
  /// defense::PolicySpec::factory()); unset means stock TCP.
  defense::PolicyFactory policy;
  puzzle::Difficulty difficulty{2, 17};
  SimTime synack_timeout = SimTime::seconds(1);
  /// Linux tcp_synack_retries default: 5 retries with exponential backoff,
  /// a ~63 s half-open lifetime. This lifetime is what keeps the listen
  /// queue "mostly saturated" during a connection flood (Fig. 10).
  int max_synack_retries = 5;
  std::uint16_t mss = 1460;
  std::uint8_t wscale = 7;
  /// Carry the challenge timestamp in the TCP timestamps option when the
  /// peer negotiated it; otherwise embed it in the challenge/solution blocks.
  bool use_timestamps = true;
  /// Flight-recorder track this listener's trace events report under (one
  /// track per agent/replica in the Chrome-trace export; see src/obs/).
  std::uint16_t trace_track = 0;
};

class Listener {
 public:
  /// `engine` may be null unless the policy requires one (it can also be
  /// installed later via set_engine, before switching to such a policy).
  Listener(ListenerConfig cfg, crypto::SecretKey secret, std::uint64_t seed,
           std::shared_ptr<const puzzle::PuzzleEngine> engine = nullptr);

  /// Feed one incoming segment; returns segments to transmit.
  [[nodiscard]] std::vector<Segment> on_segment(SimTime now, const Segment& seg);

  /// Periodic maintenance: SYN-ACK retransmission, half-open expiry,
  /// defense-policy control (protection latch, adaptive difficulty).
  [[nodiscard]] std::vector<Segment> on_tick(SimTime now);

  /// Application-side accept(): dequeues one established connection.
  [[nodiscard]] std::optional<AcceptedConnection> accept(SimTime now);

  /// Application-side close: releases all state for the flow.
  void close(const FlowKey& flow);

  /// Handler invoked for data segments on established flows.
  using DataHandler =
      std::function<void(SimTime now, const FlowKey& flow, const Segment& seg)>;
  void set_data_handler(DataHandler handler) { data_handler_ = std::move(handler); }

  /// Invoked whenever a connection is established (from any path) — the
  /// metrics layer classifies these by source address.
  using EstablishHandler =
      std::function<void(SimTime now, const AcceptedConnection& conn)>;
  void set_establish_handler(EstablishHandler handler) {
    establish_handler_ = std::move(handler);
  }

  // -- runtime tuning (the sysctl interface of §5) --------------------------
  /// Installs a new defense policy. Throws if the policy requires a
  /// PuzzleEngine and none is installed; the current policy stays in place
  /// on failure. A policy change is a defense *restart*: controller state
  /// (protection latch, adaptive difficulty) starts fresh, so swapping
  /// policies mid-attack re-opens the opportunistic window until the new
  /// policy's own controller engages.
  void set_policy(std::unique_ptr<defense::DefensePolicy> policy);
  void set_difficulty(puzzle::Difficulty d);
  void set_engine(std::shared_ptr<const puzzle::PuzzleEngine> engine);

  // -- secret rotation (fleet deployments) -----------------------------------
  /// Installs a new puzzle secret/engine epoch. The outgoing pair becomes
  /// the *previous* epoch: challenges are minted only from the new secret,
  /// but solutions minted under the previous one keep verifying until
  /// drop_previous_secret() ends the overlap window. SYN cookies keep the
  /// construction-time secret (their validity window is seconds and they are
  /// not part of the cross-replica scheme).
  void rotate_secret(crypto::SecretKey secret,
                     std::shared_ptr<const puzzle::PuzzleEngine> engine);
  /// Ends the rotation overlap: previous-epoch solutions stop verifying.
  void drop_previous_secret();
  [[nodiscard]] bool has_previous_secret() const { return prev_.has_value(); }
  /// Monotone epoch number, starting at 0; bumped by each rotate_secret().
  [[nodiscard]] std::uint32_t secret_epoch() const { return epoch_; }

  /// Cluster-level replay protection hook: invoked with (flow, challenge
  /// timestamp, now in ms) after a solution verifies and before the
  /// connection is admitted. A true return means another replica already
  /// admitted this solution; the ACK is then dropped as a duplicate. The
  /// filter is expected to have check-and-insert semantics (see
  /// fleet::ReplayCache).
  using ReplayFilter = std::function<bool(
      const FlowKey& flow, std::uint32_t ts, std::uint32_t now_ms)>;
  void set_replay_filter(ReplayFilter filter) {
    replay_filter_ = std::move(filter);
  }

  // -- aggregate (fluid) workload entry points -------------------------------
  // The hybrid population model (src/workload/fluid.hpp) injects the
  // aggregated legitimate demand of N users through these calls, once per
  // simulation tick, as *fractional user mass* instead of per-packet events.
  // The defense policy is consulted exactly as for a discrete SYN — over a
  // QueueView that already folds in the fluid occupancy — so policies cannot
  // tell fluid pressure from discrete pressure. One policy verdict covers a
  // whole tick's mass (the fluid approximation). All fluid accounting lands
  // in the dedicated fluid_* counters; discrete wire counters are never
  // polluted, but crypto work (challenge minting, solution verification) is
  // charged to the shared CPU accumulator like any other crypto op.

  /// Outcome split of one tick's offered SYN mass.
  struct FluidAdmission {
    double enqueued = 0;    ///< admitted toward the (virtual) listen queue
    double challenged = 0;  ///< answered with stateless puzzle challenges
    double cookied = 0;     ///< answered with stateless SYN cookies
    double dropped = 0;     ///< no room / policy drop
    /// Difficulty the challenges were minted at (for solve-time modeling).
    puzzle::Difficulty difficulty;
  };
  [[nodiscard]] FluidAdmission admit_fluid_syns(SimTime now, double offered);

  /// Handshake-completion mass — final ACKs (queue/cookie paths) or solved
  /// challenges re-offered as solution ACKs (`puzzle_path`) — competing for
  /// accept-queue room. Returns the admitted (established) mass; the
  /// remainder is the §5 deception outcome: the senders believe they
  /// connected and will fail at their response timeout.
  [[nodiscard]] double admit_fluid_handshakes(SimTime now, double offered,
                                              bool puzzle_path);

  /// Publishes the population's queue-occupancy contribution (parked
  /// handshakes -> listen share, service backlog overflow -> accept share)
  /// so discrete admission gates and policy decisions see combined depths.
  void set_fluid_occupancy(double listen, double accept);
  [[nodiscard]] double fluid_listen_occupancy() const { return fluid_listen_; }
  [[nodiscard]] double fluid_accept_occupancy() const { return fluid_accept_; }

  // -- introspection ---------------------------------------------------------
  [[nodiscard]] std::size_t listen_depth() const { return listen_.size(); }
  [[nodiscard]] std::size_t accept_depth() const { return accept_.size(); }
  [[nodiscard]] std::size_t established_count() const {
    return established_count_;
  }
  [[nodiscard]] bool is_established(const FlowKey& flow) const {
    const AdmittedFlow* a = admitted_.find(flow);
    return a != nullptr && a->established;
  }
  [[nodiscard]] const ListenerCounters& counters() const { return counters_; }
  [[nodiscard]] const ListenerConfig& config() const { return cfg_; }
  /// The active defense policy (never null).
  [[nodiscard]] const defense::DefensePolicy& policy() const { return *policy_; }
  /// Name of the active policy, for reports and result files.
  [[nodiscard]] const char* policy_name() const { return policy_->name(); }
  /// True when the next SYN would be answered with a challenge or cookie.
  [[nodiscard]] bool protection_active() const;

  /// Returns the crypto hash-op count accumulated since the last call and
  /// resets the accumulator (for CPU-time charging by the simulator).
  [[nodiscard]] std::uint64_t take_hash_ops();

 private:
  [[nodiscard]] std::vector<Segment> handle_syn(SimTime now, const Segment& seg);
  [[nodiscard]] std::vector<Segment> handle_ack(SimTime now, const Segment& seg);
  [[nodiscard]] std::vector<Segment> handle_solution_ack(SimTime now,
                                                         const Segment& seg);

  [[nodiscard]] Segment make_synack(const HalfOpenEntry& entry,
                                    std::uint32_t now_ms) const;
  [[nodiscard]] Segment make_challenge_synack(const Segment& seg,
                                              const FlowKey& flow,
                                              std::uint32_t now_ms);
  [[nodiscard]] Segment make_cookie_synack(const Segment& seg,
                                           const FlowKey& flow, SimTime now);
  [[nodiscard]] Segment make_rst(const Segment& in) const;
  [[nodiscard]] std::uint32_t stateless_iss(const FlowKey& flow,
                                            std::uint32_t ts) const;
  [[nodiscard]] static std::uint32_t stateless_iss_with(
      const crypto::SecretKey& secret, const FlowKey& flow, std::uint32_t ts);
  void establish(SimTime now, const AcceptedConnection& conn);
  /// Clears the flow's established flag (close or RST); the record goes once
  /// no connection of the flow waits in the accept queue either.
  void release(const FlowKey& flow);

  /// policy_->observe() plus, when a recorder is listening on the defense
  /// category, latch-transition detection around it (kLatchEngage /
  /// kLatchDisengage). The extra protection_active() probes run only while
  /// tracing that category — the untraced path is the bare observe call.
  void observe_policy(SimTime now);

  /// The read-only listener snapshot handed to the defense policy. Depths
  /// and full flags include the fluid occupancy (integer-truncated); with no
  /// fluid population attached this reduces exactly to the discrete view.
  [[nodiscard]] defense::QueueView queue_view() const;

  /// Discrete admission gates, fluid-aware: a queue is saturated when its
  /// ring is full OR the combined discrete+fluid depth reaches capacity.
  [[nodiscard]] bool listen_saturated() const {
    return listen_.full() ||
           listen_.size() + static_cast<std::size_t>(fluid_listen_) >=
               listen_.capacity();
  }
  [[nodiscard]] bool accept_saturated() const {
    return accept_.full() ||
           accept_.size() + static_cast<std::size_t>(fluid_accept_) >=
               accept_.capacity();
  }

  /// A retired secret epoch, kept alive through the rotation overlap window.
  struct PrevEpoch {
    crypto::SecretKey secret;
    std::shared_ptr<const puzzle::PuzzleEngine> engine;
  };

  ListenerConfig cfg_;
  crypto::SecretKey secret_;
  std::shared_ptr<const puzzle::PuzzleEngine> engine_;
  std::optional<PrevEpoch> prev_;
  std::uint32_t epoch_ = 0;
  SynCookieCodec cookies_;
  Rng rng_;
  std::unique_ptr<defense::DefensePolicy> policy_;

  ListenQueue listen_;
  AcceptQueue accept_;
  AdmittedFlows admitted_;
  std::size_t established_count_ = 0;

  DataHandler data_handler_;
  EstablishHandler establish_handler_;
  ReplayFilter replay_filter_;
  ListenerCounters counters_;
  std::uint64_t hash_ops_pending_ = 0;

  // Fluid-population state: published occupancy plus the fractional
  // remainders of every fluid counter and of the crypto-op charge.
  double fluid_listen_ = 0;
  double fluid_accept_ = 0;
  FloorCarry carry_offered_, carry_enqueued_, carry_challenged_, carry_cookied_,
      carry_dropped_, carry_solutions_, carry_established_, carry_deceived_,
      carry_crypto_ops_;
};

}  // namespace tcpz::tcp
