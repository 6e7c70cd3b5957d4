// Declarative, value-type description of a defense policy — what scenario
// configs, fleet per-replica lists and result files carry around, and what
// the concrete policies read their knobs from. A spec is copyable and
// comparable where a live policy (stateful, non-copyable) is not; build()
// turns it into a fresh DefensePolicy instance.
#pragma once

#include <memory>
#include <optional>

#include "defense/adaptive.hpp"
#include "defense/policy.hpp"

namespace tcpz::defense {

struct PolicySpec {
  enum class Kind : std::uint8_t {
    kNone,        ///< stock TCP
    kSynCookies,  ///< the baseline
    kPuzzles,     ///< the paper's opportunistic puzzles
    kHybrid,      ///< cookies for the listen queue, puzzles for the accept queue
  };

  Kind kind = Kind::kNone;

  // Knobs for the puzzle/hybrid controllers (ignored by kNone/kSynCookies).

  /// Challenge every SYN regardless of queue state (Experiment 1 needs the
  /// puzzle path exercised without an attack filling the queues).
  bool always_challenge = false;
  /// kPuzzles only: degrade to SYN cookies when no engine is installed
  /// (§5's backup).
  bool cookie_fallback = false;
  /// Hysteresis for the opportunistic controller: protection engages the
  /// moment the watched queue (listen for kPuzzles, accept for kHybrid)
  /// reaches the watermark and stays "in effect" (§5) for this long after
  /// the last full-queue observation. Without a hold, every established
  /// connection momentarily opens one queue slot and an attacker SYN
  /// recycles it within an RTT, leaking flood connections at the accept
  /// drain rate. The default matches the ~30 s attack-end detection time the
  /// paper reports; periodic re-fills during a long attack produce exactly
  /// the opportunistic openings ("dark ticks") of Fig. 8.
  SimTime protection_hold = SimTime::seconds(60);
  /// Occupancy fraction of the watched queue at which protection engages.
  /// 1.0 is the paper's "when the socket's queue is full"; lowering it
  /// shrinks the burst of unchallenged connections admitted while an attack
  /// ramps up, at the cost of the listen queue no longer filling with parked
  /// attack state (the saturation Fig. 10 shows).
  double protection_engage_water = 1.0;

  /// When set (and the kind mints puzzles), the built policy is wrapped in
  /// the AdaptivePuzzlePolicy decorator — the §7 closed difficulty loop.
  std::optional<AdaptiveConfig> adaptive;

  bool operator==(const PolicySpec&) const = default;

  // -- canonical specs -------------------------------------------------------
  [[nodiscard]] static PolicySpec of(Kind k) {
    PolicySpec s;
    s.kind = k;
    return s;
  }
  [[nodiscard]] static PolicySpec none() { return of(Kind::kNone); }
  [[nodiscard]] static PolicySpec syn_cookies() { return of(Kind::kSynCookies); }
  [[nodiscard]] static PolicySpec puzzles() { return of(Kind::kPuzzles); }
  [[nodiscard]] static PolicySpec hybrid() { return of(Kind::kHybrid); }

  /// Fluent helper: the same spec with the adaptive decorator enabled.
  [[nodiscard]] PolicySpec with_adaptive(AdaptiveConfig cfg) const {
    PolicySpec s = *this;
    s.adaptive = cfg;
    return s;
  }

  /// True when a listener running this policy needs a PuzzleEngine wired up
  /// (scenario layers use this to decide whether to install the engine and
  /// subscribe the replica to the fleet secret directory).
  [[nodiscard]] bool wants_engine() const {
    return kind == Kind::kPuzzles || kind == Kind::kHybrid;
  }

  /// Builds a fresh policy instance (adaptive-wrapped when requested).
  [[nodiscard]] std::unique_ptr<DefensePolicy> build() const;

  /// Factory form, for ListenerConfig::policy.
  [[nodiscard]] PolicyFactory factory() const {
    return [spec = *this] { return spec.build(); };
  }
};

[[nodiscard]] const char* to_string(PolicySpec::Kind kind);

}  // namespace tcpz::defense
