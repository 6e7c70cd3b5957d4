// Public facade of the tcppuzzles library.
//
// A downstream user typically needs three things:
//   1. the puzzle scheme itself        -> puzzle/engine.hpp
//   2. a difficulty chosen on theory   -> game/planner.hpp (DifficultyPlanner)
//   3. a protected TCP endpoint        -> tcp/listener.hpp, tcp/connector.hpp
// plus, for evaluation, the simulator  -> scenario/spec.hpp
//
// This header pulls the public API together and adds the small glue type
// (PuzzleProtectedServer settings) the examples use.
#pragma once

#include "core/adaptive.hpp"
#include "crypto/hmac.hpp"
#include "crypto/secret.hpp"
#include "crypto/sha256.hpp"
#include "game/model.hpp"
#include "game/planner.hpp"
#include "puzzle/engine.hpp"
#include "puzzle/types.hpp"
#include "tcp/connector.hpp"
#include "tcp/listener.hpp"
#include "tcp/options.hpp"
#include "tcp/segment.hpp"
#include "tcp/syncookie.hpp"

namespace tcpz {

struct Version {
  int major = 1;
  int minor = 0;
  int patch = 0;
};

[[nodiscard]] Version library_version();

/// Everything needed to stand up a puzzle-protected listening socket with a
/// theory-backed difficulty: profile inputs in, a ready Listener out.
struct ProtectedServerSettings {
  std::uint32_t local_addr = 0;
  std::uint16_t local_port = 80;
  std::size_t listen_backlog = 1024;
  std::size_t accept_backlog = 1024;
  game::PlanInput plan;  ///< client hash profiles + server stress test
  puzzle::EngineConfig engine;
};

struct ProtectedServer {
  game::Plan plan;  ///< the difficulty the theory chose
  std::shared_ptr<puzzle::Sha256PuzzleEngine> engine;
  std::unique_ptr<tcp::Listener> listener;
};

/// Builds a real-crypto (SHA-256) puzzle-protected listener from profile
/// data. The returned listener has puzzles enabled at the planned Nash
/// difficulty.
[[nodiscard]] ProtectedServer make_protected_server(
    const ProtectedServerSettings& settings, crypto::SecretKey secret,
    std::uint64_t seed);

}  // namespace tcpz
