#include "core/tcppuzzles.hpp"

#include "defense/spec.hpp"

namespace tcpz {

Version library_version() { return Version{1, 0, 0}; }

ProtectedServer make_protected_server(const ProtectedServerSettings& settings,
                                      crypto::SecretKey secret,
                                      std::uint64_t seed) {
  ProtectedServer out;
  out.plan = game::plan_difficulty(settings.plan);
  out.engine =
      std::make_shared<puzzle::Sha256PuzzleEngine>(secret, settings.engine);

  tcp::ListenerConfig lcfg;
  lcfg.local_addr = settings.local_addr;
  lcfg.local_port = settings.local_port;
  lcfg.listen_backlog = settings.listen_backlog;
  lcfg.accept_backlog = settings.accept_backlog;
  lcfg.policy = defense::PolicySpec::puzzles().factory();
  lcfg.difficulty = out.plan.difficulty;
  out.listener = std::make_unique<tcp::Listener>(lcfg, secret, seed, out.engine);
  return out;
}

}  // namespace tcpz
