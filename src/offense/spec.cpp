#include "offense/spec.hpp"

#include "offense/strategies.hpp"

namespace tcpz::offense {

const char* to_string(StrategySpec::Kind kind) {
  switch (kind) {
    case StrategySpec::Kind::kSynFlood: return "syn-flood";
    case StrategySpec::Kind::kConnFlood: return "conn-flood";
    case StrategySpec::Kind::kBogusSolutionFlood:
      return "bogus-solution-flood";
    case StrategySpec::Kind::kPulsed: return "pulsed";
    case StrategySpec::Kind::kGameAdaptive: return "game-adaptive";
    case StrategySpec::Kind::kMultiTarget: return "multi-target";
  }
  return "unknown";
}

std::unique_ptr<AttackStrategy> StrategySpec::build() const {
  switch (kind) {
    case Kind::kSynFlood: return std::make_unique<SynFloodStrategy>();
    case Kind::kConnFlood:
      return std::make_unique<ConnFloodStrategy>(patched);
    case Kind::kBogusSolutionFlood:
      return std::make_unique<BogusSolutionFloodStrategy>();
    case Kind::kPulsed:
      return std::make_unique<PulsedStrategy>(*this);
    case Kind::kGameAdaptive:
      return std::make_unique<GameAdaptiveStrategy>(*this);
    case Kind::kMultiTarget:
      return std::make_unique<MultiTargetStrategy>(*this);
  }
  return std::make_unique<ConnFloodStrategy>(patched);
}

}  // namespace tcpz::offense
