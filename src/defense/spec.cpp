#include "defense/spec.hpp"

namespace tcpz::defense {

const char* to_string(PolicySpec::Kind kind) {
  switch (kind) {
    case PolicySpec::Kind::kNone: return "none";
    case PolicySpec::Kind::kSynCookies: return "syncookies";
    case PolicySpec::Kind::kPuzzles: return "puzzles";
    case PolicySpec::Kind::kHybrid: return "hybrid";
  }
  return "unknown";
}

std::unique_ptr<DefensePolicy> PolicySpec::build() const {
  std::unique_ptr<DefensePolicy> p;
  switch (kind) {
    case Kind::kNone:
      p = std::make_unique<NonePolicy>();
      break;
    case Kind::kSynCookies:
      p = std::make_unique<SynCookiePolicy>();
      break;
    case Kind::kPuzzles:
      p = std::make_unique<PuzzlePolicy>(
          PuzzlePolicyConfig{always_challenge, cookie_fallback, protection_hold,
                             protection_engage_water});
      break;
    case Kind::kHybrid:
      p = std::make_unique<HybridPolicy>(HybridPolicyConfig{
          always_challenge, protection_hold, protection_engage_water});
      break;
  }
  if (adaptive && wants_engine()) {
    p = std::make_unique<AdaptivePuzzlePolicy>(std::move(p), *adaptive);
  }
  return p;
}

}  // namespace tcpz::defense
