#include "defense/spec.hpp"

#include "defense/policies.hpp"

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
      p = std::make_unique<PuzzlePolicy>(*this);
      break;
    case Kind::kHybrid:
      p = std::make_unique<HybridPolicy>(*this);
      break;
  }
  if (adaptive && wants_engine()) {
    p = std::make_unique<AdaptivePuzzlePolicy>(std::move(p), *adaptive);
  }
  return p;
}

}  // namespace tcpz::defense
