// Defence-policy fixtures shared by the listener, wire and scenario tests.
#pragma once

#include "defense/spec.hpp"

namespace tcpz::fixtures {

/// Puzzles that challenge every SYN regardless of queue state.
inline defense::PolicySpec always_puzzles() {
  defense::PolicySpec p = defense::PolicySpec::puzzles();
  p.always_challenge = true;
  return p;
}

}  // namespace tcpz::fixtures
