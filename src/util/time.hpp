// Fixed-point simulated time used throughout the discrete-event simulator.
//
// Simulated time is kept as a signed 64-bit count of nanoseconds. Floating
// point time accumulates rounding error across millions of events, which
// breaks determinism of event ordering; integer nanoseconds give us an exact,
// totally ordered clock good for ~292 years of simulated time.
#pragma once

#include <cstdint>
#include <compare>
#include <limits>
#include <string>

namespace tcpz {

/// A point in simulated time (or a duration), in integer nanoseconds.
class SimTime {
 public:
  constexpr SimTime() = default;
  constexpr explicit SimTime(std::int64_t nanos) : nanos_(nanos) {}

  [[nodiscard]] static constexpr SimTime zero() { return SimTime{0}; }
  [[nodiscard]] static constexpr SimTime max() {
    return SimTime{std::numeric_limits<std::int64_t>::max()};
  }

  [[nodiscard]] static constexpr SimTime nanoseconds(std::int64_t ns) {
    return SimTime{ns};
  }
  [[nodiscard]] static constexpr SimTime microseconds(std::int64_t us) {
    return SimTime{us * 1'000};
  }
  [[nodiscard]] static constexpr SimTime milliseconds(std::int64_t ms) {
    return SimTime{ms * 1'000'000};
  }
  [[nodiscard]] static constexpr SimTime seconds(std::int64_t s) {
    return SimTime{s * 1'000'000'000};
  }
  /// Converts a (non-negative, finite) seconds value; rounds to nearest ns.
  [[nodiscard]] static SimTime from_seconds(double s);

  [[nodiscard]] constexpr std::int64_t nanos() const { return nanos_; }
  [[nodiscard]] constexpr double to_seconds() const {
    return static_cast<double>(nanos_) / 1e9;
  }
  [[nodiscard]] constexpr double to_millis() const {
    return static_cast<double>(nanos_) / 1e6;
  }

  constexpr auto operator<=>(const SimTime&) const = default;

  constexpr SimTime& operator+=(SimTime rhs) {
    nanos_ += rhs.nanos_;
    return *this;
  }
  constexpr SimTime& operator-=(SimTime rhs) {
    nanos_ -= rhs.nanos_;
    return *this;
  }

  friend constexpr SimTime operator+(SimTime a, SimTime b) {
    return SimTime{a.nanos_ + b.nanos_};
  }
  friend constexpr SimTime operator-(SimTime a, SimTime b) {
    return SimTime{a.nanos_ - b.nanos_};
  }
  friend constexpr SimTime operator*(SimTime a, std::int64_t k) {
    return SimTime{a.nanos_ * k};
  }
  friend constexpr SimTime operator*(std::int64_t k, SimTime a) { return a * k; }

  /// Human-readable rendering with an adaptive unit, e.g. "120.000s", "2.5ms".
  [[nodiscard]] std::string to_string() const;

 private:
  std::int64_t nanos_ = 0;
};

}  // namespace tcpz
