#ifndef PIMCOMP_COMMON_UNITS_HPP
#define PIMCOMP_COMMON_UNITS_HPP

#include <cstdint>
#include <string>

#include "common/error.hpp"

namespace pimcomp {

/// All simulated time is carried as 64-bit integer picoseconds so that event
/// ordering is exact (no floating-point ties). One simulated second is 1e12
/// ps, so int64 gives ~106 days of headroom.
using Picoseconds = std::int64_t;

inline constexpr Picoseconds kPsPerNs = 1'000;
inline constexpr Picoseconds kPsPerUs = 1'000'000;
inline constexpr Picoseconds kPsPerMs = 1'000'000'000;
inline constexpr Picoseconds kPsPerSec = 1'000'000'000'000;

constexpr Picoseconds from_ns(double ns) {
  return static_cast<Picoseconds>(ns * static_cast<double>(kPsPerNs));
}
constexpr Picoseconds from_us(double us) {
  return static_cast<Picoseconds>(us * static_cast<double>(kPsPerUs));
}
/// A duration computed in floating point, rounded toward zero. Throws
/// SimulationError when it does not fit Picoseconds (NaN included), where a
/// plain cast would be undefined behaviour.
inline Picoseconds checked_ps(double ps) {
  if (!(ps >= 0.0 && ps < 0x1p63)) {
    throw SimulationError("duration of " + std::to_string(ps) +
                          " ps is outside the simulated time range");
  }
  return static_cast<Picoseconds>(ps);
}

/// a + b, or SimulationError when the sum leaves Picoseconds' range.
inline Picoseconds add_time(Picoseconds a, Picoseconds b) {
  Picoseconds sum = 0;
  if (__builtin_add_overflow(a, b, &sum)) {
    throw SimulationError("simulated time overflows 64-bit picoseconds");
  }
  return sum;
}

constexpr double to_ns(Picoseconds ps) {
  return static_cast<double>(ps) / static_cast<double>(kPsPerNs);
}
constexpr double to_us(Picoseconds ps) {
  return static_cast<double>(ps) / static_cast<double>(kPsPerUs);
}
constexpr double to_ms(Picoseconds ps) {
  return static_cast<double>(ps) / static_cast<double>(kPsPerMs);
}
constexpr double to_seconds(Picoseconds ps) {
  return static_cast<double>(ps) / static_cast<double>(kPsPerSec);
}

/// Energy bookkeeping unit: picojoules, kept as double (energies accumulate,
/// they never order events).
using Picojoules = double;

inline constexpr double kPjPerNj = 1'000.0;
inline constexpr double kPjPerUj = 1'000'000.0;
inline constexpr double kPjPerMj = 1'000'000'000.0;

constexpr double to_uj(Picojoules pj) { return pj / kPjPerUj; }
constexpr double to_mj(Picojoules pj) { return pj / kPjPerMj; }

/// milliwatts * picoseconds -> picojoules. (1 mW = 1e-3 J/s = 1e9 pJ / 1e12 ps
/// = 1e-3 pJ/ps.)
constexpr Picojoules energy_mw_ps(double milliwatts, Picoseconds duration) {
  return milliwatts * 1e-3 * static_cast<double>(duration);
}

}  // namespace pimcomp

#endif  // PIMCOMP_COMMON_UNITS_HPP
