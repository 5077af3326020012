// Core unit types shared across the simulator.
//
// All simulation time is kept in integer microseconds (SimTime) so event
// ordering is exact and runs are bit-for-bit reproducible; floating point
// seconds are only used at the edges (reporting, rate arithmetic).
#pragma once

#include <cstdint>
#include <string>

namespace ckpt {

// Simulated time in microseconds since the start of the run.
using SimTime = std::int64_t;

// A span of simulated time, also in microseconds.
using SimDuration = std::int64_t;

// Data sizes in bytes.
using Bytes = std::int64_t;

// Bandwidth in bytes per second.
using Bandwidth = double;

inline constexpr SimDuration kMicrosecond = 1;
inline constexpr SimDuration kMillisecond = 1000;
inline constexpr SimDuration kSecond = 1000 * kMillisecond;
inline constexpr SimDuration kMinute = 60 * kSecond;
inline constexpr SimDuration kHour = 60 * kMinute;
inline constexpr SimDuration kDay = 24 * kHour;

inline constexpr Bytes kKiB = 1024;
inline constexpr Bytes kMiB = 1024 * kKiB;
inline constexpr Bytes kGiB = 1024 * kMiB;

constexpr SimDuration Seconds(double s) {
  return static_cast<SimDuration>(s * static_cast<double>(kSecond));
}
constexpr SimDuration Millis(double ms) {
  return static_cast<SimDuration>(ms * static_cast<double>(kMillisecond));
}
constexpr SimDuration Minutes(double m) {
  return static_cast<SimDuration>(m * static_cast<double>(kMinute));
}
constexpr SimDuration Hours(double h) {
  return static_cast<SimDuration>(h * static_cast<double>(kHour));
}

constexpr double ToSeconds(SimDuration d) {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}
constexpr double ToMinutes(SimDuration d) {
  return static_cast<double>(d) / static_cast<double>(kMinute);
}
constexpr double ToHours(SimDuration d) {
  return static_cast<double>(d) / static_cast<double>(kHour);
}

constexpr Bytes MiB(double m) {
  return static_cast<Bytes>(m * static_cast<double>(kMiB));
}
constexpr Bytes GiB(double g) {
  return static_cast<Bytes>(g * static_cast<double>(kGiB));
}
constexpr double ToGiB(Bytes b) {
  return static_cast<double>(b) / static_cast<double>(kGiB);
}
constexpr double ToMiB(Bytes b) {
  return static_cast<double>(b) / static_cast<double>(kMiB);
}

// Bandwidth helpers: the paper quotes device speeds in MB/s and GB/s
// (decimal), so these use powers of ten.
constexpr Bandwidth MBps(double mb) { return mb * 1e6; }
constexpr Bandwidth GBps(double gb) { return gb * 1e9; }

// Time for `size` bytes at `bw` bytes/sec, rounded up to a whole
// microsecond so transfers never take zero time.
SimDuration TransferTime(Bytes size, Bandwidth bw);

// Human-readable formatting for logs and reports.
std::string FormatDuration(SimDuration d);
std::string FormatBytes(Bytes b);

}  // namespace ckpt
