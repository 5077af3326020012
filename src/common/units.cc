#include "common/units.h"

#include <cmath>
#include <cstdio>

namespace ckpt {

SimDuration TransferTime(Bytes size, Bandwidth bw) {
  if (size <= 0) return 0;
  if (bw <= 0.0) return kDay * 365;  // effectively "never"; caller bug guard
  const double seconds = static_cast<double>(size) / bw;
  const double micros = std::ceil(seconds * 1e6);
  return static_cast<SimDuration>(micros);
}

std::string FormatDuration(SimDuration d) {
  char buf[64];
  const double s = ToSeconds(d);
  if (d < kMillisecond) {
    std::snprintf(buf, sizeof(buf), "%lldus", static_cast<long long>(d));
  } else if (d < kSecond) {
    std::snprintf(buf, sizeof(buf), "%.2fms", s * 1e3);
  } else if (d < kMinute) {
    std::snprintf(buf, sizeof(buf), "%.2fs", s);
  } else if (d < kHour) {
    std::snprintf(buf, sizeof(buf), "%.2fmin", s / 60.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fh", s / 3600.0);
  }
  return buf;
}

std::string FormatBytes(Bytes b) {
  char buf[64];
  if (b < kKiB) {
    std::snprintf(buf, sizeof(buf), "%lldB", static_cast<long long>(b));
  } else if (b < kMiB) {
    std::snprintf(buf, sizeof(buf), "%.1fKiB", static_cast<double>(b) / kKiB);
  } else if (b < kGiB) {
    std::snprintf(buf, sizeof(buf), "%.1fMiB", ToMiB(b));
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fGiB", ToGiB(b));
  }
  return buf;
}

}  // namespace ckpt
