// Flag parsing shared by the command-line drivers (ckpt-sim, yarn-sim):
// `--name=value` matching and whole-string number parsing, so a malformed
// or out-of-range value is rejected up front instead of running a
// nonsense cell or tripping a check deep inside the simulator.
#pragma once

#include <charconv>
#include <cmath>
#include <cstring>
#include <string>
#include <system_error>

namespace ckpt {

// True when `arg` is `name=VALUE`; stores VALUE in `out`.
inline bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

// Whole-string number parse: no sign for unsigned types, no trailing text,
// no overflow.
template <typename T>
bool ParseNumber(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

inline bool ParsePositiveInt(const std::string& text, int* out) {
  return ParseNumber(text, out) && *out > 0;
}

// ParseNumber for a real value that must also be finite (from_chars reads
// "inf" and "nan").
inline bool ParseFinite(const std::string& text, double* out) {
  return ParseNumber(text, out) && std::isfinite(*out);
}

}  // namespace ckpt
