#include "common/logging.h"

#include <cctype>
#include <cstring>

namespace ckpt {

namespace {
// Thread-local: parallel sweeps run one Simulator per worker thread, and
// each registers its own clock without synchronization.
thread_local std::function<std::int64_t()> g_clock;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

bool NameEquals(const char* value, const char* name) {
  for (; *value != '\0' && *name != '\0'; ++value, ++name) {
    if (std::tolower(static_cast<unsigned char>(*value)) != *name) return false;
  }
  return *value == '\0' && *name == '\0';
}

bool ParseLogLevel(const char* value, LogLevel* out) {
  if (value == nullptr || *value == '\0') return false;
  if (NameEquals(value, "debug")) { *out = LogLevel::kDebug; return true; }
  if (NameEquals(value, "info")) { *out = LogLevel::kInfo; return true; }
  if (NameEquals(value, "warn") || NameEquals(value, "warning")) {
    *out = LogLevel::kWarn;
    return true;
  }
  if (NameEquals(value, "error")) { *out = LogLevel::kError; return true; }
  if (NameEquals(value, "off") || NameEquals(value, "none")) {
    *out = LogLevel::kOff;
    return true;
  }
  if (value[0] >= '0' && value[0] <= '4' && value[1] == '\0') {
    *out = static_cast<LogLevel>(value[0] - '0');
    return true;
  }
  return false;
}
}  // namespace

LogLevel GetLogLevel() {
  static const LogLevel level = [] {
    LogLevel parsed = LogLevel::kWarn;
    ParseLogLevel(std::getenv("CKPT_LOG_LEVEL"), &parsed);
    return parsed;
  }();
  return level;
}

void SetLogClock(std::function<std::int64_t()> now_usec) {
  g_clock = std::move(now_usec);
}
void ClearLogClock() { g_clock = nullptr; }

void LogMessage(LogLevel level, const char* file, int line,
                const std::string& msg) {
  if (level < GetLogLevel()) return;
  if (g_clock) {
    const std::int64_t usec = g_clock();
    std::fprintf(stderr, "[%10.6fs] [%s] %s:%d: %s\n",
                 static_cast<double>(usec) / 1e6, LevelName(level), file, line,
                 msg.c_str());
    return;
  }
  std::fprintf(stderr, "[%s] %s:%d: %s\n", LevelName(level), file, line,
               msg.c_str());
}

namespace internal {

void CheckFailed(const char* file, int line, const char* expr,
                 const std::string& msg) {
  std::fprintf(stderr, "CHECK failed at %s:%d: %s %s\n", file, line, expr,
               msg.c_str());
  std::abort();
}

}  // namespace internal
}  // namespace ckpt
