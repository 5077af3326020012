// Minimal leveled logging plus invariant-checking macros.
//
// CHECK-style macros abort on violated invariants (programming errors);
// recoverable conditions are reported through return values, never logs.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>

namespace ckpt {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

// Global log threshold; messages below it are dropped. Defaults to kWarn so
// tests and benches stay quiet unless a caller opts in. The CKPT_LOG_LEVEL
// environment variable (debug|info|warn|error|off, or the numeric value)
// overrides the default; it is read once, the first time the level is
// consulted.
LogLevel GetLogLevel();

// Optional simulated-time source. When registered, log lines are prefixed
// with the clock's current value in seconds ("[  12.345678s]") so messages
// can be correlated with trace events. Owners must ClearLogClock before the
// clock's backing object is destroyed. The clock is thread-local: each
// sweep worker thread registers the clock of its own private Simulator.
void SetLogClock(std::function<std::int64_t()> now_usec);
void ClearLogClock();

void LogMessage(LogLevel level, const char* file, int line,
                const std::string& msg);

namespace internal {

class LogLine {
 public:
  LogLine(LogLevel level, const char* file, int line)
      : level_(level), file_(file), line_(line) {}
  ~LogLine() { LogMessage(level_, file_, line_, stream_.str()); }

  template <typename T>
  LogLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

[[noreturn]] void CheckFailed(const char* file, int line, const char* expr,
                              const std::string& msg);

class CheckLine {
 public:
  CheckLine(const char* file, int line, const char* expr)
      : file_(file), line_(line), expr_(expr) {}
  [[noreturn]] ~CheckLine() { CheckFailed(file_, line_, expr_, stream_.str()); }

  template <typename T>
  CheckLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  const char* file_;
  int line_;
  const char* expr_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace ckpt

#define CKPT_LOG(level)                                               \
  if (::ckpt::GetLogLevel() <= ::ckpt::LogLevel::level)               \
  ::ckpt::internal::LogLine(::ckpt::LogLevel::level, __FILE__, __LINE__)

#define LOG_DEBUG CKPT_LOG(kDebug)
#define LOG_INFO CKPT_LOG(kInfo)
#define LOG_WARN CKPT_LOG(kWarn)
#define LOG_ERROR CKPT_LOG(kError)

// Invariant check: aborts with a message when `cond` is false.
#define CKPT_CHECK(cond)                                          \
  if (cond) {                                                     \
  } else                                                          \
    ::ckpt::internal::CheckLine(__FILE__, __LINE__, #cond)

#define CKPT_CHECK_GE(a, b) CKPT_CHECK((a) >= (b)) << " (" << (a) << " vs " << (b) << ") "
#define CKPT_CHECK_GT(a, b) CKPT_CHECK((a) > (b)) << " (" << (a) << " vs " << (b) << ") "
#define CKPT_CHECK_LE(a, b) CKPT_CHECK((a) <= (b)) << " (" << (a) << " vs " << (b) << ") "
#define CKPT_CHECK_LT(a, b) CKPT_CHECK((a) < (b)) << " (" << (a) << " vs " << (b) << ") "
#define CKPT_CHECK_EQ(a, b) CKPT_CHECK((a) == (b)) << " (" << (a) << " vs " << (b) << ") "
#define CKPT_CHECK_NE(a, b) CKPT_CHECK((a) != (b)) << " (" << (a) << " vs " << (b) << ") "
