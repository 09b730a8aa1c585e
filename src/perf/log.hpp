#pragma once
// Structured, leveled logging replacing ad-hoc fprintf diagnostics.
//
// One line per event: "[level] component: message".  The global minimum
// level comes from ENZO_LOG_LEVEL (debug|info|warn|error|off; default info).
// Check `enabled()` before formatting expensive debug payloads.

#include <cstdarg>
#include <cstdio>
#include <mutex>
#include <string>

namespace enzo::perf {

enum class LogLevel { kDebug = 0, kInfo, kWarn, kError, kOff };

const char* log_level_name(LogLevel lvl);
/// Parse "debug"/"info"/"warn"/"error"/"off"; defaults to kInfo.
LogLevel log_level_from(const std::string& name);

class StructuredLog {
 public:
  void set_min_level(LogLevel lvl);
  LogLevel min_level() const;
  bool enabled(LogLevel lvl) const { return lvl >= min_level(); }

  /// Redirect output (default stderr); pass nullptr to restore stderr.
  void set_stream(std::FILE* f);

  void log(LogLevel lvl, const std::string& component,
           const std::string& message);
  void logf(LogLevel lvl, const char* component, const char* fmt, ...)
      __attribute__((format(printf, 4, 5)));

  /// Process-wide log, level initialized from the environment.
  static StructuredLog& global();

 private:
  mutable std::mutex mu_;
  LogLevel min_ = LogLevel::kInfo;
  std::FILE* out_ = nullptr;  ///< nullptr means stderr
};

}  // namespace enzo::perf
