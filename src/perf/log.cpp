#include "perf/log.hpp"

#include <cstdlib>
#include <vector>

namespace enzo::perf {

const char* log_level_name(LogLevel lvl) {
  switch (lvl) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "info";
}

LogLevel log_level_from(const std::string& name) {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "warn" || name == "warning") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  if (name == "off" || name == "none") return LogLevel::kOff;
  return LogLevel::kInfo;
}

void StructuredLog::set_min_level(LogLevel lvl) {
  std::lock_guard<std::mutex> lock(mu_);
  min_ = lvl;
}

LogLevel StructuredLog::min_level() const {
  std::lock_guard<std::mutex> lock(mu_);
  return min_;
}

void StructuredLog::set_stream(std::FILE* f) {
  std::lock_guard<std::mutex> lock(mu_);
  out_ = f;
}

void StructuredLog::log(LogLevel lvl, const std::string& component,
                        const std::string& message) {
  if (!enabled(lvl)) return;
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* out = out_ != nullptr ? out_ : stderr;
  std::fprintf(out, "[%s] %s: %s\n", log_level_name(lvl), component.c_str(),
               message.c_str());
  std::fflush(out);
}

void StructuredLog::logf(LogLevel lvl, const char* component, const char* fmt,
                         ...) {
  if (!enabled(lvl)) return;
  std::va_list ap;
  va_start(ap, fmt);
  std::va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::vector<char> buf(static_cast<std::size_t>(n > 0 ? n : 0) + 1);
  std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
  va_end(ap2);
  log(lvl, component, buf.data());
}

StructuredLog& StructuredLog::global() {
  static StructuredLog* instance = [] {
    auto* log = new StructuredLog();
    if (const char* lvl = std::getenv("ENZO_LOG_LEVEL"))
      log->set_min_level(log_level_from(lvl));
    return log;
  }();
  return *instance;
}

}  // namespace enzo::perf
