#pragma once
// Wall-clock stopwatch for benches, telemetry and I/O accounting.  Phase and
// component timing goes through perf::TraceRecorder (perf/trace.hpp).

#include <chrono>

namespace enzo::util {

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_).count();
  }
  void restart() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace enzo::util
