#pragma once
// Execution-backend selection: one struct threaded from the parameter deck
// (`Threads = 8`, `Executor = threadpool`) or `run_deck --threads N` through
// SimulationConfig to the LevelExecutor factory, replacing the old
// env-var-only OMP_NUM_THREADS control.

#include <string>

namespace enzo::exec {

enum class Backend {
  kSerial,      ///< today's ordering, inline on the calling thread
  kThreadPool,  ///< persistent work-stealing pool, per-grid tasks
};

struct ExecConfig {
  Backend backend = Backend::kSerial;
  /// Total execution lanes (workers + participating caller); 0 means all
  /// hardware threads.
  int threads = 0;
};

/// "serial" | "threadpool" (case-sensitive, like deck keys).  Throws
/// enzo::Error on anything else.
Backend backend_from_string(const std::string& s);
const char* backend_name(Backend b);

}  // namespace enzo::exec
