#pragma once
// Execution-backend selection: one struct threaded from the parameter deck
// (`Threads = 8`) or `run_deck --threads N` through SimulationConfig to the
// LevelExecutor factory.  The lane count picks the backend: 1 runs
// serially, any other count (0 = all cores) on the thread pool.

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

}  // namespace enzo::exec
