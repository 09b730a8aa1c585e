#pragma once
// Execution-backend selection: one struct threaded from the parameter deck
// (`Threads = 8`) or `run_deck --threads N` through SimulationConfig to the
// LevelExecutor factory.  The lane count picks the backend (for_lanes).

namespace enzo::exec {

enum class Backend {
  kSerial,      ///< today's ordering, inline on the calling thread
  kThreadPool,  ///< persistent fork-join pool, per-grid tasks
};

struct ExecConfig {
  Backend backend = Backend::kSerial;
  /// Total execution lanes (workers + participating caller); 0 means all
  /// hardware threads.
  int threads = 1;

  /// The config for a lane count: one lane runs serially, any other count
  /// (0 = all cores) on the thread pool.
  static constexpr ExecConfig for_lanes(int threads) {
    return {threads == 1 ? Backend::kSerial : Backend::kThreadPool, threads};
  }
};

}  // namespace enzo::exec
