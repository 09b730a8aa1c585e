#pragma once
// Hierarchical trace recorder: the timing half of the telemetry subsystem.
//
// RAII TraceScopes nest (e.g. evolve_level/L2/hydro/ppm_sweep_x) and
// accumulate, per unique path, call counts plus total and *self* wall time
// (elapsed minus time spent in direct child scopes).  Each scope carries a
// science-component attribution and an optional refinement level, so the
// recorder can answer both questions the paper's §5 tables pose —
// fraction-of-time per component, and time per (phase, level) — from one
// measurement pass.  Optionally every scope is also captured as a Chrome
// trace_event, exportable as JSON loadable in chrome://tracing / Perfetto.
//
// Thread-safety: scope entry/exit touches only a thread-local stack; the
// shared aggregation maps are mutex-protected on scope exit.  Scopes opened
// inside OpenMP regions nest under whatever scope their thread opened last
// (worker threads start a fresh root).

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace enzo::perf {

/// Canonical component names: the row keys of the paper-style table.
namespace component {
inline constexpr const char* kHydro = "hydrodynamics";
inline constexpr const char* kGravity = "Poisson solver";
inline constexpr const char* kChemistry = "chemistry & cooling";
inline constexpr const char* kNbody = "N-body";
inline constexpr const char* kRebuild = "hierarchy rebuild";
inline constexpr const char* kBoundary = "boundary conditions";
inline constexpr const char* kIo = "checkpoint I/O";
inline constexpr const char* kOther = "other overhead";
}  // namespace component

class TraceRecorder {
 public:
  TraceRecorder();

  /// Aggregated accounting for one unique scope path.
  struct Node {
    std::string path;       ///< slash-joined scope names, e.g. "a/b/c"
    std::string component;  ///< component attribution of the self time
    int level = -1;         ///< refinement level, -1 when not level-tagged
    std::uint64_t calls = 0;
    double total_seconds = 0.0;  ///< inclusive (children counted)
    double self_seconds = 0.0;   ///< exclusive (children subtracted)
  };

  /// Direct accumulation (used by TraceScope on exit).
  void accumulate(const std::string& path, const std::string& comp, int level,
                  double total_seconds, double self_seconds,
                  std::uint64_t calls = 1);

  std::vector<Node> nodes() const;
  /// Inclusive seconds of one exact path (0 when never entered).
  double path_seconds(const std::string& path) const;
  /// Calls of one exact path.
  std::uint64_t path_calls(const std::string& path) const;

  // ---- paper-style component table ----------------------------------------
  struct ComponentRow {
    std::string name;
    double seconds;   ///< summed self time attributed to the component
    double fraction;  ///< seconds / total of all components
  };
  /// Rows descending by time; fractions sum to 1 (± fp rounding) because
  /// they partition the self-time total exactly.
  std::vector<ComponentRow> component_table() const;
  double component_seconds(const std::string& comp) const;
  /// Sum of all self time == total instrumented wall time.
  double total_seconds() const;
  /// Render the "component | usage | seconds" table.
  std::string component_report() const;

  // ---- Chrome trace_event capture -----------------------------------------
  /// Event capture is off by default (aggregation alone is cheap enough to
  /// leave always-on); enable before the run when --trace-out is requested.
  void enable_events(bool on);
  bool events_enabled() const;
  /// Record one complete ("ph":"X") event; ts/dur in microseconds relative
  /// to the recorder epoch.  Drops (and counts) events beyond the cap.
  void record_event(const std::string& name, const std::string& path,
                    const std::string& comp, int level, double ts_us,
                    double dur_us);
  std::uint64_t events_recorded() const;
  std::uint64_t events_dropped() const;

  /// The trace_event JSON document (events sorted by ts so timestamps are
  /// monotonic, as the viewers expect).
  std::string chrome_trace_json() const;
  /// Write chrome_trace_json() to a file; false on I/O failure.
  bool write_chrome_trace(const std::string& file_path) const;

  /// Microseconds since the recorder epoch (steady clock).
  double now_us() const;

  void reset();

  /// Process-wide recorder used by all instrumentation.
  static TraceRecorder& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, Node> nodes_;
  struct Event {
    std::string name;
    std::string path;
    std::string component;
    int level;
    double ts_us;
    double dur_us;
    int tid;
  };
  std::vector<Event> events_;
  bool events_on_ = false;
  std::size_t max_events_ = 1u << 20;
  std::uint64_t dropped_ = 0;
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII scope.  `name` is one path segment (slashes allowed for pre-joined
/// names); `comp` attributes the scope's self time to a component table row
/// (nullptr inherits the enclosing scope's component, component::kOther at
/// the root); `level` tags the refinement level (-1 inherits).
class TraceScope {
 public:
  explicit TraceScope(std::string name, const char* comp = nullptr,
                      int level = -1,
                      TraceRecorder* rec = &TraceRecorder::global());
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceRecorder* rec_;
  std::string name_;
  std::string path_;
  std::string component_;
  int level_;
  double child_seconds_ = 0.0;
  TraceScope* parent_;  ///< enclosing scope on this thread
  std::chrono::steady_clock::time_point start_;
};

}  // namespace enzo::perf
