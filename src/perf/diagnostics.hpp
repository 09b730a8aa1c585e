#pragma once
// Per-step simulation diagnostics: one machine-readable JSONL record per
// root-level step.
//
// The paper's §4–§5 narrative tracks the run through redshift, timestep,
// per-level grid/cell populations, and the memory/flop churn of the rebuild
// cycle; DiagnosticsSink captures exactly that as one JSON object per line
// so post-processing needs no log scraping.  The driver fills a StepRecord
// after each root step (Simulation::advance_root_step) and write() appends
// it.  The schema is stable and round-trippable (see parse_json_line),
// which the perf tests and tools/check_trace verify.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace enzo::perf {

struct LevelStat {
  int level = 0;
  std::uint64_t grids = 0;
  std::uint64_t cells = 0;
};

/// Snapshot of the simulation after one root-level step.
struct StepRecord {
  std::int64_t step = 0;     ///< root steps taken so far
  double t = 0.0;            ///< code time after the step
  double dt = 0.0;           ///< the root timestep just taken
  std::string dt_limiter;    ///< which limiter set dt (hydro::dt_limiter_name)
  double a = 1.0;            ///< scale factor (1 for non-comoving)
  double z = 0.0;            ///< redshift (0 for non-comoving)
  std::vector<LevelStat> levels;        ///< grids/cells per level
  double mass_total = 0.0;              ///< root-level gas mass (code units)
  double mass_residual = 0.0;           ///< (mass - mass₀) / mass₀
  double energy_total = 0.0;            ///< root-level total gas energy
  double energy_residual = 0.0;         ///< (E - E₀) / |E₀|
  std::uint64_t peak_bytes = 0;         ///< `alloc.peak_bytes` (grid memory)
  std::uint64_t flops = 0;              ///< `flops.total`: cumulative estimate
  double wall_seconds = 0.0;            ///< wall time of this root step
};

/// Serialize one record as a single-line JSON object.
std::string step_record_json(const StepRecord& rec);

/// Parse a JSONL line produced by step_record_json; false on malformed
/// input or missing schema fields.
bool parse_step_record(const std::string& line, StepRecord* out);

/// Append-only JSONL writer.  Thread-compatible (the driver emits from the
/// root step loop only).
class DiagnosticsSink {
 public:
  explicit DiagnosticsSink(const std::string& path);
  ~DiagnosticsSink();
  DiagnosticsSink(const DiagnosticsSink&) = delete;
  DiagnosticsSink& operator=(const DiagnosticsSink&) = delete;

  bool ok() const { return f_ != nullptr; }
  const std::string& path() const { return path_; }
  std::int64_t records_written() const { return records_; }

  void write(const StepRecord& rec);

 private:
  std::string path_;
  std::FILE* f_ = nullptr;
  std::int64_t records_ = 0;
};

}  // namespace enzo::perf
