#pragma once
// The Enzo-style driver (§3.2): the recursive EvolveLevel routine.
//
//   EvolveLevel(level, ParentTime):
//     SetBoundaryValues(all grids)
//     while (Time < ParentTime):
//       dt = ComputeTimeStep(all grids)
//       SolveHydroEquations(all grids, dt)      [+ gravity, chemistry, N-body]
//       Time += dt
//       SetBoundaryValues(all grids)
//       EvolveLevel(level+1, Time)
//       FluxCorrection
//       Projection
//       RebuildHierarchy(level+1)
//
// producing the multigrid-W-cycle ordering of timesteps (Fig. 2).  Times are
// extended precision so a child level always lands on its parent's time
// exactly, no matter how deep the hierarchy (§3.5).

#include <functional>
#include <memory>
#include <vector>

#include "analysis/auditor.hpp"
#include "core/config.hpp"
#include "core/problem_setup.hpp"
#include "exec/executor.hpp"
#include "ext/position.hpp"
#include "perf/diagnostics.hpp"

namespace enzo::core {

class Simulation {
 public:
  explicit Simulation(SimulationConfig cfg);

  SimulationConfig& config() { return cfg_; }
  const SimulationConfig& config() const { return cfg_; }
  mesh::Hierarchy& hierarchy() { return hierarchy_; }
  const mesh::Hierarchy& hierarchy() const { return hierarchy_; }

  /// Run a declarative problem setup end to end: configure hooks, root
  /// build, static regions, fill hooks, finalize, refine hooks — in that
  /// order (see problem_setup.hpp).  This is the one way to build a run.
  void initialize(const ProblemSetup& setup);

  /// Pin a region (box in that level's index space) as permanently refined —
  /// the §4 "additional levels of static meshes" for nested initial
  /// conditions.
  void add_static_region(int level, const mesh::IndexBox& box);
  const std::vector<std::pair<int, mesh::IndexBox>>& static_regions() const {
    return static_regions_;
  }

  /// Restart path: run only a setup's *configure* hooks (units, physics
  /// toggles, field list) and re-derive the still-empty hierarchy from the
  /// result.  The state itself — root build, fills, static regions — then
  /// comes from io::read_checkpoint instead of the setup's fill hooks.
  void configure_for_restart(const ProblemSetup& setup);

  /// Advance by exactly one root-grid timestep (the whole W-cycle beneath).
  double advance_root_step();

  /// Advance until code time t_stop (or max_steps root steps).
  void evolve_until(double t_stop, int max_steps = 1 << 20);

  // ---- state ---------------------------------------------------------------
  ext::pos_t time() const { return time_; }
  double time_d() const { return ext::pos_to_double(time_); }
  double scale_factor() const { return a_; }
  double redshift() const { return 1.0 / a_ - 1.0; }
  long root_steps_taken() const { return root_steps_; }

  /// Everything beyond the hierarchy that a checkpoint must persist for a
  /// restarted run to continue the uninterrupted one bit-for-bit: the clock,
  /// the root/per-level step counters (step numbering and rebuild cadence),
  /// and the diagnostics/audit conservation baselines (residuals stay
  /// relative to the original run's t=0 state, not the restart point).
  struct ClockState {
    ext::pos_t time{0.0};
    long root_steps = 0;
    std::vector<long> level_steps;
    std::vector<std::pair<int, mesh::IndexBox>> static_regions;
    bool diag_baseline_set = false;
    double diag_mass0 = 0.0;
    double diag_energy0 = 0.0;
    bool audit_baseline_set = false;
    double audit_mass0 = 0.0;
    double audit_energy0 = 0.0;
  };
  ClockState clock_state() const;
  /// Checkpoint-restore counterpart of clock_state; also re-derives the
  /// scale factor.  Attach a diagnostics sink *before* restoring:
  /// set_diagnostics_sink resets the baselines this call reinstates.
  void restore_clock_state(const ClockState& s);

  /// Invoked after each completed root step (diagnostics record written and
  /// audit run, if configured).  run_deck's periodic auto-checkpointing
  /// hangs off this; pass nullptr to detach.
  using PostStepHook = std::function<void(Simulation&)>;
  void set_post_step_hook(PostStepHook hook) {
    post_step_hook_ = std::move(hook);
  }

  /// Expansion state at a given code time.
  cosmology::Expansion expansion_at(double t_code) const;
  /// Chemistry unit conversions at the current scale factor.
  chemistry::ChemUnits chem_units() const;

  /// Fig. 2 trace: the order in which (level, t → t+dt) steps were taken.
  struct WcycleEvent {
    int level;
    double t0;
    double dt;
  };
  const std::vector<WcycleEvent>& trace() const { return trace_; }

  /// The refinement-criteria flagger (exposed for tests/benches).
  mesh::Hierarchy::FlagFn flagger();

  // ---- execution -----------------------------------------------------------
  /// The level-execution engine used for every per-level grid sweep
  /// (boundary fill, timestep reduction, gravity, step_grids, flux
  /// projection).  Built lazily from config().exec and rebuilt when the
  /// backend or thread count changes between steps.
  exec::LevelExecutor& executor();
  /// Scheduling cost estimate for a grid: cell count, inflated by the
  /// metrics-registry chemistry subcycle rate when chemistry is enabled and
  /// by particle count when particles are enabled.  Seeds the work-stealing
  /// queues so expensive grids are picked up first.
  std::uint64_t grid_cost(const mesh::Grid& g) const;

  // ---- telemetry -----------------------------------------------------------
  /// Attach a per-step JSONL diagnostics sink (non-owning; pass nullptr to
  /// detach).  One StepRecord is written after every root-level step; the
  /// mass/energy conservation baselines reset when a sink is attached.
  void set_diagnostics_sink(perf::DiagnosticsSink* sink);
  /// The limiter that set the most recent root-level timestep.
  hydro::DtLimiter root_dt_limiter() const { return root_dt_limiter_; }
  /// Assemble the diagnostics record for the current state (exposed for
  /// tests; advance_root_step calls this when a sink is attached).
  perf::StepRecord make_step_record(double dt, hydro::DtLimiter limiter,
                                    double wall_seconds);

  // ---- invariant auditing ---------------------------------------------------
  /// When SimulationConfig::audit_invariants is set, advance_root_step
  /// refreshes boundary values and runs the AMR invariant auditor after
  /// every audit_interval-th root step.  Conservation baselines are taken
  /// from the first audited step.
  const analysis::AuditReport& last_audit() const { return last_audit_; }
  long audits_run() const { return audits_run_; }
  std::uint64_t audit_violations_total() const {
    return audit_violations_total_;
  }
  /// Run one audit now (also used internally); returns the report.
  const analysis::AuditReport& run_audit();

 private:
  /// Re-derive the (still-empty) hierarchy from the current config — needed
  /// when a setup's configure hooks adjusted hierarchy parameters after
  /// construction (initialize and configure_for_restart go through this).
  void sync_hierarchy_params();
  void evolve_level(int level, ext::pos_t parent_time);
  void step_root(double dt);
  /// step_root landing on an exact extended-precision target time (the
  /// final evolve_until step: every resolution ends at bit-identical
  /// dd(t_stop)); dt is the double-precision step for diagnostics.
  void step_root_to(ext::pos_t target, double dt);
  double compute_level_timestep(int level);
  void solve_gravity_level(int level);
  void step_grids(int level, double dt, const cosmology::Expansion& exp);
  void update_scale_factor();

  SimulationConfig cfg_;
  mesh::Hierarchy hierarchy_;
  std::unique_ptr<exec::LevelExecutor> exec_;
  exec::ExecConfig exec_built_;  ///< config exec_ was built from
  cosmology::Frw frw_;
  ext::pos_t time_{0.0};
  double a_ = 1.0;
  long root_steps_ = 0;
  std::vector<std::pair<int, mesh::IndexBox>> static_regions_;
  std::vector<long> level_steps_;  ///< per-level step counters (rebuild cadence)
  std::vector<WcycleEvent> trace_;
  perf::DiagnosticsSink* diag_sink_ = nullptr;
  PostStepHook post_step_hook_;
  hydro::DtLimiter root_dt_limiter_ = hydro::DtLimiter::kNone;
  bool diag_baseline_set_ = false;
  double diag_mass0_ = 0.0;
  double diag_energy0_ = 0.0;
  analysis::AuditReport last_audit_;
  long audits_run_ = 0;
  std::uint64_t audit_violations_total_ = 0;
  bool audit_baseline_set_ = false;
  double audit_mass0_ = 0.0;
  double audit_energy0_ = 0.0;
};

}  // namespace enzo::core
