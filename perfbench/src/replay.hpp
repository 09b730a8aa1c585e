#pragma once
// Traced replay of Simulation::advance_root_step.
//
// The replay advances root steps from outside the program: it calls each
// module's public functions in the order Simulation::evolve_level calls them
// (boundary fill, timestep, gravity, grid steps, flux correction and
// projection, particle redistribution, rebuild) and wraps every call in a
// span.  Executor work is routed through a tracing LevelExecutor, so every
// task records its name, level, lane, start, end and parent span.  The
// replay must leave the simulation byte-identical to advance_root_step; the
// caller checks that against an untraced run.

#include <map>
#include <string>

#include "core/simulation.hpp"

namespace perfbench {

/// Per-layer metrics of one traced replay, by metric name.
struct LayerReport {
  std::map<std::string, double> metrics;
  /// Wall time of the traced root steps.
  double traced_wall_s = 0.0;
  /// Layer self seconds plus core.unattributed_s.  core.unattributed_s is
  /// measured on its own, as the time inside root spans that no layer call
  /// covers, so this equals traced_wall_s only when the layer calls are
  /// disjoint and each lies inside a root step.
  double accounted_s = 0.0;
  /// Whether the driver lane's spans nest as the attribution assumes: root
  /// spans disjoint, layer calls disjoint and each inside a root span.
  bool spans_ok = true;
  std::string spans_why;
  std::size_t spans = 0;
};

/// Advance `sim` by `steps` root steps exactly as advance_root_step would,
/// timing every layer call.  Registry counter deltas are read around the
/// replay, so the caller must not run other simulations concurrently.
LayerReport traced_replay(enzo::core::Simulation& sim, int steps);

}  // namespace perfbench
