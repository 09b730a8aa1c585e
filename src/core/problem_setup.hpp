#pragma once
// ProblemSetup: declarative initialization for a Simulation.
//
// A ProblemSetup lists a problem's set-up stages as hooks, and
// Simulation::initialize(setup) runs them in the one correct order:
//
//   1. configure hooks   — mutate SimulationConfig (units, physics toggles);
//                          the hierarchy is then re-derived from the result
//   2. root build (root_tiles³ grids)
//   3. declared static regions are registered
//   4. fill hooks        — write root fields/particles; may still register
//                          static regions and set config values that
//                          finalize reads (e.g. gravity.mean_density)
//   5. finalize          — snapshot old states, set times, initial rebuild
//   6. refine hooks      — post-finalize passes over the refined hierarchy
//                          (e.g. overwriting nested levels with finer
//                          realizations)
//
// The factories in setup.hpp (cosmological_setup(...) etc.) return
// ready-made ProblemSetups; callers extend them with further hooks, e.g.
// `uniform_setup(1.0, 1.0).fill(perturb)` runs perturb after the uniform fill.

#include <functional>
#include <utility>
#include <vector>

#include "core/config.hpp"

namespace enzo::core {

class Simulation;

class ProblemSetup {
 public:
  using ConfigHook = std::function<void(SimulationConfig&)>;
  using SimHook = std::function<void(Simulation&)>;

  /// Mutate the configuration before the hierarchy is built.
  ProblemSetup& configure(ConfigHook fn) {
    configure_.push_back(std::move(fn));
    return *this;
  }

  /// Tile the root level tiles³ (default: one root grid).
  ProblemSetup& root_tiles(int tiles) {
    tiles_ = tiles;
    return *this;
  }

  /// Pin a permanently refined region (registered before the fill hooks).
  ProblemSetup& static_region(int level, const mesh::IndexBox& box) {
    static_regions_.emplace_back(level, box);
    return *this;
  }

  /// Write initial fields/particles on the freshly built root level.
  ProblemSetup& fill(SimHook fn) {
    fill_.push_back(std::move(fn));
    return *this;
  }

  /// Post-finalize pass over the refined hierarchy.
  ProblemSetup& refine(SimHook fn) {
    refine_.push_back(std::move(fn));
    return *this;
  }

 private:
  friend class Simulation;
  std::vector<ConfigHook> configure_;
  int tiles_ = 1;
  std::vector<std::pair<int, mesh::IndexBox>> static_regions_;
  std::vector<SimHook> fill_;
  std::vector<SimHook> refine_;
};

}  // namespace enzo::core
