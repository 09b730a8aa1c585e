#pragma once
// Shared driver for the figure-reproduction benches: the scaled first-star
// collapse run (DESIGN.md substitution table) with configurable depth.

#include "analysis/analysis.hpp"
#include "core/setup.hpp"
#include "core/simulation.hpp"
#include "nbody/nbody.hpp"
#include "util/constants.hpp"

namespace enzo::bench {

struct CollapseRun {
  core::SimulationConfig cfg;
  core::CollapseSetupOptions opt;
};

inline CollapseRun collapse_run_config(int root_n, int max_level,
                                       bool chemistry,
                                       bool with_dark_matter = false) {
  CollapseRun r;
  r.cfg.hierarchy.root_dims = {root_n, root_n, root_n};
  r.cfg.hierarchy.max_level = max_level;
  if (chemistry) r.cfg.hierarchy.fields = mesh::chemistry_field_list();
  r.cfg.refinement.baryon_mass_threshold =
      4.0 / (static_cast<double>(root_n) * root_n * root_n);
  r.cfg.refinement.jeans_number = 4.0;
  r.cfg.enable_chemistry = chemistry;
  r.cfg.enable_particles = with_dark_matter;

  r.opt.chemistry = chemistry;
  r.opt.box_proper_cm = 4.0 * constants::kParsec;
  r.opt.mean_density_cgs = 1e-19;  // background n ≈ 6×10⁴ cm⁻³
  r.opt.overdensity = 10.0;
  r.opt.cloud_radius = 0.25;
  r.opt.temperature = 300.0;
  r.opt.h2_fraction = 5e-4;
  return r;
}

/// The CollapseRun's options as a composable ProblemSetup: benches run
/// `sim.initialize(collapse_setup(run))`, appending extra hooks first when
/// a variant needs them.
inline core::ProblemSetup collapse_setup(const CollapseRun& r) {
  return core::collapse_cloud_setup(r.opt);
}

/// Add a coarse dark-matter halo (static uniform-lattice particles carrying
/// an extra potential like the §4 minihalo) for the component-timing table.
inline void add_dark_matter(core::Simulation& sim, int n_per_axis,
                            double total_mass) {
  std::array<util::Buffer3, 3> psi;
  for (auto& a : psi) a.resize(n_per_axis, n_per_axis, n_per_axis, 0.0);
  nbody::create_lattice_particles(*sim.hierarchy().grids(0)[0], n_per_axis,
                                  psi, 0.0, 0.0, total_mass);
  nbody::redistribute_particles(sim.hierarchy());
}

}  // namespace enzo::bench
