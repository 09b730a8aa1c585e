#pragma once
// Self-gravity on the hierarchy (§3.3).
//
// "On the root grid, this is done with an FFT which naturally provides the
// periodic boundary conditions required.  On subgrids, we interpolate the
// gravitational potential field and then solve the Poisson equation using a
// traditional multi-grid relaxation technique.  In order to produce a
// solution that is consistent across the boundaries of sibling grids, we use
// an iterative method: first solving each grid separately, exchanging
// boundary conditions, and then solving again."
//
// Equation solved (comoving code units; see cosmology/units.hpp):
//     ∇²_x φ = (G_code / a) (ρ_gm − ρ̄)
// where ρ_gm is each grid's gravitating mass (gas + deposited dark matter)
// and ρ̄ the global mean.  The acceleration entering the momentum equation
// is g = −(1/a) ∇_x φ.

#include "mesh/hierarchy.hpp"

namespace enzo::exec {
class LevelExecutor;
}

namespace enzo::gravity {

struct GravityParams {
  double grav_const_code = 1.0;  ///< "4πG" in code units
  double mean_density = 1.0;     ///< ρ̄ in code units (1 for cosmology)
  int mg_max_vcycles = 25;
  double mg_tolerance = 1e-9;    ///< relative residual target
  int mg_pre_smooth = 3;
  int mg_post_smooth = 3;
  int sibling_iterations = 2;    ///< exchange-and-resolve passes per level
};

/// Fill every grid's gravitating_mass with its gas density, add the grid's
/// own CIC-deposited particles (done by the caller through nbody), then
/// propagate fine-level mass down so each coarse grid sees the full matter
/// distribution under its children.  Call after nbody deposition.
/// `ex` (optional, here and below) runs the per-grid work as executor
/// phases; children sharing a parent are grouped onto one task.
void restrict_gravitating_mass(mesh::Hierarchy& h,
                               exec::LevelExecutor* ex = nullptr);

/// Copy the gas density into gravitating_mass (active cells) for every grid
/// on the level, zeroing the ghost layer (particles are added afterwards).
void begin_gravitating_mass(mesh::Hierarchy& h, int level,
                            exec::LevelExecutor* ex = nullptr);

/// Solve on the (periodic) root level via FFT; root may be tiled.
void solve_root_gravity(mesh::Hierarchy& h, const GravityParams& p, double a);

/// Solve on a refined level: potential and Dirichlet ghost shell
/// interpolated from the parent once per level solve (the child index read
/// unwrapped, so a ghost across the periodic edge reads the parent's own
/// ghost layer), multigrid V-cycles, sibling-exchange iteration.  The solve
/// and exchange passes are separate executor phases: a solve task touches
/// only its own potential/RHS, an exchange task writes only its own ghost
/// layer while reading sibling *interiors* (which no exchange task writes),
/// so both phases are order-independent.  A non-finite residual throws
/// enzo::Error naming the level, the grid box and the pass; a solve still
/// at or above mg_tolerance after mg_max_vcycles counts in the exact
/// counter `gravity.mg_unconverged`.
void solve_subgrid_gravity(mesh::Hierarchy& h, int level,
                           const GravityParams& p, double a,
                           exec::LevelExecutor* ex = nullptr);

/// Cell-centered accelerations g = −(1/a)∇φ by central differences (the
/// potential ghost layer must be set, which both solvers guarantee).
void compute_accelerations(mesh::Grid& g, double a);

/// Multigrid building block, exposed for testing: solve ∇²φ = rhs on the
/// active region of `phi`, in place (views over distinct arrays with one
/// ghost layer holding fixed Dirichlet values, which the solve leaves
/// unchanged; rhs same shape, its ghost values do not reach the result)
/// with cell width dx.  Returns the final relative residual.
double multigrid_solve(mesh::FieldView phi, mesh::ConstFieldView rhs,
                       double dx, const GravityParams& p);

}  // namespace enzo::gravity
