#pragma once
// Hydrodynamics on one grid (§3.2.1).
//
// Two solvers, as in the paper: the piecewise parabolic method (PPM,
// Woodward & Colella 1984) adapted for comoving cosmological coordinates
// (Bryan et al. 1995), and a robust ZEUS-style finite-difference scheme
// (Stone & Norman 1992) as an independent cross-check ("This allows us a
// double check on any result").
//
// Formulation: comoving positions x, comoving density ρ_c = ρ a³, peculiar
// velocity v.  The flux-divergence terms acquire a 1/a factor — implemented
// by handing the solvers the *proper* cell width a·Δx — and the expansion
// contributes operator-split source terms: Hubble drag dv/dt = −(ȧ/a)v and
// adiabatic loss de/dt = −3(γ−1)(ȧ/a)e.  With a = 1, ȧ = 0 everything
// reduces to the standard Euler equations for the test problems.
//
// The dual energy formalism tracks specific internal energy alongside total
// energy so that pressure remains accurate in strongly kinetic flows
// (Mach >> 1 infall, exactly the §4 accretion regime).

#include "cosmology/units.hpp"
#include "mesh/grid.hpp"

namespace enzo::exec {
class LevelExecutor;
}

namespace enzo::hydro {

enum class Solver { kPpm, kZeus };

struct HydroParams {
  Solver solver = Solver::kPpm;
  double gamma = 5.0 / 3.0;
  double cfl = 0.4;
  /// Dual-energy selection: use (E − v²/2) when it exceeds eta1 × E.
  double dual_energy_eta1 = 1e-3;
  double density_floor = 1e-30;
  double pressure_floor = 1e-30;
  /// PPM shock flattening on/off.
  bool flattening = true;
  /// ZEUS quadratic artificial viscosity coefficient (in cells).
  double zeus_viscosity = 2.0;
  /// Maximum fractional expansion per step: dt ≤ max_expansion / (ȧ/a).
  double max_expansion = 0.02;
};

/// Ghost cells per side a solver's sweep stencil reads: PPM 3 (its
/// parabolas on the two cells of an active face read two cells further
/// out), ZEUS 2.
int min_ghost_zones(Solver s);

/// Throws enzo::Error naming GhostZones, the solver and its minimum when
/// nghost is below min_ghost_zones(s).
void require_ghost_zones(int nghost, Solver s);

/// Which constraint set a timestep — recorded in the per-step diagnostics
/// (the driver adds the non-hydro limiters: particles, stop time, and the
/// catch-up clamp onto the parent's window).
enum class DtLimiter {
  kNone,
  kCfl,           ///< sound-crossing / bulk-velocity CFL condition
  kExpansion,     ///< max fractional expansion per step
  kAcceleration,  ///< gravitational free-fall across a cell
  kParticle,      ///< N-body particle CFL
  kStopTime,      ///< clamped to land on the requested stop time
  kParentWindow,  ///< clamped to land on the parent level's time
};
const char* dt_limiter_name(DtLimiter lim);

struct TimestepInfo {
  double dt = 0.0;
  DtLimiter limiter = DtLimiter::kNone;
};

/// CFL-limited timestep for this grid (code time units), including the
/// expansion and acceleration constraints, with the binding limiter
/// identified.  Uses ghost-free active cells.
TimestepInfo compute_timestep_info(const mesh::Grid& g,
                                   const HydroParams& params,
                                   const cosmology::Expansion& exp);

inline double compute_timestep(const mesh::Grid& g, const HydroParams& params,
                               const cosmology::Expansion& exp) {
  return compute_timestep_info(g, params, exp).dt;
}

/// Advance the grid's baryon fields by dt: directional sweeps (recording
/// time-integrated conserved face fluxes into the grid's flux registers),
/// then expansion sources, then dual-energy synchronization and floors.
/// Ghost zones must be current (SetBoundaryValues).  Afterwards only the
/// active cells are meaningful: the sweeps skip the pencils whose output
/// nothing reads, so ghost cells hold partial sweep output until the next
/// boundary fill.  The flux registers cover active faces only.  Gravity
/// sources are applied separately by apply_gravity_sources after the
/// gravity solve.
/// `ex` (optional) chunks the independent pencil batches via the executor's
/// nested parallel_for; nullptr runs them inline.  Throws if the grid has
/// fewer ghost cells than the solver's stencil reads (min_ghost_zones).
void solve_hydro_step(mesh::Grid& g, double dt, const HydroParams& params,
                      const cosmology::Expansion& exp,
                      exec::LevelExecutor* ex = nullptr);

/// Kick velocities with the grid's acceleration field and re-sync total
/// energy; call after the Poisson solve each step.
void apply_gravity_sources(mesh::Grid& g, double dt,
                           const HydroParams& params);

}  // namespace enzo::hydro
