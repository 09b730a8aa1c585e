#pragma once
// Collisionless dark matter on the adaptive hierarchy (§3.3).
//
// "The dark matter is pressureless and collisionless, only interacting via
// gravity ... we solve for the individual trajectories of a representative
// sample of particles ... using particle-mesh techniques specially tailored
// to adaptive mesh hierarchies."
//
// Each particle is owned by the finest grid containing it (mesh::Grid keeps
// the storage; rebuild migrates them).  Per grid timestep the particles are
// cloud-in-cell (CIC) deposited into the grid's gravitating mass, kicked
// with the CIC-interpolated acceleration (plus Hubble drag), and drifted
// with dx/dt = v/a.  Positions are extended precision (§3.5: "absolute
// position" quantities), so CIC cell location stays exact at depth.

#include "cosmology/units.hpp"
#include "mesh/hierarchy.hpp"

namespace enzo::nbody {

/// CIC-deposit the grid's own particles into its gravitating_mass (the
/// one-ghost layer absorbs edge clouds; for domain-covering periodic grids
/// the ghost contributions are wrapped back into the active region).
void deposit_particles_cic(mesh::Grid& g);

/// Kick: v ← v·decay(ȧ/a, dt) + g_cic·dt using the grid's acceleration
/// fields (clamped CIC at grid edges).
void kick_particles(mesh::Grid& g, double dt, double adot_over_a);

/// Drift: x ← x + v·dt/a (extended-precision accumulate), wrapped
/// periodically into [0,1).
void drift_particles(mesh::Grid& g, double dt, double a);

/// Courant-like constraint: particles must not cross more than cfl cells.
double particle_timestep(const mesh::Grid& g, double a, double cfl = 0.4);

/// Re-home particles that drifted off their owning grid: each goes to the
/// finest grid containing its position.  Call after drifting a level.
void redistribute_particles(mesh::Hierarchy& h);

/// Total particle count / mass over the whole hierarchy (diagnostics).
std::size_t total_particles(const mesh::Hierarchy& h);
double total_particle_mass(const mesh::Hierarchy& h);

/// Lay down an n³ lattice of equal-mass particles with Zel'dovich
/// displacements ψ and velocity factor vfac (cosmology::zeldovich_velocity_
/// factor), total mass = omega_dm_fraction (code units).  Appends to the
/// root grid (redistribute afterwards if refined levels exist).
void create_lattice_particles(mesh::Grid& root, int n,
                              const std::array<util::Buffer3, 3>& psi,
                              double growth, double vfac, double total_mass);

}  // namespace enzo::nbody
