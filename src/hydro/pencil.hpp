#pragma once
// Internal sweep layer shared by the PPM and ZEUS solvers.
//
// Dimensional splitting: each sweep axis d is swept as 1-d pencils (lines of
// cells along d) of primitive variables (ρ, normal velocity u, transverse
// velocities, energies, pressure, passive-scalar mass fractions).  Pencils
// are swept kBatch = 8 at a time.  The pencils of a batch are neighbours
// along the batch axis, the fastest transverse axis the level does not
// collapse: x for the y and z sweeps, so that each cell row of a batch is
// one contiguous 8-wide row copy, and y for the x sweep, where the gather is
// a transpose of 8 contiguous x-lines.  The batch stores its lanes
// cell-major, element i*kBatch + b holding cell i of pencil b, so a stencil
// neighbour is ±kBatch elements away and every kernel loop runs whole
// vectors over all 8 pencils with no remainder.  The kernels fill face-flux
// lanes (face i = lower face of cell i); the driver applies the conservative
// update, scatters the batch back and adds the fluxes to the registers.
//
// A batch at the end of a row holds fewer than 8 real pencils.  Its spare
// lanes copy the last real pencil: they compute exactly what that pencil
// computes (so no lane sees undefined input, and the Riemann rows stop no
// later than its real faces do) and are never written back or counted.
// Each cell, face and register entry keeps the operation sequence the
// one-pencil kernels had, so a batch is bit for bit those kernels
// (tests/hydro_test.cpp keeps them as the oracle).
//
// Storage is one arena block (util::Arena::scratch, 64-byte aligned); every
// lane is a whole number of 8-double rows, so each starts on a cache line.
// reset() zero-fills the block only when its size changes: every lane slot
// a sweep reads is written earlier in the same batch, so a recycled batch
// computes exactly what a fresh one would at any executor chunking.

#include <cstddef>
#include <cstdint>

#include "hydro/hydro.hpp"
#include "hydro/riemann.hpp"
#include "util/array3.hpp"

namespace enzo::hydro {

/// What one call of sweep_all_axes did.
struct SweepCounts {
  std::uint64_t pencil_cells = 0;    ///< cells gathered, pad lanes excluded
  std::uint64_t riemann_sweeps = 0;  ///< Newton sweeps, summed over faces
};

/// The directional sweeps of solve_hydro_step (after the ZEUS source step,
/// before the expansion sources): pencil batches are gathered, swept,
/// updated and scattered back axis by axis, and the active pencils add their
/// time-integrated face fluxes to the grid's active-face flux registers
/// (which must be allocated: reset_fluxes / reset_boundary_fluxes).  Only
/// live pencils run — those whose output an active cell or a register
/// depends on; a ghost row is swept only if a later sweep reads it before a
/// rewrap could replace it.  Throws if a swept axis has fewer ghost cells
/// than the solver's stencil reads (min_ghost_zones).
SweepCounts sweep_all_axes(mesh::Grid& g, double dt, const HydroParams& hp,
                           const cosmology::Expansion& exp,
                           exec::LevelExecutor* ex);

/// SoA lanes of one batch of kBatch pencils.
struct PencilBatch {
  int n = 0;      ///< total cells including ghosts along the sweep axis
  int ng = 0;     ///< ghost cells on each end
  int nscal = 0;  ///< passive scalar count

  // Cell lanes, n rows.  `scal(s)` holds the mass fraction used for
  // reconstruction, `scal_mass(s)` the raw species field value the
  // conservative update advances.
  double *rho = nullptr, *u = nullptr, *vt1 = nullptr, *vt2 = nullptr;
  double *etot = nullptr, *eint = nullptr, *p = nullptr;

  // Face lanes, n+1 rows (only faces [ng, n-ng] are filled).
  double* ustar = nullptr;  ///< face normal velocity from the Riemann solve
  double *f_rho = nullptr, *f_mu = nullptr, *f_mvt1 = nullptr,
         *f_mvt2 = nullptr, *f_etot = nullptr, *f_eint = nullptr;

  PencilBatch();

  [[nodiscard]] double* scal(int s) const {
    return scal0_ + static_cast<std::ptrdiff_t>(s) * cs_;
  }
  [[nodiscard]] double* scal_mass(int s) const {
    return smass0_ + static_cast<std::ptrdiff_t>(s) * cs_;
  }
  /// Flux lane q in register order: ρ, normal momentum, the two transverse
  /// momenta, E, e (f_rho .. f_eint), then scalar s at q = 6 + s.
  [[nodiscard]] double* flux(int q) const {
    return f_rho + static_cast<std::ptrdiff_t>(q) * fs_;
  }
  [[nodiscard]] double* f_scal(int s) const { return flux(6 + s); }

  /// Shape the workspace, zero-filling it only when its size changes.  The
  /// block is reused while its size class still matches and released back
  /// to the arena when the shape shrinks across size classes (so a deck
  /// with many scalars followed by one with none does not pin the larger
  /// block in thread-local scratch for the rest of the process).  Throws
  /// for a degenerate active extent (n_cells - 2*nghost < 1): minimum-size
  /// regrid boxes must be rejected explicitly rather than producing an
  /// empty face range that silently skips the update.
  void reset(int n_cells, int nghost, int nscal);

  /// Rounded capacity of the backing arena block, for the shrink-release
  /// invariant checks in tests.
  [[nodiscard]] std::size_t capacity_doubles() const {
    return buf_.capacity();
  }

 private:
  std::ptrdiff_t cs_ = 0, fs_ = 0;  // cell/face lane lengths
  double *scal0_ = nullptr, *smass0_ = nullptr;
  util::Buffer3 buf_;
};

/// Views of the grid fields one sweep touches, looked up once per sweep
/// (species points at nscal views).
struct BatchFields {
  util::ArrayView3<double> rho;
  util::ArrayView3<double> vu;  ///< velocity along the sweep axis
  util::ArrayView3<double> v1;  ///< first transverse velocity
  util::ArrayView3<double> v2;  ///< second transverse velocity
  util::ArrayView3<double> etot, eint;
  const util::ArrayView3<double>* species = nullptr;
};

/// Where a batch lies in an x-fastest array: its pencils run along the
/// sweep axis d, at coordinates a0 .. a0 + live - 1 along the batch axis a
/// and at o0 along the other transverse axis o.  1 <= live <= kBatch.
struct BatchPlace {
  int d = 0, a = 1, o = 2;
  int a0 = 0, o0 = 0, live = 1;
};

/// Gather a batch, ghost cells included: copies the conserved lanes, floors
/// eint at zero, derives the pressure lane, and fills both the raw species
/// lane and its mass-fraction companion.  Lanes [live, kBatch) copy pencil
/// live - 1.
void gather_batch(PencilBatch& pb, const BatchFields& f, const BatchPlace& at,
                  double gamma, double pressure_floor);

/// Scatter the active cells [ng, n-ng) of the real pencils back to the
/// grid: the updated primitive lanes plus the raw species lanes.
/// gather→scatter with no sweep/update in between is byte-identical to the
/// original fields wherever eint >= 0 (gather floors the eint lane).
void scatter_batch(const PencilBatch& pb, const BatchFields& f,
                   const BatchPlace& at);

/// Conservative update of the active cells from the face fluxes, in place on
/// the lanes: flux-difference the conserved quantities, apply the vacuum
/// guard, add the internal-energy pdV work with the Riemann face
/// velocities, and convert back to primitives.  Species mass lanes are
/// advanced and floored at zero.
void update_batch(PencilBatch& pb, double dt, double dx, double density_floor);

/// The registers one flux lane adds into: the per-step face register and
/// the two boundary planes of the sweep axis (active faces only).
struct FluxTarget {
  util::ArrayView3<double> face, low, high;
};

/// Add dt_w × the face fluxes [ng, n-ng] of every real pencil whose
/// transverse coordinates are active to the registers: flux lane q goes to
/// targets[q].  `ghost` holds the grid's ghost depth per axis (register
/// coordinates are cell coordinates minus the ghost depth).
void add_batch_fluxes(const PencilBatch& pb, const FluxTarget* targets,
                      const BatchPlace& at, const int ghost[3], double dt_w);

struct SweepParams {
  double gamma = 5.0 / 3.0;
  bool flattening = true;
  double zeus_viscosity = 2.0;
};

/// PPM on one batch: reconstruct, characteristic-window average, two-shock
/// Riemann, fluxes.  Requires ng >= 3.  Returns the Newton sweeps run,
/// summed over the batch's face rows.
std::uint64_t ppm_sweep_batch(PencilBatch& pb, double dt, double dx,
                              const SweepParams& sp);

/// ZEUS-style donor-cell transport fluxes on one batch (the source step is
/// applied by the caller grid-wide before the sweeps).  Requires ng >= 2.
void zeus_sweep_batch(PencilBatch& pb, const SweepParams& sp);

}  // namespace enzo::hydro
