#pragma once
// Internal 1-d pencil workspace shared by the PPM and ZEUS sweeps.
//
// Dimensional splitting: for each sweep axis the grid is decomposed into
// stride-friendly 1-d pencils of primitive variables (ρ, normal velocity u,
// transverse velocities, energies, pressure, passive-scalar mass fractions).
// The sweep kernels fill face-flux arrays (face i = lower face of cell i);
// the caller applies the conservative update and scatters the pencil back.
//
// Storage is structure-of-arrays: every lane is a contiguous run carved out
// of one arena block (util::Arena::scratch, 64-byte aligned), with lane
// lengths padded to a multiple of 8 doubles so each lane starts on its own
// cache line.  Bulk gather/scatter through PencilMap replaces per-cell
// strided indexing, and the kernels see plain dense arrays the compiler can
// autovectorize.  reset() zero-fills the block only when the workspace size
// changes: every lane slot a sweep reads is written earlier in the same
// pencil, so a recycled pencil computes exactly what a fresh one would —
// reuse cannot perturb the determinism contract.

#include <cstddef>
#include <cstdint>

#include "hydro/hydro.hpp"
#include "util/array3.hpp"

namespace enzo::hydro {

/// The directional sweeps of solve_hydro_step (after the ZEUS source step,
/// before the expansion sources): pencils are gathered, swept, updated and
/// scattered back axis by axis, and the active pencils add their
/// time-integrated face fluxes to the grid's active-face flux registers
/// (which must be allocated: reset_fluxes / reset_boundary_fluxes).  Only
/// live pencils run — those whose output an active cell or a register
/// depends on; a ghost row is swept only if a later sweep reads it before
/// a rewrap could replace it.  Returns the cells gathered into pencils,
/// summed over the axes.
std::uint64_t sweep_all_axes(mesh::Grid& g, double dt, const HydroParams& hp,
                             const cosmology::Expansion& exp,
                             exec::LevelExecutor* ex);

/// Strided addressing of one 1-d pencil inside an x-fastest 3-d array of
/// shape (nx, ny, nz): element i of the pencil lives at flat index
/// base + i*stride.  j1 is the (axis+1)%3 coordinate and j2 the (axis+2)%3
/// one, matching the sweep driver's pencil enumeration.
struct PencilMap {
  std::ptrdiff_t base = 0;
  std::ptrdiff_t stride = 1;
};

[[nodiscard]] PencilMap pencil_map(int axis, int nx, int ny, int nz, int j1,
                                   int j2);

struct Pencil {
  int n = 0;      ///< total cells including ghosts along the sweep axis
  int ng = 0;     ///< ghost cells on each end
  int nscal = 0;  ///< passive scalar count

  // Cell-centered lanes, length n (padded).  `scal(s)` holds the mass
  // fraction used for reconstruction, `scal_mass(s)` the raw species field
  // value the conservative update advances.
  double *rho = nullptr, *u = nullptr, *vt1 = nullptr, *vt2 = nullptr;
  double *etot = nullptr, *eint = nullptr, *p = nullptr;

  // Face-centered outputs, length n+1 (only faces [ng, n-ng] are filled).
  double *f_rho = nullptr, *f_mu = nullptr, *f_mvt1 = nullptr,
         *f_mvt2 = nullptr, *f_etot = nullptr, *f_eint = nullptr;
  double* ustar = nullptr;  ///< face normal velocity from the Riemann solve

  Pencil();

  [[nodiscard]] double* scal(int s) {
    return scal0_ + static_cast<std::ptrdiff_t>(s) * cs_;
  }
  [[nodiscard]] const double* scal(int s) const {
    return scal0_ + static_cast<std::ptrdiff_t>(s) * cs_;
  }
  [[nodiscard]] double* scal_mass(int s) {
    return smass0_ + static_cast<std::ptrdiff_t>(s) * cs_;
  }
  [[nodiscard]] const double* scal_mass(int s) const {
    return smass0_ + static_cast<std::ptrdiff_t>(s) * cs_;
  }
  [[nodiscard]] double* f_scal(int s) {
    return fscal0_ + static_cast<std::ptrdiff_t>(s) * fs_;
  }
  [[nodiscard]] const double* f_scal(int s) const {
    return fscal0_ + static_cast<std::ptrdiff_t>(s) * fs_;
  }

  /// Shape the workspace, zero-filling it only when its size changes.  The
  /// block is reused while its size class still matches and released back
  /// to the arena when the shape shrinks across size classes (so a deck
  /// with many scalars followed by one with none does not pin the larger
  /// block in thread-local scratch for the rest of the process).  Throws
  /// for a degenerate active extent
  /// (n_cells - 2*nghost < 1): minimum-size regrid boxes must be rejected
  /// explicitly rather than producing an empty face range that silently
  /// skips the update.
  void reset(int n_cells, int nghost, int nscal);

  /// Rounded capacity of the backing arena block, for the shrink-release
  /// invariant checks in tests.
  [[nodiscard]] std::size_t capacity_doubles() const {
    return buf_.capacity();
  }

 private:
  int cs_ = 0, fs_ = 0;  // padded cell/face lane lengths
  double *scal0_ = nullptr, *smass0_ = nullptr, *fscal0_ = nullptr;
  util::Buffer3 buf_;
};

/// Raw x-fastest base pointers of the grid fields one sweep touches, hoisted
/// once per axis by the driver (species points at nscal base pointers).
struct PencilFields {
  double* rho;
  double* vu;  ///< velocity along the sweep axis
  double* v1;  ///< first transverse velocity
  double* v2;  ///< second transverse velocity
  double* etot;
  double* eint;
  double* const* species;
};

/// Bulk gather of one pencil line: copies the conserved lanes, floors eint
/// at zero, derives the pressure lane, and fills both the raw species lane
/// and its mass-fraction companion.  Ghost cells included.
void gather_pencil(Pencil& pc, const PencilFields& f, const PencilMap& m,
                   double gamma, double pressure_floor);

/// Scatter the active cells [ng, n-ng) back to the grid: the updated
/// primitive lanes plus the raw species lanes.  gather→scatter with no
/// sweep/update in between is byte-identical to the original fields
/// wherever eint >= 0 (gather floors the eint lane).
void scatter_pencil(const Pencil& pc, const PencilFields& f,
                    const PencilMap& m);

/// Conservative update of the active cells from the face fluxes, in place on
/// the SoA lanes (the dense-lane twin of the old per-cell grid update):
/// flux-difference the conserved quantities, apply the vacuum guard, add the
/// internal-energy pdV work with the Riemann face velocities, and convert
/// back to primitives.  Species mass lanes are advanced and floored at zero.
void apply_conservative_update(Pencil& pc, double dt, double dx,
                               double density_floor);

/// Per-thread reusable pencil.  The sweep driver processes one pencil at a
/// time per thread, so a single thread-local workspace keeps the hottest
/// loop in the code allocation-free while keeping pencils private to their
/// executor thread.
inline Pencil& pencil_scratch() {
  thread_local Pencil pc;
  return pc;
}

struct SweepParams {
  double gamma = 5.0 / 3.0;
  bool flattening = true;
  double zeus_viscosity = 2.0;
};

/// PPM: reconstruct, characteristic-window average, two-shock Riemann,
/// fluxes.  Requires ng >= 3.
void ppm_sweep(Pencil& pc, double dt, double dx, const SweepParams& sp);

/// ZEUS-style donor-cell transport fluxes (the source step is applied by the
/// caller grid-wide before the sweeps).  Requires ng >= 2.
void zeus_sweep(Pencil& pc, double dt, double dx, const SweepParams& sp);

}  // namespace enzo::hydro
