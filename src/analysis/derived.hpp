#pragma once
// Derived quantities and object finding (§6).
//
// "Our analysis routines ... range from computing direct hydrodynamical
// quantities, such as temperatures and densities, to derived quantities like
// cooling times, two-body relaxation times, X-ray luminosities and inertial
// tensors.  To study flattened objects such as galactic or proto stellar
// disks versatile routines to find such objects and derive projections,
// surface densities and other useful diagnostic quantities were created."
//
// Every routine masks coarse cells covered by finer grids so each physical
// location contributes exactly once.

#include <array>
#include <vector>

#include "chemistry/chemistry.hpp"
#include "hydro/hydro.hpp"
#include "mesh/hierarchy.hpp"

namespace enzo::analysis {

/// Cooling time field statistics over a spherical region: t_cool = ρe/Λ per
/// cell (code-time units); returns {min, mass-weighted mean}.
struct CoolingTimeStats {
  double min = 0;
  double mass_weighted_mean = 0;
  std::int64_t cells = 0;
};
CoolingTimeStats cooling_time_in_sphere(const mesh::Hierarchy& h,
                                        const ext::PosVec& center,
                                        double radius,
                                        const chemistry::ChemUnits& units);

/// Two-body relaxation time of the N-body particles inside a sphere
/// (Binney & Tremaine: t_relax ≈ N/(8 lnN) · t_cross), in code time.
/// Quantifies whether collisionless dynamics are numerically collisional —
/// the §6 diagnostic for trustworthy DM structure.
double two_body_relaxation_time(const mesh::Hierarchy& h,
                                const ext::PosVec& center, double radius);

/// Thermal bremsstrahlung X-ray luminosity of a spherical region (erg/s):
/// L_X = ∫ 1.42e-27 √T g_ff n_e (n_HII + n_HeII + 4 n_HeIII) dV.
double xray_luminosity(const mesh::Hierarchy& h, const ext::PosVec& center,
                       double radius, const chemistry::ChemUnits& units,
                       double length_cm_per_code);

/// Gas inertia tensor about a center within a sphere (code units); the
/// eigen-structure distinguishes spheres from pancakes/filaments/disks.
struct InertiaTensor {
  std::array<std::array<double, 3>, 3> I{};
  double mass = 0;
  /// Eigenvalues ascending (principal moments), from the cyclic Jacobi
  /// method — axis ratios follow from sqrt ratios.
  std::array<double, 3> eigenvalues() const;
  /// Sphericity proxy: smallest/largest principal moment (1 = sphere).
  double sphericity() const;
};
InertiaTensor gas_inertia_tensor(const mesh::Hierarchy& h,
                                 const ext::PosVec& center, double radius);

/// Surface density projection along an axis: an n×n map of ∫ρ dl through
/// the whole domain at the finest available resolution (§6 "projections,
/// surface densities").
struct Projection {
  int n = 0;
  std::vector<double> sigma;  ///< row-major n×n, code units (ρ × length)
  double min = 0, max = 0;
};
Projection surface_density(const mesh::Hierarchy& h, int axis, int n);

/// Connected collapsed objects ("finding collapsed objects and other
/// regions of interest"): cells above an overdensity threshold are grouped
/// by 6-connectivity on the finest-coverage map at the given level's
/// resolution.
struct Clump {
  ext::PosVec center{};
  double mass = 0;
  double peak_density = 0;
  std::int64_t cells = 0;
};
std::vector<Clump> find_clumps(const mesh::Hierarchy& h,
                               double density_threshold, int map_level = 0);

}  // namespace enzo::analysis
