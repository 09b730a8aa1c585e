#pragma once
// Non-equilibrium 12-species primordial chemistry + radiative cooling
// (§2.2, §3.3).
//
// "Because the cosmological background density of baryons is small, chemical
// reactions in the smooth background gas occur on long timescales ...
// chemical equilibrium is rarely an appropriate assumption.  We solve the
// time dependent chemical reaction network involving twelve species ...
// Because the equations are stiff, we use a backward finite-difference
// technique for stability, sub-cycling within a fluid timestep for
// additional accuracy" (Anninos et al. 1997).
//
// Per cell: species number densities are advanced with a sequential
// (Gauss–Seidel-ordered) backward-Euler update n ← (n + Δt·C)/(1 + Δt·D),
// electrons closed by charge conservation, nuclei sums re-normalized, and
// the internal energy integrated semi-implicitly against the cooling
// function — all sub-cycled on the electron/energy timescale.

#include "cosmology/units.hpp"
#include "mesh/grid.hpp"

namespace enzo::exec {
class LevelExecutor;
}

namespace enzo::chemistry {

struct ChemistryParams {
  bool cooling = true;
  /// Max fractional change of e⁻/H₂/energy per subcycle.
  double accuracy = 0.1;
  int max_subcycles = 20000;
  double temperature_floor = 1.0;  ///< K
  double hydrogen_fraction = 0.76;  ///< by mass (§2.2: 76 % H, 24 % He)
  double deuterium_fraction = 4.3e-5;  ///< D/H by mass (2 × [D/H]number)
};

/// Conversions from code units to the cgs quantities the rate fits need,
/// at one scale factor, and the run's adiabatic index, which converts
/// specific internal energy to temperature.
struct ChemUnits {
  double n_factor = 1.0;  ///< n_X [cm⁻³] = ρ_X,code × n_factor / A_X
  double rho_cgs = 1.0;   ///< proper g/cm³ per code density
  double e_cgs = 1.0;     ///< erg/g per code specific energy
  double time_s = 1.0;    ///< seconds per code time
  double t_cmb = 2.725;   ///< CMB temperature now (K)
  double gamma = 5.0 / 3.0;  ///< the run's γ (hydro): T = (γ−1)·e·μ·m_H/k

  static ChemUnits from(const cosmology::CodeUnits& u, double a, double gamma);
};

/// Advance every active cell's species and internal energy by dt (code
/// units), sub-cycling internally.  Total energy is adjusted by the internal
/// energy change.  Requires the chemistry fields to be allocated.  `ex`
/// (optional) chunks the independent cell updates via the executor's nested
/// parallel_for; nullptr runs them inline.
void solve_chemistry_step(mesh::Grid& g, double dt,
                          const ChemistryParams& params,
                          const ChemUnits& units,
                          exec::LevelExecutor* ex = nullptr);

/// Gas temperature (K) of one cell from its internal energy + composition.
double cell_temperature(const mesh::Grid& g, int si, int sj, int sk,
                        const ChemUnits& units);

/// Mean molecular weight of one cell (dimensionless).
double cell_mu(const mesh::Grid& g, int si, int sj, int sk);

/// Initialize the species fields to a near-neutral primordial composition:
/// ionization fraction x_e, H₂ fraction f_H2 (relative to total H mass),
/// hydrogen/helium split from params.  Overwrites the 12 species fields from
/// the density field.
void initialize_primordial_composition(mesh::Grid& g,
                                       const ChemistryParams& params,
                                       double x_e, double f_h2);

/// Shortest cooling time over a grid's active cells (code units) —
/// diagnostic used by the Fig. 4 discussion and by timestep reporting.
double min_cooling_time(const mesh::Grid& g, const ChemUnits& units);

}  // namespace enzo::chemistry
