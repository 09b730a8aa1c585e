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

class RateBatch;

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
/// parallel_for; nullptr runs them inline.  A non-finite density, internal
/// energy or species density in an active cell throws enzo::Error naming
/// the phase, level, grid box, cell and field.
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

/// Shortest cooling time over a grid's active cells (code units), from the
/// exact cooling fits.  A diagnostic: no solver path calls it.
double min_cooling_time(const mesh::Grid& g, const ChemUnits& units);

// ---- the row solver's round, exposed for its scalar-oracle test -------------

/// The network's species, in the order of the solver's per-cell workspace.
enum Species : int {
  sHI, sHII, sHeI, sHeII, sHeIII, sE, sHM, sH2, sH2p, sDI, sDII, sHD,
  kNumSpecies
};

/// One lockstep round's SoA lanes: lane a is the a-th cell of a row that is
/// still integrating.
struct SubcycleLanes {
  double* n[kNumSpecies];  ///< number densities (cm⁻³), advanced in place
  double* e;               ///< specific internal energy (erg/g), advanced
  double* t;               ///< seconds integrated so far, advanced by dt_sub
  double* dt_sub;          ///< out: the subcycle each cell took (s)
  const double* rho;       ///< density (g cm⁻³)
  const double *nH, *nHe, *nD;  ///< conserved nuclei sums (cm⁻³)
  const double* lambda;    ///< Λ at the round's temperatures (erg cm⁻³ s⁻¹)
  double *exp_arg, *e_floor;  ///< scratch of the energy update
};

/// Take one subcycle for each of m cells of a dt_s-second step: the subcycle
/// length from the e⁻, H₂ and energy rates of change, the sequential
/// backward-Euler species update, the nuclei and charge repairs, and the
/// semi-implicit energy update.  `rates` holds the cells' coefficients in
/// lane order.  Every cell's arithmetic is that of a scalar per-cell update,
/// in the same order, so the result does not depend on m or on a cell's lane.
void subcycle_lanes(int m, const SubcycleLanes& lanes, const RateBatch& rates,
                    double dt_s, const ChemistryParams& prm, double gamma);

}  // namespace enzo::chemistry
