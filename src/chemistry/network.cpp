#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#include "chemistry/chemistry.hpp"
#include "exec/executor.hpp"
#include "chemistry/rates.hpp"
#include "perf/metrics.hpp"
#include "perf/trace.hpp"
#include "util/constants.hpp"
#include "util/annotations.hpp"
#include "util/error.hpp"
#include "util/flops.hpp"

namespace enzo::chemistry {

using mesh::Field;
using mesh::Grid;

namespace {

/// Indices into the per-cell species workspace (number densities, cm⁻³).
enum Sp {
  sHI, sHII, sHeI, sHeII, sHeIII, sE, sHM, sH2, sH2p, sDI, sDII, sHD, kNsp
};

constexpr Field kSpeciesField[kNsp] = {
    Field::kHI, Field::kHII, Field::kHeI,  Field::kHeII,
    Field::kHeIII, Field::kElectron, Field::kHM, Field::kH2I,
    Field::kH2II, Field::kDI, Field::kDII, Field::kHDI};

/// Atomic mass numbers (electron stored with A=1 by convention: its field
/// holds n_e in proton-mass units, so charge sums are direct).
constexpr double kA[kNsp] = {1, 1, 4, 4, 4, 1, 1, 2, 2, 2, 2, 3};

double charge_sum(const double n[kNsp]) {
  return n[sHII] + n[sHeII] + 2.0 * n[sHeIII] + n[sDII] + n[sH2p] - n[sHM];
}

/// Mean molecular weight from number densities.
double mu_of(const double n[kNsp]) {
  double ntot = 0, rho = 0;
  for (int s = 0; s < kNsp; ++s) {
    ntot += n[s];
    rho += n[s] * kA[s];
  }
  // Electrons carry negligible mass; their A=1 bookkeeping convention would
  // overcount, so subtract it from the mass sum.
  rho -= n[sE] * 1.0;
  return ntot > 0 ? rho / ntot : 1.0;
}

double temperature_of(double e_cgs_specific, const double n[kNsp],
                      double gamma) {
  const double mu = mu_of(n);
  return std::max((gamma - 1.0) * e_cgs_specific * mu *
                      constants::kHydrogenMass / constants::kBoltzmann,
                  1e-3);
}

/// One backward-Euler (linearized) species update: n ← (n + dt·C)/(1 + dt·D).
double bdf(double n, double c, double d, double dt) {
  const double out = (n + dt * c) / (1.0 + dt * d);
  return std::max(out, 0.0);
}

struct CellState {
  double n[kNsp];
  double e;  // specific internal energy, erg/g
};

/// One subcycle for one cell, given its pre-evaluated temperature, rate row,
/// and cooling rate Λ (the lockstep driver batches those over a whole row of
/// cells before stepping each one).  `dt_remaining` = dt_s − t for this cell.
/// Returns the dt actually taken.
ENZO_HOT double subcycle_cell(CellState& st, const Rates& r, double lambda,
                              double dt_remaining, double dt_s, double nH_tot,
                              double nHe_tot, double nD_tot, double rho_cgs,
                              const ChemistryParams& prm, double gamma) {
  double* n = st.n;
  // ---- electron / H₂ / energy derivatives for subcycle control ------------
  const double edot = -lambda / rho_cgs;  // erg/g/s
  const double ne_dot =
      r.k1 * n[sHI] * n[sE] - r.k2 * n[sHII] * n[sE] +
      r.k3 * n[sHeI] * n[sE] - r.k4 * n[sHeII] * n[sE] +
      r.k5 * n[sHeII] * n[sE] - r.k6 * n[sHeIII] * n[sE];
  // A-priori H₂ rate: the sequential-implicit update can falsely
  // equilibrate H₂ against destruction channels whose reactants would be
  // exhausted within the step (e.g. the tiny D reservoir), so the H₂
  // relative change per subcycle must be bounded too.
  const double h2_dot =
      r.k8 * n[sHM] * n[sHI] + r.k10 * n[sH2p] * n[sHI] +
      r.k22 * n[sHI] * n[sHI] * n[sHI] -
      (r.k11 * n[sHII] + r.k12 * n[sE] + r.k13 * n[sHI]) * n[sH2];
  double dt_sub = dt_remaining;
  if (std::abs(ne_dot) > 0)
    dt_sub = std::min(dt_sub, prm.accuracy * (n[sE] + 1e-6 * nH_tot) /
                                  std::abs(ne_dot));
  if (std::abs(h2_dot) > 0)
    dt_sub = std::min(dt_sub, prm.accuracy * (n[sH2] + 1e-3 * nH_tot) /
                                  std::abs(h2_dot));
  if (std::abs(edot) > 0)
    dt_sub = std::min(dt_sub, prm.accuracy * st.e / std::abs(edot));
  dt_sub = std::max(dt_sub, dt_s / prm.max_subcycles);
  dt_sub = std::min(dt_sub, dt_remaining);
  {

    // ---- sequential implicit updates (production C, destruction freq D) ---
    // Helium first (decoupled from the H₂ network).
    n[sHeI] = bdf(n[sHeI], r.k4 * n[sHeII] * n[sE], r.k3 * n[sE], dt_sub);
    n[sHeII] = bdf(n[sHeII], r.k3 * n[sHeI] * n[sE] + r.k6 * n[sHeIII] * n[sE],
                   (r.k4 + r.k5) * n[sE], dt_sub);
    n[sHeIII] = bdf(n[sHeIII], r.k5 * n[sHeII] * n[sE], r.k6 * n[sE], dt_sub);

    // Hydrogen ionization balance.
    {
      const double cHI = r.k2 * n[sHII] * n[sE] +
                         2.0 * r.k12 * n[sH2] * n[sE] +
                         3.0 * r.k13 * n[sH2] * n[sHI] +
                         r.k14 * n[sHM] * n[sE] +
                         2.0 * r.k15 * n[sHM] * n[sHI] +
                         2.0 * r.k16 * n[sHM] * n[sHII] +
                         2.0 * r.k18 * n[sH2p] * n[sE] +
                         r.k19 * n[sH2p] * n[sHM] +
                         r.k11 * n[sH2] * n[sHII] +
                         r.k51 * n[sDI] * n[sHII] + r.k54 * n[sDI] * n[sH2];
      const double dHI = r.k1 * n[sE] + r.k7 * n[sE] + r.k8 * n[sHM] +
                         r.k9 * n[sHII] + r.k10 * n[sH2p] +
                         r.k13 * n[sH2] + r.k15 * n[sHM] +
                         2.0 * r.k22 * n[sHI] * n[sHI] +
                         r.k50 * n[sDII] + r.k55 * n[sHD];
      n[sHI] = bdf(n[sHI], cHI, dHI, dt_sub);
    }
    {
      const double cHII = r.k1 * n[sHI] * n[sE] + r.k10 * n[sH2p] * n[sHI] +
                          r.k50 * n[sDII] * n[sHI];
      const double dHII = r.k2 * n[sE] + r.k9 * n[sHI] + r.k11 * n[sH2] +
                          (r.k16 + r.k17) * n[sHM] + r.k51 * n[sDI] +
                          r.k53 * n[sHD];
      n[sHII] = bdf(n[sHII], cHII, dHII, dt_sub);
    }

    // Fast intermediaries: H⁻ and H₂⁺ (near equilibrium at low density —
    // the implicit update handles both regimes).
    n[sHM] = bdf(n[sHM], r.k7 * n[sHI] * n[sE],
                 r.k8 * n[sHI] + r.k14 * n[sE] + r.k15 * n[sHI] +
                     (r.k16 + r.k17) * n[sHII] + r.k19 * n[sH2p],
                 dt_sub);
    n[sH2p] = bdf(n[sH2p],
                  r.k9 * n[sHI] * n[sHII] + r.k11 * n[sH2] * n[sHII] +
                      r.k17 * n[sHM] * n[sHII],
                  r.k10 * n[sHI] + r.k18 * n[sE] + r.k19 * n[sHM], dt_sub);

    // Molecular hydrogen (incl. three-body formation, §4's 10⁹ cm⁻³ regime).
    // The deuterium-exchange reactions (k52–k55) are deliberately excluded
    // here: the D reservoir is ~4×10⁻⁵ of H by mass, so their *net* effect
    // on H₂ is negligible, while including them lets the lagged HD/D ratio
    // pin H₂ to a false equilibrium in the linearized update.  They do
    // appear in the D/HD updates below, where H₂ acts as a reservoir.
    n[sH2] = bdf(n[sH2],
                 r.k8 * n[sHM] * n[sHI] + r.k10 * n[sH2p] * n[sHI] +
                     r.k19 * n[sH2p] * n[sHM] +
                     r.k22 * n[sHI] * n[sHI] * n[sHI],
                 r.k11 * n[sHII] + r.k12 * n[sE] + r.k13 * n[sHI],
                 dt_sub);

    // Deuterium.
    n[sDI] = bdf(n[sDI],
                 r.k50 * n[sDII] * n[sHI] + r.k55 * n[sHD] * n[sHI] +
                     r.k56 * n[sDII] * n[sE],
                 r.k51 * n[sHII] + r.k54 * n[sH2] + r.k57 * n[sE], dt_sub);
    n[sDII] = bdf(n[sDII],
                  r.k51 * n[sDI] * n[sHII] + r.k53 * n[sHD] * n[sHII] +
                      r.k57 * n[sDI] * n[sE],
                  r.k50 * n[sHI] + r.k52 * n[sH2] + r.k56 * n[sE], dt_sub);
    n[sHD] = bdf(n[sHD],
                 r.k52 * n[sDII] * n[sH2] + r.k54 * n[sDI] * n[sH2],
                 r.k53 * n[sHII] + r.k55 * n[sHI], dt_sub);

    // ---- conservation repairs ----------------------------------------------
    // Hydrogen nuclei.
    {
      const double sum =
          n[sHI] + n[sHII] + n[sHM] + 2.0 * (n[sH2] + n[sH2p]) + n[sHD];
      if (sum > 0) {
        const double f = nH_tot / sum;
        n[sHI] *= f;
        n[sHII] *= f;
        n[sHM] *= f;
        n[sH2] *= f;
        n[sH2p] *= f;
      }
    }
    // Helium nuclei.
    {
      const double sum = n[sHeI] + n[sHeII] + n[sHeIII];
      if (sum > 0) {
        const double f = nHe_tot / sum;
        n[sHeI] *= f;
        n[sHeII] *= f;
        n[sHeIII] *= f;
      }
    }
    // Deuterium nuclei.
    {
      const double sum = n[sDI] + n[sDII] + n[sHD];
      if (sum > 0) {
        const double f = nD_tot / sum;
        n[sDI] *= f;
        n[sDII] *= f;
        n[sHD] *= f;
      }
    }
    // Electrons by charge conservation.
    n[sE] = std::max(charge_sum(n), 1e-20 * nH_tot);

    // ---- energy -----------------------------------------------------------
    if (prm.cooling && st.e > 0.0) {
      // Semi-implicit: exact exponential decay of the instantaneous rate.
      const double k = lambda / (rho_cgs * st.e);  // 1/s (signed)
      if (k * dt_sub > 1e-8)
        st.e *= std::exp(-k * dt_sub);
      else
        st.e -= dt_sub * lambda / rho_cgs;
      // Temperature floor.
      const double mu = mu_of(n);
      const double e_floor = prm.temperature_floor * constants::kBoltzmann /
                             ((gamma - 1.0) * mu *
                              constants::kHydrogenMass);
      st.e = std::max(st.e, e_floor);
    }
  }
  return dt_sub;
}

/// Per-thread workspace for the row-lockstep solver: the row's cell states
/// plus the SoA lanes that feed RateBatch / cooling_rate_batch.  Lives in a
/// thread_local so capacity is reused across rows and steps.
struct RowScratch {
  std::vector<CellState> st;
  std::vector<double> t, e0, rho_cgs;   // per-cell time, initial e, density
  std::vector<double> nH_tot, nHe_tot, nD_tot;  // conserved nuclei sums
  std::vector<int> cycles;
  std::vector<int> active, next_active;  // cells still integrating
  // Lockstep lanes, indexed by position in `active`.
  std::vector<double> T, lambda;
  std::vector<double> nHI, nHII, nHeI, nHeII, nHeIII, ne, nH2, nHD;
  RateBatch rates;

  void reshape(int nx) {
    const auto un = static_cast<std::size_t>(nx);
    st.resize(un);
    t.resize(un);
    e0.resize(un);
    rho_cgs.resize(un);
    nH_tot.resize(un);
    nHe_tot.resize(un);
    nD_tot.resize(un);
    cycles.resize(un);
    active.reserve(un);
    next_active.reserve(un);
    T.resize(un);
    lambda.resize(un);
    nHI.resize(un);
    nHII.resize(un);
    nHeI.resize(un);
    nHeII.resize(un);
    nHeIII.resize(un);
    ne.resize(un);
    nH2.resize(un);
    nHD.resize(un);
  }
};

/// Advance every cell of one gathered row by dt_s seconds in lockstep rounds:
/// gather the temperatures of the still-active cells, evaluate all reaction
/// rates and cooling terms for the whole row at once (batched exp/pow lanes),
/// then take one scalar subcycle per cell.  Per-cell numerics are identical
/// to the historical cell-at-a-time loop — only the evaluation order across
/// cells changes, and each cell's subcycle sequence is untouched.
int advance_row(RowScratch& ws, int nx, double dt_s,
                const ChemistryParams& prm, const ChemUnits& units) {
  ws.active.clear();
  for (int i = 0; i < nx; ++i) {
    ws.t[i] = 0.0;
    ws.cycles[i] = 0;
    const double* n = ws.st[i].n;
    ws.nH_tot[i] =
        n[sHI] + n[sHII] + n[sHM] + 2.0 * (n[sH2] + n[sH2p]) + n[sHD];
    ws.nHe_tot[i] = n[sHeI] + n[sHeII] + n[sHeIII];
    ws.nD_tot[i] = n[sDI] + n[sDII] + n[sHD];
    if (ws.t[i] < dt_s && prm.max_subcycles > 0) ws.active.push_back(i);
  }
  int total = 0;
  while (!ws.active.empty()) {
    const int m = static_cast<int>(ws.active.size());
    for (int a = 0; a < m; ++a) {
      const CellState& st = ws.st[ws.active[a]];
      ws.T[a] = temperature_of(st.e, st.n, units.gamma);
    }
    ws.rates.compute(m, ws.T.data());
    if (prm.cooling) {
      for (int a = 0; a < m; ++a) {
        const double* n = ws.st[ws.active[a]].n;
        ws.nHI[a] = n[sHI];
        ws.nHII[a] = n[sHII];
        ws.nHeI[a] = n[sHeI];
        ws.nHeII[a] = n[sHeII];
        ws.nHeIII[a] = n[sHeIII];
        ws.ne[a] = n[sE];
        ws.nH2[a] = n[sH2];
        ws.nHD[a] = n[sHD];
      }
      const CoolingRowInput cri{units.t_cmb,    ws.T.data(),
                                ws.nHI.data(),  ws.nHII.data(),
                                ws.nHeI.data(), ws.nHeII.data(),
                                ws.nHeIII.data(), ws.ne.data(),
                                ws.nH2.data(),  ws.nHD.data()};
      cooling_rate_batch(m, cri, ws.lambda.data());
    } else {
      std::fill(ws.lambda.begin(), ws.lambda.begin() + m, 0.0);
    }
    ws.next_active.clear();
    for (int a = 0; a < m; ++a) {
      const int i = ws.active[a];
      ++ws.cycles[i];
      ++total;
      const double dt_sub = subcycle_cell(
          ws.st[i], ws.rates.row(a), ws.lambda[a], dt_s - ws.t[i], dt_s,
          ws.nH_tot[i], ws.nHe_tot[i], ws.nD_tot[i], ws.rho_cgs[i], prm,
          units.gamma);
      ws.t[i] += dt_sub;
      if (ws.t[i] < dt_s && ws.cycles[i] < prm.max_subcycles)
        ws.next_active.push_back(i);
    }
    std::swap(ws.active, ws.next_active);
  }
  return total;
}

}  // namespace

ENZO_UNITS_BOUNDARY ChemUnits ChemUnits::from(
    const cosmology::CodeUnits& u, double a, double gamma) {
  ChemUnits c;
  c.rho_cgs = u.density_cgs / (a * a * a);
  c.n_factor = c.rho_cgs / constants::kHydrogenMass;
  c.e_cgs = u.velocity_cgs() * u.velocity_cgs();
  c.time_s = u.time_s;
  c.t_cmb = constants::kTcmb0 / a;
  c.gamma = gamma;
  return c;
}

void solve_chemistry_step(Grid& g, double dt, const ChemistryParams& params,
                          const ChemUnits& units, exec::LevelExecutor* ex) {
  ENZO_REQUIRE(g.has_field(Field::kH2I), "chemistry fields not allocated");
  perf::TraceScope scope("network", perf::component::kChemistry, g.level());
  const double dt_s = dt * units.time_s;
  const mesh::ConstFieldView rho = g.field(Field::kDensity);
  const mesh::FieldView eint = g.field(Field::kInternalEnergy);
  const mesh::FieldView etot = g.field(Field::kTotalEnergy);
  // Species views hoisted out of the cell loops (the by-name lookup is a map
  // probe; twelve of them per cell dominated the gather cost).
  std::vector<mesh::FieldView> species;
  species.reserve(kNsp);
  for (const Field f : kSpeciesField) species.push_back(g.field(f));
  // Cells are independent; rows of cells are chunked through the executor
  // (replacing the old OpenMP pragma).  Each row is gathered into an SoA
  // workspace and advanced in lockstep so the rate/cooling transcendentals
  // run over whole-row lanes; per-cell subcycle numerics are unchanged, so
  // results do not depend on which thread handles a row.  The subcycle tally
  // is an integer sum — commutative, so the atomic accumulation stays
  // deterministic at any thread count.
  std::atomic<std::int64_t> subcycles{0};
  const int ni = g.nx(0);
  const auto nj = static_cast<std::size_t>(g.nx(1));
  const auto nk = static_cast<std::size_t>(g.nx(2));
  exec::maybe_parallel_for(
      ex, nk * nj, 1, [&](std::size_t row_begin, std::size_t row_end) {
    thread_local RowScratch ws;
    ws.reshape(ni);
    std::int64_t local_subcycles = 0;
    for (std::size_t row = row_begin; row < row_end; ++row) {
      const int k = static_cast<int>(row / nj);
      const int j = static_cast<int>(row % nj);
      const int sj = g.sy(j), sk = g.sz(k);
      for (int i = 0; i < ni; ++i) {
        const int si = g.sx(i);
        CellState& st = ws.st[i];
        for (int s = 0; s < kNsp; ++s)
          st.n[s] = std::max(species[s](si, sj, sk), 0.0) *
                    units.n_factor / kA[s];
        st.e = eint(si, sj, sk) * units.e_cgs;
        ws.e0[i] = st.e;
        ws.rho_cgs[i] = rho(si, sj, sk) * units.rho_cgs;
      }
      local_subcycles += advance_row(ws, ni, dt_s, params, units);
      for (int i = 0; i < ni; ++i) {
        const int si = g.sx(i);
        const CellState& st = ws.st[i];
        for (int s = 0; s < kNsp; ++s)
          species[s](si, sj, sk) = st.n[s] * kA[s] / units.n_factor;
        const double de_code = (st.e - ws.e0[i]) / units.e_cgs;
        eint(si, sj, sk) += de_code;
        etot(si, sj, sk) += de_code;
      }
    }
    subcycles.fetch_add(local_subcycles, std::memory_order_relaxed);
  });
  static perf::Counter& subcycle_counter =
      perf::Registry::global().counter("chemistry.subcycles");
  static util::ComponentFlops flops("chemistry");
  const auto total_subcycles =
      static_cast<std::uint64_t>(subcycles.load(std::memory_order_relaxed));
  subcycle_counter.add(total_subcycles);
  // The measured subcycle count replaces the old fixed ×10 estimate.
  flops.add(util::flop_cost::kChemistryPerCellPerSubcycle * total_subcycles);
}

double cell_mu(const Grid& g, int si, int sj, int sk) {
  double n[kNsp];
  for (int s = 0; s < kNsp; ++s)
    n[s] = std::max(g.field(kSpeciesField[s])(si, sj, sk), 0.0) / kA[s];
  return mu_of(n);
}

double cell_temperature(const Grid& g, int si, int sj, int sk,
                        const ChemUnits& units) {
  double n[kNsp];
  for (int s = 0; s < kNsp; ++s)
    n[s] = std::max(g.field(kSpeciesField[s])(si, sj, sk), 0.0) *
           units.n_factor / kA[s];
  const double e = g.field(Field::kInternalEnergy)(si, sj, sk) * units.e_cgs;
  return temperature_of(e, n, units.gamma);
}

void initialize_primordial_composition(Grid& g, const ChemistryParams& params,
                                       double x_e, double f_h2) {
  const mesh::ConstFieldView rho = g.field(Field::kDensity);
  const double X = params.hydrogen_fraction;
  const double Y = 1.0 - X;
  const double fD = params.deuterium_fraction;
  for (int k = 0; k < g.nt(2); ++k)
    for (int j = 0; j < g.nt(1); ++j)
      for (int i = 0; i < g.nt(0); ++i) {
        const double r = rho(i, j, k);
        const double rH = X * r;
        g.field(Field::kH2I)(i, j, k) = f_h2 * rH;
        g.field(Field::kHII)(i, j, k) = x_e * rH;
        g.field(Field::kHI)(i, j, k) = (1.0 - x_e - f_h2) * rH;
        g.field(Field::kHM)(i, j, k) = 1e-12 * rH;
        g.field(Field::kH2II)(i, j, k) = 1e-12 * rH;
        g.field(Field::kHeI)(i, j, k) = Y * r;
        g.field(Field::kHeII)(i, j, k) = 1e-12 * Y * r;
        g.field(Field::kHeIII)(i, j, k) = 1e-14 * Y * r;
        g.field(Field::kDI)(i, j, k) = (1.0 - x_e) * fD * rH;
        g.field(Field::kDII)(i, j, k) = x_e * fD * rH;
        g.field(Field::kHDI)(i, j, k) = 1e-8 * fD * rH;
        // Electron field in proton-mass units = n_e · m_H.
        g.field(Field::kElectron)(i, j, k) =
            x_e * rH + 1e-12 * Y * r / 4.0;
      }
}

double min_cooling_time(const Grid& g, const ChemUnits& units) {
  double tmin = std::numeric_limits<double>::max();
  for (int k = 0; k < g.nx(2); ++k)
    for (int j = 0; j < g.nx(1); ++j)
      for (int i = 0; i < g.nx(0); ++i) {
        const int si = g.sx(i), sj = g.sy(j), sk = g.sz(k);
        double n[kNsp];
        for (int s = 0; s < kNsp; ++s)
          n[s] = std::max(g.field(kSpeciesField[s])(si, sj, sk), 0.0) *
                 units.n_factor / kA[s];
        const double e =
            g.field(Field::kInternalEnergy)(si, sj, sk) * units.e_cgs;
        const double T = temperature_of(e, n, units.gamma);
        CoolingInput ci{T, units.t_cmb, n[sHI], n[sHII], n[sHeI], n[sHeII],
                        n[sHeIII], n[sE], n[sH2], n[sHD]};
        const double lambda = cooling_rate(ci);
        if (lambda <= 0) continue;
        const double rho_cgs =
            g.field(Field::kDensity)(si, sj, sk) * units.rho_cgs;
        const double tc = rho_cgs * e / lambda / units.time_s;
        tmin = std::min(tmin, tc);
      }
  return tmin;
}

}  // namespace enzo::chemistry
