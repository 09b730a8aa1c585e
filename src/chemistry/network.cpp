#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
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

constexpr int kNsp = kNumSpecies;

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

// Lanes of the row workspace: the 12 species lanes first (Species order),
// then these.  The cell block holds each cell's state by row position (the
// gather fills it, retired cells write back into it); the active block
// holds the cells still integrating, compacted after every round.
enum CellLane : int { cE = kNsp, cE0, cRho, kCellLanes };
enum ActiveLane : int {
  aE = kNsp, aTime, aRho, aNH, aNHe, aND,  // carried from round to round
  aTemp, aLambda, aDtSub, aExpArg, aFloor,  // per-round scratch
  kActiveLanes
};
constexpr int kCarried = aND + 1;

constexpr int kLanePad = 8;  // doubles: each lane starts on a cache line
int padded(int n) { return (n + (kLanePad - 1)) & ~(kLanePad - 1); }

/// Per-thread workspace for the row-lockstep solver.  Lives in a
/// thread_local so capacity is reused across rows and steps.
struct RowScratch {
  int stride = 0;
  std::vector<double> cell, act;
  std::vector<int> id, cycles;  // by active position: row position, rounds
  RateBatch rates;

  void reshape(int nx) {
    stride = padded(nx);
    const auto un = static_cast<std::size_t>(stride);
    cell.resize(un * kCellLanes);
    act.resize(un * kActiveLanes);
    id.resize(un);
    cycles.resize(un);
  }
  double* c(int lane) { return cell.data() + lane * stride; }
  double* a(int lane) { return act.data() + lane * stride; }
};

/// Temperature lanes of the round's m cells.
ENZO_HOT void temperature_lanes(int m, RowScratch& ws, double gamma) {
  const double* n_lane[kNsp] = {};
  for (int s = 0; s < kNsp; ++s) n_lane[s] = ws.a(s);
  const double* e = ws.a(aE);
  double* T = ws.a(aTemp);
#pragma GCC ivdep
  for (int a = 0; a < m; ++a) {
    double n[kNsp] = {};
    for (int s = 0; s < kNsp; ++s) n[s] = n_lane[s][a];
    T[a] = temperature_of(e[a], n, gamma);
  }
}

/// Advance every cell of one gathered row by dt_s seconds in lockstep
/// rounds over the cells still integrating: their temperatures, then one
/// table lookup for the rates and one for Λ over the whole active set, then
/// one subcycle for each (subcycle_lanes).  Cells that finish retire to the
/// cell block and the rest are compacted.  Each cell has its own dt_sub and
/// its own sequence of subcycles; only the order across cells is lockstep.
int advance_row(RowScratch& ws, int nx, double dt_s,
                const ChemistryParams& prm, const ChemUnits& units) {
  int m = 0;
  if (dt_s > 0.0 && prm.max_subcycles > 0) {
    m = nx;
    for (int s = 0; s < kNsp; ++s)
      std::copy_n(ws.c(s), nx, ws.a(s));
    std::copy_n(ws.c(cE), nx, ws.a(aE));
    std::copy_n(ws.c(cRho), nx, ws.a(aRho));
    std::fill_n(ws.a(aTime), nx, 0.0);
    for (int i = 0; i < nx; ++i) {
      ws.id[i] = i;
      ws.cycles[i] = 0;
      double n[kNsp] = {};
      for (int s = 0; s < kNsp; ++s) n[s] = ws.a(s)[i];
      ws.a(aNH)[i] =
          n[sHI] + n[sHII] + n[sHM] + 2.0 * (n[sH2] + n[sH2p]) + n[sHD];
      ws.a(aNHe)[i] = n[sHeI] + n[sHeII] + n[sHeIII];
      ws.a(aND)[i] = n[sDI] + n[sDII] + n[sHD];
    }
  }
  SubcycleLanes lanes{};
  for (int s = 0; s < kNsp; ++s) lanes.n[s] = ws.a(s);
  lanes.e = ws.a(aE);
  lanes.t = ws.a(aTime);
  lanes.dt_sub = ws.a(aDtSub);
  lanes.rho = ws.a(aRho);
  lanes.nH = ws.a(aNH);
  lanes.nHe = ws.a(aNHe);
  lanes.nD = ws.a(aND);
  lanes.lambda = ws.a(aLambda);
  lanes.exp_arg = ws.a(aExpArg);
  lanes.e_floor = ws.a(aFloor);
  int total = 0;
  while (m > 0) {
    temperature_lanes(m, ws, units.gamma);
    ws.rates.compute(m, ws.a(aTemp));
    if (prm.cooling) {
      const CoolingRowInput cri{units.t_cmb,  ws.a(aTemp), ws.a(sHI),
                                ws.a(sHII),   ws.a(sHeI),  ws.a(sHeII),
                                ws.a(sHeIII), ws.a(sE),    ws.a(sH2),
                                ws.a(sHD)};
      cooling_rate_batch(m, cri, ws.a(aLambda));
    } else {
      std::fill_n(ws.a(aLambda), m, 0.0);
    }
    subcycle_lanes(m, lanes, ws.rates, dt_s, prm, units.gamma);
    total += m;
    int w = 0;
    for (int a = 0; a < m; ++a) {
      const int cyc = ++ws.cycles[a];
      if (ws.a(aTime)[a] < dt_s && cyc < prm.max_subcycles) {
        if (w != a) {
          for (int lane = 0; lane < kCarried; ++lane)
            ws.a(lane)[w] = ws.a(lane)[a];
          ws.id[w] = ws.id[a];
          ws.cycles[w] = cyc;
        }
        ++w;
      } else {
        const int i = ws.id[a];
        for (int s = 0; s < kNsp; ++s) ws.c(s)[i] = ws.a(s)[a];
        ws.c(cE)[i] = ws.a(aE)[a];
      }
    }
    m = w;
  }
  return total;
}

[[noreturn]] void throw_non_finite(const Grid& g, int i, int j, int k,
                                   Field f, double v) {
  const mesh::IndexBox& b = g.box();
  throw Error("chemistry: non-finite " + std::string(mesh::field_name(f)) +
              " (" + std::to_string(v) + ") on level " +
              std::to_string(g.level()) + " in grid " + b.str() +
              " at cell (" + std::to_string(b.lo[0] + i) + ", " +
              std::to_string(b.lo[1] + j) + ", " +
              std::to_string(b.lo[2] + k) + ")");
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

ENZO_HOT void subcycle_lanes(int m, const SubcycleLanes& lanes,
                             const RateBatch& rates, double dt_s,
                             const ChemistryParams& prm, double gamma) {
  const double* k_lane[kNumRateCoefs] = {};
  for (int c = 0; c < kNumRateCoefs; ++c)
    k_lane[c] = rates.lane(static_cast<Coef>(c));
  double* n_lane[kNsp] = {};
  for (int s = 0; s < kNsp; ++s) n_lane[s] = lanes.n[s];
  double* const e_lane = lanes.e;
  double* const t_lane = lanes.t;
  double* const dt_lane = lanes.dt_sub;
  double* const arg_lane = lanes.exp_arg;
  double* const floor_lane = lanes.e_floor;
  const double* const rho_lane = lanes.rho;
  const double* const nH_lane = lanes.nH;
  const double* const nHe_lane = lanes.nHe;
  const double* const nD_lane = lanes.nD;
  const double* const lambda_lane = lanes.lambda;
  const double dt_min = dt_s / prm.max_subcycles;
  const double accuracy = prm.accuracy;
  const int cooling = prm.cooling ? 1 : 0;
  const double floor_kB = prm.temperature_floor * constants::kBoltzmann;
  const double gm1 = gamma - 1.0;
  // Branch-free per cell: every `if` of the per-cell update is a select of
  // two computed values, which leaves each value as the branch would.
#pragma GCC ivdep
  for (int a = 0; a < m; ++a) {
    auto k = [&](Coef c) { return k_lane[static_cast<int>(c)][a]; };
    const double k1 = k(Coef::k1), k2 = k(Coef::k2), k3 = k(Coef::k3),
                 k4 = k(Coef::k4), k5 = k(Coef::k5), k6 = k(Coef::k6),
                 k7 = k(Coef::k7), k9 = k(Coef::k9), k11 = k(Coef::k11),
                 k12 = k(Coef::k12), k13 = k(Coef::k13), k14 = k(Coef::k14),
                 k15 = k(Coef::k15), k16 = k(Coef::k16), k17 = k(Coef::k17),
                 k18 = k(Coef::k18), k19 = k(Coef::k19), k22 = k(Coef::k22),
                 k51 = k(Coef::k51), k53 = k(Coef::k53), k54 = k(Coef::k54),
                 k55 = k(Coef::k55);
    constexpr double k8 = kK8, k10 = kK10, k50 = kK50, k52 = kK52;
    const double k56 = k2, k57 = k1;
    double n[kNsp] = {};
    for (int s = 0; s < kNsp; ++s) n[s] = n_lane[s][a];
    const double e = e_lane[a], rho = rho_lane[a], lambda = lambda_lane[a];
    const double nH_tot = nH_lane[a], nHe_tot = nHe_lane[a],
                 nD_tot = nD_lane[a];
    const double dt_remaining = dt_s - t_lane[a];

    // ---- subcycle length from the e⁻ / H₂ / energy rates of change --------
    const double edot = -lambda / rho;  // erg/g/s
    const double ne_dot =
        k1 * n[sHI] * n[sE] - k2 * n[sHII] * n[sE] + k3 * n[sHeI] * n[sE] -
        k4 * n[sHeII] * n[sE] + k5 * n[sHeII] * n[sE] -
        k6 * n[sHeIII] * n[sE];
    // A-priori H₂ rate: the sequential-implicit update can falsely
    // equilibrate H₂ against destruction channels whose reactants would be
    // exhausted within the step (e.g. the tiny D reservoir), so the H₂
    // relative change per subcycle must be bounded too.
    const double h2_dot = k8 * n[sHM] * n[sHI] + k10 * n[sH2p] * n[sHI] +
                          k22 * n[sHI] * n[sHI] * n[sHI] -
                          (k11 * n[sHII] + k12 * n[sE] + k13 * n[sHI]) *
                              n[sH2];
    double dt_sub = dt_remaining;
    const double ne_rate = std::abs(ne_dot);
    const double by_ne =
        std::min(dt_sub, accuracy * (n[sE] + 1e-6 * nH_tot) / ne_rate);
    dt_sub = ne_rate > 0 ? by_ne : dt_sub;
    const double h2_rate = std::abs(h2_dot);
    const double by_h2 =
        std::min(dt_sub, accuracy * (n[sH2] + 1e-3 * nH_tot) / h2_rate);
    dt_sub = h2_rate > 0 ? by_h2 : dt_sub;
    const double e_rate = std::abs(edot);
    const double by_e = std::min(dt_sub, accuracy * e / e_rate);
    dt_sub = e_rate > 0 ? by_e : dt_sub;
    dt_sub = std::max(dt_sub, dt_min);
    dt_sub = std::min(dt_sub, dt_remaining);

    // ---- sequential implicit updates (production C, destruction freq D) ---
    // Helium first (decoupled from the H₂ network).
    n[sHeI] = bdf(n[sHeI], k4 * n[sHeII] * n[sE], k3 * n[sE], dt_sub);
    n[sHeII] = bdf(n[sHeII], k3 * n[sHeI] * n[sE] + k6 * n[sHeIII] * n[sE],
                   (k4 + k5) * n[sE], dt_sub);
    n[sHeIII] = bdf(n[sHeIII], k5 * n[sHeII] * n[sE], k6 * n[sE], dt_sub);

    // Hydrogen ionization balance.
    {
      const double cHI = k2 * n[sHII] * n[sE] + 2.0 * k12 * n[sH2] * n[sE] +
                         3.0 * k13 * n[sH2] * n[sHI] + k14 * n[sHM] * n[sE] +
                         2.0 * k15 * n[sHM] * n[sHI] +
                         2.0 * k16 * n[sHM] * n[sHII] +
                         2.0 * k18 * n[sH2p] * n[sE] +
                         k19 * n[sH2p] * n[sHM] + k11 * n[sH2] * n[sHII] +
                         k51 * n[sDI] * n[sHII] + k54 * n[sDI] * n[sH2];
      const double dHI = k1 * n[sE] + k7 * n[sE] + k8 * n[sHM] +
                         k9 * n[sHII] + k10 * n[sH2p] + k13 * n[sH2] +
                         k15 * n[sHM] + 2.0 * k22 * n[sHI] * n[sHI] +
                         k50 * n[sDII] + k55 * n[sHD];
      n[sHI] = bdf(n[sHI], cHI, dHI, dt_sub);
    }
    {
      const double cHII = k1 * n[sHI] * n[sE] + k10 * n[sH2p] * n[sHI] +
                          k50 * n[sDII] * n[sHI];
      const double dHII = k2 * n[sE] + k9 * n[sHI] + k11 * n[sH2] +
                          (k16 + k17) * n[sHM] + k51 * n[sDI] +
                          k53 * n[sHD];
      n[sHII] = bdf(n[sHII], cHII, dHII, dt_sub);
    }

    // Fast intermediaries: H⁻ and H₂⁺ (near equilibrium at low density —
    // the implicit update handles both regimes).
    n[sHM] = bdf(n[sHM], k7 * n[sHI] * n[sE],
                 k8 * n[sHI] + k14 * n[sE] + k15 * n[sHI] +
                     (k16 + k17) * n[sHII] + k19 * n[sH2p],
                 dt_sub);
    n[sH2p] = bdf(n[sH2p],
                  k9 * n[sHI] * n[sHII] + k11 * n[sH2] * n[sHII] +
                      k17 * n[sHM] * n[sHII],
                  k10 * n[sHI] + k18 * n[sE] + k19 * n[sHM], dt_sub);

    // Molecular hydrogen (incl. three-body formation, §4's 10⁹ cm⁻³ regime).
    // The deuterium-exchange reactions (k52–k55) are deliberately excluded
    // here: the D reservoir is ~4×10⁻⁵ of H by mass, so their *net* effect
    // on H₂ is negligible, while including them lets the lagged HD/D ratio
    // pin H₂ to a false equilibrium in the linearized update.  They do
    // appear in the D/HD updates below, where H₂ acts as a reservoir.
    n[sH2] = bdf(n[sH2],
                 k8 * n[sHM] * n[sHI] + k10 * n[sH2p] * n[sHI] +
                     k19 * n[sH2p] * n[sHM] + k22 * n[sHI] * n[sHI] * n[sHI],
                 k11 * n[sHII] + k12 * n[sE] + k13 * n[sHI], dt_sub);

    // Deuterium.
    n[sDI] = bdf(n[sDI],
                 k50 * n[sDII] * n[sHI] + k55 * n[sHD] * n[sHI] +
                     k56 * n[sDII] * n[sE],
                 k51 * n[sHII] + k54 * n[sH2] + k57 * n[sE], dt_sub);
    n[sDII] = bdf(n[sDII],
                  k51 * n[sDI] * n[sHII] + k53 * n[sHD] * n[sHII] +
                      k57 * n[sDI] * n[sE],
                  k50 * n[sHI] + k52 * n[sH2] + k56 * n[sE], dt_sub);
    n[sHD] = bdf(n[sHD], k52 * n[sDII] * n[sH2] + k54 * n[sDI] * n[sH2],
                 k53 * n[sHII] + k55 * n[sHI], dt_sub);

    // ---- conservation repairs (a zero sum leaves its species alone) -------
    {
      const double sum =
          n[sHI] + n[sHII] + n[sHM] + 2.0 * (n[sH2] + n[sH2p]) + n[sHD];
      const double f = nH_tot / sum;
      const bool pos = sum > 0;
      n[sHI] = pos ? n[sHI] * f : n[sHI];
      n[sHII] = pos ? n[sHII] * f : n[sHII];
      n[sHM] = pos ? n[sHM] * f : n[sHM];
      n[sH2] = pos ? n[sH2] * f : n[sH2];
      n[sH2p] = pos ? n[sH2p] * f : n[sH2p];
    }
    {
      const double sum = n[sHeI] + n[sHeII] + n[sHeIII];
      const double f = nHe_tot / sum;
      const bool pos = sum > 0;
      n[sHeI] = pos ? n[sHeI] * f : n[sHeI];
      n[sHeII] = pos ? n[sHeII] * f : n[sHeII];
      n[sHeIII] = pos ? n[sHeIII] * f : n[sHeIII];
    }
    {
      const double sum = n[sDI] + n[sDII] + n[sHD];
      const double f = nD_tot / sum;
      const bool pos = sum > 0;
      n[sDI] = pos ? n[sDI] * f : n[sDI];
      n[sDII] = pos ? n[sDII] * f : n[sDII];
      n[sHD] = pos ? n[sHD] * f : n[sHD];
    }
    // Electrons by charge conservation.
    n[sE] = std::max(charge_sum(n), 1e-20 * nH_tot);

    // ---- energy: semi-implicit, the exact exponential decay of the
    // instantaneous rate when k·dt_sub > 1e-8, else its linearization.  The
    // exponential branch finishes in the loop below; every other cell
    // carries exp_arg = 0.
    const double kr = lambda / (rho * e);  // 1/s (signed)
    const double kdt = kr * dt_sub;
    const bool cools = cooling && e > 0.0;
    const bool exp_branch = cools && kdt > 1e-8;
    const double mu = mu_of(n);
    const double e_floor = floor_kB / (gm1 * mu * constants::kHydrogenMass);
    const double e_lin = std::max(e - dt_sub * lambda / rho, e_floor);

    for (int s = 0; s < kNsp; ++s) n_lane[s][a] = n[s];
    e_lane[a] = cools && !exp_branch ? e_lin : e;
    arg_lane[a] = exp_branch ? -kr * dt_sub : 0.0;
    floor_lane[a] = e_floor;
    dt_lane[a] = dt_sub;
    t_lane[a] += dt_sub;
  }
  if (!cooling) return;
  // enzo-lint: allow(hotpath-transcendental) the energy update's exponential, apart so the round above vectorizes
  for (int a = 0; a < m; ++a)
    if (arg_lane[a] < 0.0)
      e_lane[a] = std::max(e_lane[a] * std::exp(arg_lane[a]), floor_lane[a]);
}

void solve_chemistry_step(Grid& g, double dt, const ChemistryParams& params,
                          const ChemUnits& units, exec::LevelExecutor* ex) {
  ENZO_REQUIRE(g.has_field(Field::kH2I), "chemistry fields not allocated");
  perf::TraceScope scope("network", perf::component::kChemistry, g.level());
  const double dt_s = dt * units.time_s;
  const mesh::ConstFieldView rho = g.field(Field::kDensity);
  const mesh::FieldView eint = g.field(Field::kInternalEnergy);
  const mesh::FieldView etot = g.field(Field::kTotalEnergy);
  // Species views hoisted out of the cell loops: each Grid::field call is an
  // array index (field_index) plus a view construction, twelve per cell.
  std::vector<mesh::FieldView> species;
  species.reserve(kNsp);
  for (const Field f : kSpeciesField) species.push_back(g.field(f));
  // Cells are independent; rows of cells are chunked through the executor.
  // Each row is gathered into an SoA workspace and advanced in lockstep
  // rounds; per-cell numerics do not depend on the row's other cells, so
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
        // Non-finite input would turn every rate into NaN silently: stop
        // here with the cell and field named.
        const double r = rho(si, sj, sk), e = eint(si, sj, sk);
        if (!std::isfinite(r))
          throw_non_finite(g, i, j, k, Field::kDensity, r);
        if (!std::isfinite(e))
          throw_non_finite(g, i, j, k, Field::kInternalEnergy, e);
        for (int s = 0; s < kNsp; ++s) {
          const double v = species[s](si, sj, sk);
          if (!std::isfinite(v)) throw_non_finite(g, i, j, k, kSpeciesField[s], v);
          ws.c(s)[i] = std::max(v, 0.0) * units.n_factor / kA[s];
        }
        ws.c(cE)[i] = e * units.e_cgs;
        ws.c(cE0)[i] = ws.c(cE)[i];
        ws.c(cRho)[i] = r * units.rho_cgs;
      }
      local_subcycles += advance_row(ws, ni, dt_s, params, units);
      for (int i = 0; i < ni; ++i) {
        const int si = g.sx(i);
        for (int s = 0; s < kNsp; ++s)
          species[s](si, sj, sk) = ws.c(s)[i] * kA[s] / units.n_factor;
        const double de_code = (ws.c(cE)[i] - ws.c(cE0)[i]) / units.e_cgs;
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
