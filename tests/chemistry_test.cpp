// Chemistry tests: rate-coefficient sanity, conservation (nuclei & charge),
// recombination against the analytic decay, collisional ionization
// equilibrium, H₂ formation in the low- and high-density (three-body)
// regimes, cooling behaviour including the Compton–CMB coupling, and solver
// robustness under stiff conditions.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "chemistry/chemistry.hpp"
#include "chemistry/rates.hpp"
#include "core/parameter_file.hpp"
#include "core/simulation.hpp"
#include "mesh/hierarchy.hpp"
#include "util/constants.hpp"

using namespace enzo;
using mesh::Field;
using mesh::Grid;
namespace cn = enzo::constants;

namespace {

/// Units where code density 1 = n_H of `n_cgs` cm⁻³ and code specific
/// energy is in units of k_B K per m_H (so e ≈ T/((γ−1)μ)).
chemistry::ChemUnits make_units(double n_cgs) {
  chemistry::ChemUnits u;
  u.n_factor = n_cgs;
  u.rho_cgs = n_cgs * cn::kHydrogenMass;
  u.e_cgs = cn::kBoltzmann / cn::kHydrogenMass;
  u.time_s = 1.0;  // code time in seconds
  u.t_cmb = 2.725;
  return u;
}

/// One-grid box with uniform density rho0 and the full chemistry field set.
mesh::Hierarchy chem_box(double rho0) {
  mesh::HierarchyParams p;
  p.root_dims = {4, 4, 4};
  p.fields = mesh::chemistry_field_list();
  mesh::Hierarchy h(p);
  h.build_root();
  Grid* g = h.grids(0)[0];
  for (Field f : g->field_list()) g->field(f).fill(0.0);
  g->field(Field::kDensity).fill(rho0);
  return h;
}

/// Set the internal energy so the cell temperature is T for its current μ,
/// at make_units' γ.
void set_temperature(Grid& g, double T) {
  const double gamma = chemistry::ChemUnits{}.gamma;
  for (int k = 0; k < g.nt(2); ++k)
    for (int j = 0; j < g.nt(1); ++j)
      for (int i = 0; i < g.nt(0); ++i) {
        const double mu = chemistry::cell_mu(g, i, j, k);
        const double e = T / ((gamma - 1.0) * mu);  // e_cgs = k/m_H units
        g.field(Field::kInternalEnergy)(i, j, k) = e;
        g.field(Field::kTotalEnergy)(i, j, k) = e;
      }
}

double h_nuclei(const Grid& g, int si, int sj, int sk) {
  return g.field(Field::kHI)(si, sj, sk) + g.field(Field::kHII)(si, sj, sk) +
         g.field(Field::kHM)(si, sj, sk) + g.field(Field::kH2I)(si, sj, sk) +
         g.field(Field::kH2II)(si, sj, sk) +
         g.field(Field::kHDI)(si, sj, sk) / 3.0;
}

}  // namespace

// ---- rates -----------------------------------------------------------------------

TEST(Rates, PositivityAcrossTemperatureSweep) {
  for (double T = 1.0; T < 1e8; T *= 2.7) {
    const auto r = chemistry::compute_rates(T);
    for (double k : {r.k1, r.k2, r.k3, r.k4, r.k5, r.k6, r.k7, r.k8, r.k9,
                     r.k10, r.k11, r.k12, r.k13, r.k14, r.k15, r.k16, r.k17,
                     r.k18, r.k19, r.k22, r.k50, r.k51, r.k52, r.k53, r.k54,
                     r.k55, r.k56, r.k57}) {
      EXPECT_TRUE(std::isfinite(k)) << "T=" << T;
      EXPECT_GE(k, 0.0) << "T=" << T;
    }
  }
}

TEST(Rates, IonizationNeedsHighTemperature) {
  const auto cold = chemistry::compute_rates(1e3);
  const auto hot = chemistry::compute_rates(1e5);
  EXPECT_LT(cold.k1, 1e-20);           // negligible at 10³ K
  EXPECT_GT(hot.k1, 1e-9);             // strong at 10⁵ K
  EXPECT_GT(cold.k2, hot.k2);          // recombination favours cold gas
}

TEST(Rates, ThreeBodyScalesInverseT) {
  const auto a = chemistry::compute_rates(100.0);
  const auto b = chemistry::compute_rates(1000.0);
  EXPECT_NEAR(a.k22 / b.k22, 10.0, 1e-9);
  EXPECT_NEAR(a.k22, 5.5e-31, 1e-33);
}

TEST(Rates, H2CoolingPeaksNearFewThousandK) {
  const double n = 1.0;
  const double lo = chemistry::h2_cooling_rate(100, n, n);
  const double mid = chemistry::h2_cooling_rate(3000, n, n);
  EXPECT_GT(mid, lo * 10);
  // LTE cap: at n >> n_cr the per-molecule rate saturates (Λ/n_H2 stops
  // growing linearly with n_H).
  const double per_mol_low = chemistry::h2_cooling_rate(1000, 1.0, 1e2);
  const double per_mol_high = chemistry::h2_cooling_rate(1000, 1.0, 1e8);
  EXPECT_LT(per_mol_high / per_mol_low, 1e6 / 1e2);  // sublinear growth
}

TEST(Rates, ComptonChangesSignAtCmbTemperature) {
  chemistry::CoolingInput ci{};
  ci.n_e = 1.0;
  ci.T_cmb = 50.0;
  ci.T = 100.0;  // hotter than CMB: cooling
  ci.n_HI = 1.0;
  EXPECT_GT(chemistry::cooling_rate(ci), 0.0);
  ci.T = 20.0;  // colder than CMB: Compton heating
  EXPECT_LT(chemistry::cooling_rate(ci), 0.0);
}

// ---- composition initialization -----------------------------------------------

TEST(Chemistry, InitialCompositionSumsToDensity) {
  mesh::Hierarchy h = chem_box(1.0);
  Grid* g = h.grids(0)[0];
  chemistry::ChemistryParams prm;
  chemistry::initialize_primordial_composition(*g, prm, 1e-4, 1e-6);
  const int si = g->sx(1), sj = g->sy(1), sk = g->sz(1);
  EXPECT_NEAR(h_nuclei(*g, si, sj, sk) +
                  g->field(Field::kHDI)(si, sj, sk) * (1.0 - 1.0 / 3.0) +
                  g->field(Field::kDI)(si, sj, sk) +
                  g->field(Field::kDII)(si, sj, sk) +
                  g->field(Field::kHeI)(si, sj, sk) +
                  g->field(Field::kHeII)(si, sj, sk) +
                  g->field(Field::kHeIII)(si, sj, sk),
              1.0, 1e-3);
  // Neutral primordial gas: μ ≈ 1/(X + Y/4) ≈ 1.22.
  EXPECT_NEAR(chemistry::cell_mu(*g, si, sj, sk), 1.22, 0.02);
}

// ---- conservation ----------------------------------------------------------------

TEST(Chemistry, ConservesNucleiAndCharge) {
  mesh::Hierarchy h = chem_box(1.0);
  Grid* g = h.grids(0)[0];
  chemistry::ChemistryParams prm;
  prm.cooling = false;
  chemistry::initialize_primordial_composition(*g, prm, 0.1, 1e-4);
  set_temperature(*g, 5000.0);
  auto u = make_units(10.0);
  const int si = g->sx(2), sj = g->sy(2), sk = g->sz(2);
  const double h0 = h_nuclei(*g, si, sj, sk);
  chemistry::solve_chemistry_step(*g, 3.15e13, prm, u);  // ~1 Myr
  EXPECT_NEAR(h_nuclei(*g, si, sj, sk), h0, 1e-8 * h0);
  // Charge: n_e = n_HII + n_HeII + 2n_HeIII + n_DII + n_H2II − n_HM.
  const double ne = g->field(Field::kElectron)(si, sj, sk);
  const double charge = g->field(Field::kHII)(si, sj, sk) +
                        g->field(Field::kHeII)(si, sj, sk) / 4.0 +
                        2.0 * g->field(Field::kHeIII)(si, sj, sk) / 4.0 +
                        g->field(Field::kDII)(si, sj, sk) / 2.0 +
                        g->field(Field::kH2II)(si, sj, sk) / 2.0 -
                        g->field(Field::kHM)(si, sj, sk);
  EXPECT_NEAR(ne, charge, 1e-6 * ne + 1e-20);
}

// ---- recombination / ionization -------------------------------------------------

TEST(Chemistry, RecombinationFollowsAnalyticDecay) {
  // Fully ionized pure-H-like gas at fixed T (cooling off): pure two-body
  // recombination gives 1/n_e(t) = 1/n_e(0) + k2 t.
  mesh::Hierarchy h = chem_box(1.0);
  Grid* g = h.grids(0)[0];
  chemistry::ChemistryParams prm;
  prm.cooling = false;
  prm.hydrogen_fraction = 1.0;  // suppress He for the clean comparison
  chemistry::initialize_primordial_composition(*g, prm, 0.9999, 0.0);
  const double T = 1000.0;
  auto u = make_units(1.0);  // n_H = 1 cm⁻³
  const auto r = chemistry::compute_rates(T);
  const double t = 3.0e13;  // s
  // Re-pin the temperature as μ drifts from 0.5 (ionized) toward 1
  // (neutral), so k2 stays at its T=1000 K value.
  for (int it = 0; it < 20; ++it) {
    set_temperature(*g, T);
    chemistry::solve_chemistry_step(*g, t / 20, prm, u);
  }
  const int si = g->sx(1), sj = g->sy(1), sk = g->sz(1);
  const double ne = g->field(Field::kElectron)(si, sj, sk);  // ≈ n_e (code)
  const double expected = 1.0 / (1.0 / 0.9999 + r.k2 * t);
  EXPECT_NEAR(ne, expected, 0.05 * expected);
}

TEST(Chemistry, CollisionalIonizationEquilibrium) {
  // At fixed high T the H ionization fraction relaxes to k1/(k1+k2).
  mesh::Hierarchy h = chem_box(1.0);
  Grid* g = h.grids(0)[0];
  chemistry::ChemistryParams prm;
  prm.cooling = false;
  prm.hydrogen_fraction = 1.0;
  chemistry::initialize_primordial_composition(*g, prm, 0.5, 0.0);
  const double T = 2.0e4;
  auto u = make_units(1e2);
  // Re-pin the temperature every step (the network changes μ slightly).
  const auto r = chemistry::compute_rates(T);
  for (int it = 0; it < 30; ++it) {
    set_temperature(*g, T);
    chemistry::solve_chemistry_step(*g, 1e13, prm, u);
  }
  const int si = g->sx(1), sj = g->sy(1), sk = g->sz(1);
  const double x = g->field(Field::kHII)(si, sj, sk) /
                   (g->field(Field::kHII)(si, sj, sk) +
                    g->field(Field::kHI)(si, sj, sk));
  EXPECT_NEAR(x, r.k1 / (r.k1 + r.k2), 0.05);
}

// ---- H2 formation -----------------------------------------------------------------

TEST(Chemistry, H2FormsViaHMinusChannel) {
  // Warm slightly-ionized gas at n ~ 10 cm⁻³: the H⁻ channel should build
  // an H₂ fraction of order 10⁻⁴…10⁻³ over ~10 Myr (§4: "minute molecular
  // mass fraction of ~10⁻³").
  mesh::Hierarchy h = chem_box(1.0);
  Grid* g = h.grids(0)[0];
  chemistry::ChemistryParams prm;
  prm.cooling = false;
  chemistry::initialize_primordial_composition(*g, prm, 1e-3, 1e-9);
  set_temperature(*g, 1000.0);
  auto u = make_units(10.0);
  const int si = g->sx(1), sj = g->sy(1), sk = g->sz(1);
  const double f0 = g->field(Field::kH2I)(si, sj, sk);
  chemistry::solve_chemistry_step(*g, 3.15e14, prm, u);  // 10 Myr
  const double f1 = g->field(Field::kH2I)(si, sj, sk);
  EXPECT_GT(f1, 10.0 * f0);
  EXPECT_GT(f1, 1e-7);
  EXPECT_LT(f1, 1e-2);
}

TEST(Chemistry, ThreeBodyConversionAtHighDensity) {
  // n_H ≳ 10¹⁰ cm⁻³ at ~1000 K: three-body formation drives the gas fully
  // molecular (§4: "at central densities ~10¹¹ cm⁻³ atomic and molecular
  // hydrogen exist in similar abundance").
  mesh::Hierarchy h = chem_box(1.0);
  Grid* g = h.grids(0)[0];
  chemistry::ChemistryParams prm;
  prm.cooling = false;
  chemistry::initialize_primordial_composition(*g, prm, 1e-8, 1e-3);
  set_temperature(*g, 1500.0);
  auto u = make_units(1e11);
  chemistry::solve_chemistry_step(*g, 3.15e9, prm, u);  // ~100 yr
  const int si = g->sx(1), sj = g->sy(1), sk = g->sz(1);
  const double fH2 = g->field(Field::kH2I)(si, sj, sk) /
                     (prm.hydrogen_fraction *
                      g->field(Field::kDensity)(si, sj, sk));
  EXPECT_GT(fH2, 0.3);
}

// ---- cooling ---------------------------------------------------------------------

TEST(Chemistry, HotIonizedGasCools) {
  mesh::Hierarchy h = chem_box(1.0);
  Grid* g = h.grids(0)[0];
  chemistry::ChemistryParams prm;
  chemistry::initialize_primordial_composition(*g, prm, 0.5, 0.0);
  set_temperature(*g, 3e4);
  auto u = make_units(1.0);
  const int si = g->sx(1), sj = g->sy(1), sk = g->sz(1);
  const double T0 = chemistry::cell_temperature(*g, si, sj, sk, u);
  chemistry::solve_chemistry_step(*g, 3.15e14, prm, u);
  const double T1 = chemistry::cell_temperature(*g, si, sj, sk, u);
  EXPECT_LT(T1, 0.8 * T0);
  EXPECT_GT(T1, prm.temperature_floor);
}

TEST(Chemistry, H2CooledGasApproachesFewHundredKelvin) {
  // §4: molecular-line cooling brings the cloud core to a few hundred K.
  mesh::Hierarchy h = chem_box(1.0);
  Grid* g = h.grids(0)[0];
  chemistry::ChemistryParams prm;
  chemistry::initialize_primordial_composition(*g, prm, 1e-4, 5e-4);
  set_temperature(*g, 2000.0);
  auto u = make_units(1e4);
  u.t_cmb = 2.725 * 20.0;  // z ≈ 19
  const int si = g->sx(1), sj = g->sy(1), sk = g->sz(1);
  chemistry::solve_chemistry_step(*g, 3.15e14, prm, u);  // 10 Myr
  const double T = chemistry::cell_temperature(*g, si, sj, sk, u);
  EXPECT_LT(T, 800.0);
  // The CMB at z≈19 (≈55 K) is the radiative floor for the H₂ lines.
  EXPECT_GT(T, 50.0);
}

TEST(Chemistry, ComptonCouplingWarmsGasTowardCmb) {
  mesh::Hierarchy h = chem_box(1.0);
  Grid* g = h.grids(0)[0];
  chemistry::ChemistryParams prm;
  prm.temperature_floor = 0.1;
  chemistry::initialize_primordial_composition(*g, prm, 0.3, 0.0);
  set_temperature(*g, 5.0);
  auto u = make_units(1.0);
  u.t_cmb = 2.725 * 100;  // z = 99: strong coupling
  const int si = g->sx(1), sj = g->sy(1), sk = g->sz(1);
  const double T0 = chemistry::cell_temperature(*g, si, sj, sk, u);
  chemistry::solve_chemistry_step(*g, 1e15, prm, u);
  const double T1 = chemistry::cell_temperature(*g, si, sj, sk, u);
  EXPECT_GT(T1, T0);  // heated toward the CMB temperature
}

// ---- robustness -------------------------------------------------------------------

TEST(Chemistry, StiffConditionsStayFiniteAndPositive) {
  mesh::Hierarchy h = chem_box(1.0);
  Grid* g = h.grids(0)[0];
  chemistry::ChemistryParams prm;
  chemistry::initialize_primordial_composition(*g, prm, 0.999, 1e-10);
  set_temperature(*g, 1e6);  // very hot and dense: violent cooling
  auto u = make_units(1e6);
  chemistry::solve_chemistry_step(*g, 1e14, prm, u);  // huge step
  for (Field f : g->field_list()) {
    const auto a = g->field(f);
    for (int k = 0; k < g->nx(2); ++k)
      for (int j = 0; j < g->nx(1); ++j)
        for (int i = 0; i < g->nx(0); ++i) {
          const double v = a(g->sx(i), g->sy(j), g->sz(k));
          EXPECT_TRUE(std::isfinite(v)) << field_name(f);
          if (mesh::is_species(f) || f == Field::kDensity) {
            EXPECT_GE(v, 0.0) << field_name(f);
          }
        }
  }
  // With cooling off and T held at 10⁶ K, helium must ionize through to
  // He⁺⁺ (collisional ionization equilibrium at that temperature).
  mesh::Hierarchy h2 = chem_box(1.0);
  Grid* g2 = h2.grids(0)[0];
  chemistry::ChemistryParams prm2;
  prm2.cooling = false;
  chemistry::initialize_primordial_composition(*g2, prm2, 0.999, 1e-10);
  auto u2 = make_units(1e4);
  for (int it = 0; it < 10; ++it) {
    set_temperature(*g2, 1e6);
    chemistry::solve_chemistry_step(*g2, 1e11, prm2, u2);
  }
  const int si = g2->sx(1), sj = g2->sy(1), sk = g2->sz(1);
  EXPECT_GT(g2->field(Field::kHeIII)(si, sj, sk),
            g2->field(Field::kHeI)(si, sj, sk));
}

TEST(Chemistry, MinCoolingTimePositiveAndFinite) {
  mesh::Hierarchy h = chem_box(1.0);
  Grid* g = h.grids(0)[0];
  chemistry::ChemistryParams prm;
  chemistry::initialize_primordial_composition(*g, prm, 0.3, 1e-4);
  set_temperature(*g, 1e4);
  auto u = make_units(1.0);
  const double tc = chemistry::min_cooling_time(*g, u);
  EXPECT_GT(tc, 0.0);
  EXPECT_TRUE(std::isfinite(tc));
}

TEST(Chemistry, TemperatureUsesTheRunsGamma) {
  // One γ per run: a chemistry deck's Gamma is the γ the chemistry's e→T
  // conversion uses, through Simulation::chem_units().
  std::istringstream text(
      "ProblemType = CollapseCloud\n"
      "TopGridDimensions = 8 8 8\n"
      "GravityEnabled = 1\n"
      "ChemistryEnabled = 1\n"
      "Gamma = 1.4\n"
      "StopSteps = 1\n");
  const core::ParameterDeck deck = core::parse_parameter_deck(text);
  core::Simulation sim(deck.config);
  core::setup_from_deck(sim, deck);
  ASSERT_EQ(sim.config().hydro.gamma, 1.4);
  const chemistry::ChemUnits u = sim.chem_units();
  const Grid& g = *sim.hierarchy().grids(0)[0];
  ASSERT_TRUE(g.has_field(Field::kH2I));
  for (const int c : {0, 3, 7}) {
    const int si = g.sx(c), sj = g.sy(c), sk = g.sz(c);
    const double e = g.field(Field::kInternalEnergy)(si, sj, sk) * u.e_cgs;
    const double want = (1.4 - 1.0) * e * chemistry::cell_mu(g, si, sj, sk) *
                        cn::kHydrogenMass / cn::kBoltzmann;
    EXPECT_NEAR(chemistry::cell_temperature(g, si, sj, sk, u), want,
                1e-12 * want)
        << "cell " << c;
  }
}

// ---- batched rate/cooling lanes vs the scalar API ---------------------------

TEST(Rates, BatchLanesMatchScalarBitwise) {
  // The scalar API is defined as the n = 1 case of the batch; evaluating a
  // long mixed-temperature row exercises the lane stride/padding logic and
  // must reproduce the scalar values bit-for-bit (no tolerance).
  const double T[] = {0.5,    1.0,   13.5,   99.0, 742.0,  6699.9, 6700.1,
                      1.0e4,  8.7e4, 1.1e6,  5e8,  2e9,    293.0,  1.0e5};
  const int n = static_cast<int>(sizeof(T) / sizeof(T[0]));
  chemistry::RateBatch batch;
  batch.compute(n, T);
  ASSERT_EQ(batch.size(), n);
  for (int i = 0; i < n; ++i) {
    const chemistry::Rates a = batch.row(i);
    const chemistry::Rates b = chemistry::compute_rates(T[i]);
    EXPECT_EQ(a.k1, b.k1) << "T=" << T[i];
    EXPECT_EQ(a.k2, b.k2) << "T=" << T[i];
    EXPECT_EQ(a.k3, b.k3) << "T=" << T[i];
    EXPECT_EQ(a.k4, b.k4) << "T=" << T[i];
    EXPECT_EQ(a.k5, b.k5) << "T=" << T[i];
    EXPECT_EQ(a.k6, b.k6) << "T=" << T[i];
    EXPECT_EQ(a.k7, b.k7) << "T=" << T[i];
    EXPECT_EQ(a.k8, b.k8) << "T=" << T[i];
    EXPECT_EQ(a.k9, b.k9) << "T=" << T[i];
    EXPECT_EQ(a.k10, b.k10) << "T=" << T[i];
    EXPECT_EQ(a.k11, b.k11) << "T=" << T[i];
    EXPECT_EQ(a.k12, b.k12) << "T=" << T[i];
    EXPECT_EQ(a.k13, b.k13) << "T=" << T[i];
    EXPECT_EQ(a.k14, b.k14) << "T=" << T[i];
    EXPECT_EQ(a.k15, b.k15) << "T=" << T[i];
    EXPECT_EQ(a.k16, b.k16) << "T=" << T[i];
    EXPECT_EQ(a.k17, b.k17) << "T=" << T[i];
    EXPECT_EQ(a.k18, b.k18) << "T=" << T[i];
    EXPECT_EQ(a.k19, b.k19) << "T=" << T[i];
    EXPECT_EQ(a.k22, b.k22) << "T=" << T[i];
    EXPECT_EQ(a.k50, b.k50) << "T=" << T[i];
    EXPECT_EQ(a.k51, b.k51) << "T=" << T[i];
    EXPECT_EQ(a.k52, b.k52) << "T=" << T[i];
    EXPECT_EQ(a.k53, b.k53) << "T=" << T[i];
    EXPECT_EQ(a.k54, b.k54) << "T=" << T[i];
    EXPECT_EQ(a.k55, b.k55) << "T=" << T[i];
    EXPECT_EQ(a.k56, b.k56) << "T=" << T[i];
    EXPECT_EQ(a.k57, b.k57) << "T=" << T[i];
  }
  // Capacity reuse across a shrinking batch must not stale-read old lanes.
  batch.compute(2, T + 3);
  const chemistry::Rates c = batch.row(1);
  const chemistry::Rates d = chemistry::compute_rates(T[4]);
  EXPECT_EQ(c.k1, d.k1);
  EXPECT_EQ(c.k13, d.k13);
  EXPECT_EQ(c.k55, d.k55);
}

TEST(Chemistry, CoolingBatchMatchesScalarBitwise) {
  const int n = 24;
  const double t_cmb = 54.5;  // z ≈ 19
  std::vector<double> T(n), nHI(n), nHII(n), nHeI(n), nHeII(n), nHeIII(n),
      ne(n), nH2(n), nHD(n), lambda(n);
  for (int i = 0; i < n; ++i) {
    // Log-spaced temperatures from below the CMB floor to fully ionized.
    T[i] = 10.0 * std::pow(10.0, 5.0 * i / (n - 1.0));
    const double nH = std::pow(10.0, -2.0 + 8.0 * i / (n - 1.0));
    nHI[i] = 0.9 * nH;
    nHII[i] = 0.1 * nH;
    nHeI[i] = 0.08 * nH;
    nHeII[i] = 0.01 * nH;
    nHeIII[i] = 0.001 * nH;
    ne[i] = nHII[i] + nHeII[i] + 2.0 * nHeIII[i];
    nH2[i] = 1e-3 * nH;
    nHD[i] = 1e-7 * nH;
  }
  const chemistry::CoolingRowInput cri{
      t_cmb,        T.data(),     nHI.data(), nHII.data(),  nHeI.data(),
      nHeII.data(), nHeIII.data(), ne.data(), nH2.data(),   nHD.data()};
  chemistry::cooling_rate_batch(n, cri, lambda.data());
  for (int i = 0; i < n; ++i) {
    const chemistry::CoolingInput ci{T[i],      t_cmb,     nHI[i],
                                     nHII[i],   nHeI[i],   nHeII[i],
                                     nHeIII[i], ne[i],     nH2[i],
                                     nHD[i]};
    EXPECT_EQ(lambda[i], chemistry::cooling_rate(ci)) << "i=" << i;
    EXPECT_TRUE(std::isfinite(lambda[i]));
  }
}
