// Chemistry tests: rate-coefficient sanity, the coefficient table against
// the fits, conservation (nuclei & charge), recombination against the
// analytic decay, collisional ionization equilibrium, H₂ formation in the
// low- and high-density (three-body) regimes, cooling behaviour including
// the Compton–CMB coupling, solver robustness under stiff conditions and
// non-finite input, the lane kernel against a scalar oracle, and
// determinism across lane counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "chemistry/chemistry.hpp"
#include "chemistry/rates.hpp"
#include "core/parameter_file.hpp"
#include "core/simulation.hpp"
#include "exec/executor.hpp"
#include "mesh/hierarchy.hpp"
#include "perf/metrics.hpp"
#include "util/constants.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

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

// ---- the coefficient table --------------------------------------------------

namespace {

/// Every tabulated coefficient, in table order.
std::vector<chemistry::Coef> every_coef() {
  std::vector<chemistry::Coef> all;
  for (int c = 0; c < chemistry::kNumCoefs; ++c)
    all.push_back(static_cast<chemistry::Coef>(c));
  return all;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

TEST(Rates, TableMatchesFitsWithinTolerance) {
  // Each fit's own breaks: a lookup whose 4-node stencil straddles one reads
  // both sides of a kink or jump, so the stencil around it is excluded.
  struct Break {
    chemistry::Coef c;
    double T;
  };
  const Break breaks[] = {
      {chemistry::Coef::k9, 6700.0},     {chemistry::Coef::k17, 1e4},
      {chemistry::Coef::k18, 10.0},      {chemistry::Coef::h2_low, 13.0},
      {chemistry::Coef::h2_low, 1e5},    {chemistry::Coef::h2_n_cr, 13.0},
      {chemistry::Coef::h2_n_cr, 1e5},   {chemistry::Coef::hd, 2e4}};
  const double nodes_per_decade = chemistry::kTableNodesPerDecade;
  auto near_break = [&](chemistry::Coef c, double T) {
    for (const Break& b : breaks)
      if (b.c == c &&
          std::abs(std::log10(T / b.T)) * nodes_per_decade < 2.0 + 1e-9)
        return true;
    return false;
  };
  const int samples = 100000;
  int checked = 0;
  double worst = 0.0;
  for (const chemistry::Coef c : every_coef())
    for (int s = 0; s <= samples; ++s) {
      const double T = std::pow(10.0, 9.0 * s / samples);
      const double fit = chemistry::coefficient_fit(c, T);
      if (fit < 1e-30 || near_break(c, T)) continue;
      const double rel =
          std::abs(chemistry::coefficient_lookup(c, T) - fit) / fit;
      worst = std::max(worst, rel);
      ++checked;
      EXPECT_LE(rel, 1e-5) << "coefficient " << static_cast<int>(c)
                           << " at T=" << T;
      if (rel > 1e-5) return;  // one report per failing table is enough
    }
  EXPECT_GT(checked, 25 * samples);
  RecordProperty("worst_relative_error", std::to_string(worst));

  // The assembled Λ (table) against the exact cooling_rate over the sweep
  // of Chemistry.CoolingBatchMatchesScalarBitwise.
  const int n = 24;
  const double t_cmb = 54.5;
  for (int i = 0; i < n; ++i) {
    const double nH = std::pow(10.0, -2.0 + 8.0 * i / (n - 1.0));
    chemistry::CoolingInput ci{10.0 * std::pow(10.0, 5.0 * i / (n - 1.0)),
                               t_cmb,
                               0.9 * nH,
                               0.1 * nH,
                               0.08 * nH,
                               0.01 * nH,
                               0.001 * nH,
                               0.1 * nH + 0.01 * nH + 0.002 * nH,
                               1e-3 * nH,
                               1e-7 * nH};
    const chemistry::CoolingRowInput cri{&ci.T,      &ci.n_HI,    &ci.n_HII,
                                         &ci.n_HeI,  &ci.n_HeII,  &ci.n_HeIII,
                                         &ci.n_e,    &ci.n_H2,    &ci.n_HD};
    chemistry::RateBatch coefs;
    coefs.compute(1, &ci.T);
    double table_lambda = 0.0;
    chemistry::cooling_rate_batch(coefs, chemistry::cmb_terms(ci.T_cmb), cri,
                                  &table_lambda);
    const double exact = chemistry::cooling_rate(ci);
    EXPECT_NEAR(table_lambda, exact, 1e-5 * std::abs(exact)) << "i=" << i;
  }
}

TEST(Rates, TableReadsItsEndNodesBeyondTheGrid) {
  // 1 K and 1e9 K are the first and last nodes: below and above them the
  // lookup reads those nodes' values, bit for bit, and the nodes hold the
  // fits there.  A NaN temperature lands on the first node (no cast of a
  // NaN index).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const chemistry::Coef c : every_coef()) {
    const double lo = chemistry::coefficient_lookup(c, 1.0);
    const double hi = chemistry::coefficient_lookup(c, 1e9);
    const int ci = static_cast<int>(c);
    EXPECT_TRUE(same_bits(lo, chemistry::coefficient_fit(c, 1.0))) << ci;
    EXPECT_TRUE(same_bits(hi, chemistry::coefficient_fit(c, 1e9))) << ci;
    EXPECT_TRUE(same_bits(chemistry::coefficient_lookup(c, 0.5), lo)) << ci;
    EXPECT_TRUE(same_bits(chemistry::coefficient_lookup(c, 2e9), hi)) << ci;
    EXPECT_TRUE(same_bits(chemistry::coefficient_lookup(c, nan), lo)) << ci;
  }
  const double T[] = {0.5, 1.0, 1e9, 2e9, nan, 0.0, -5.0,
                      std::numeric_limits<double>::infinity()};
  chemistry::RateBatch batch;
  batch.compute(8, T);
  for (int i = 0; i < 8; ++i) {
    const chemistry::Rates r = batch.row(i);
    const double edge = (i == 2 || i == 3 || i == 7) ? 1e9 : 1.0;
    EXPECT_TRUE(same_bits(
        r.k1, chemistry::coefficient_lookup(chemistry::Coef::k1, edge)))
        << "T=" << T[i];
    EXPECT_TRUE(same_bits(
        r.k55, chemistry::coefficient_lookup(chemistry::Coef::k55, edge)))
        << "T=" << T[i];
  }
}

// ---- batched rate/cooling lanes vs the one-cell lookup ----------------------

TEST(Rates, BatchLanesMatchScalarBitwise) {
  // A lane's value does not depend on the batch: a long mixed-temperature
  // row (lane stride and padding) reproduces the one-cell lookups
  // (coefficient_lookup, and a batch of one) bit for bit.
  const double T[] = {0.5,    1.0,   13.5,   99.0, 742.0,  6699.9, 6700.1,
                      1.0e4,  8.7e4, 1.1e6,  5e8,  2e9,    293.0,  1.0e5};
  const int n = static_cast<int>(sizeof(T) / sizeof(T[0]));
  chemistry::RateBatch batch;
  batch.compute(n, T);
  ASSERT_EQ(batch.size(), n);
  chemistry::RateBatch one;
  for (int i = 0; i < n; ++i) {
    const chemistry::Rates a = batch.row(i);
    one.compute(1, &T[i]);
    const chemistry::Rates b = one.row(0);
    const double av[] = {a.k1,  a.k2,  a.k3,  a.k4,  a.k5,  a.k6,  a.k7,
                         a.k8,  a.k9,  a.k10, a.k11, a.k12, a.k13, a.k14,
                         a.k15, a.k16, a.k17, a.k18, a.k19, a.k22, a.k50,
                         a.k51, a.k52, a.k53, a.k54, a.k55, a.k56, a.k57};
    const double bv[] = {b.k1,  b.k2,  b.k3,  b.k4,  b.k5,  b.k6,  b.k7,
                         b.k8,  b.k9,  b.k10, b.k11, b.k12, b.k13, b.k14,
                         b.k15, b.k16, b.k17, b.k18, b.k19, b.k22, b.k50,
                         b.k51, b.k52, b.k53, b.k54, b.k55, b.k56, b.k57};
    for (std::size_t r = 0; r < std::size(av); ++r)
      EXPECT_TRUE(same_bits(av[r], bv[r])) << "T=" << T[i] << " rate " << r;
    for (int c = 0; c < chemistry::kNumCoefs; ++c) {
      const auto coef = static_cast<chemistry::Coef>(c);
      EXPECT_TRUE(same_bits(batch.lane(coef)[i],
                            chemistry::coefficient_lookup(coef, T[i])))
          << "T=" << T[i] << " coefficient " << c;
    }
    EXPECT_EQ(a.k8, chemistry::kK8);
    EXPECT_EQ(a.k56, a.k2);
    EXPECT_EQ(a.k57, a.k1);
  }
  // Capacity reuse across a shrinking batch must not stale-read old lanes.
  batch.compute(2, T + 3);
  const chemistry::Rates c = batch.row(1);
  one.compute(1, &T[4]);
  const chemistry::Rates d = one.row(0);
  EXPECT_TRUE(same_bits(c.k1, d.k1));
  EXPECT_TRUE(same_bits(c.k13, d.k13));
  EXPECT_TRUE(same_bits(c.k55, d.k55));
}

TEST(Chemistry, CoolingBatchMatchesScalarBitwise) {
  // A long row of Λ lanes reproduces one-cell calls bit for bit.
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
  const chemistry::CmbTerms cmb = chemistry::cmb_terms(t_cmb);
  const chemistry::CoolingRowInput cri{
      T.data(),     nHI.data(),    nHII.data(), nHeI.data(), nHeII.data(),
      nHeIII.data(), ne.data(),    nH2.data(),  nHD.data()};
  chemistry::RateBatch coefs;
  coefs.compute(n, T.data());
  chemistry::cooling_rate_batch(coefs, cmb, cri, lambda.data());
  chemistry::RateBatch one_coefs;
  for (int i = 0; i < n; ++i) {
    const chemistry::CoolingRowInput one{
        &T[i],      &nHI[i], &nHII[i], &nHeI[i], &nHeII[i],
        &nHeIII[i], &ne[i],  &nH2[i],  &nHD[i]};
    one_coefs.compute(1, &T[i]);
    double single = 0.0;
    chemistry::cooling_rate_batch(one_coefs, cmb, one, &single);
    EXPECT_TRUE(same_bits(lambda[i], single)) << "i=" << i;
    EXPECT_TRUE(std::isfinite(lambda[i]));
  }
}

// ---- the lane kernel against the scalar per-cell update -----------------------

namespace oracle {

using chemistry::kNumSpecies;
using chemistry::sDI, chemistry::sDII, chemistry::sE, chemistry::sH2,
    chemistry::sH2p, chemistry::sHD, chemistry::sHeI, chemistry::sHeII,
    chemistry::sHeIII, chemistry::sHI, chemistry::sHII, chemistry::sHM;

constexpr double kA[kNumSpecies] = {1, 1, 4, 4, 4, 1, 1, 2, 2, 2, 2, 3};

double charge_sum(const double n[kNumSpecies]) {
  return n[sHII] + n[sHeII] + 2.0 * n[sHeIII] + n[sDII] + n[sH2p] - n[sHM];
}

double mu_of(const double n[kNumSpecies]) {
  double ntot = 0, rho = 0;
  for (int s = 0; s < kNumSpecies; ++s) {
    ntot += n[s];
    rho += n[s] * kA[s];
  }
  rho -= n[sE] * 1.0;
  return ntot > 0 ? rho / ntot : 1.0;
}

double temperature_of(double e_cgs_specific, const double n[kNumSpecies],
                      double gamma) {
  const double mu = mu_of(n);
  return std::max((gamma - 1.0) * e_cgs_specific * mu *
                      cn::kHydrogenMass / cn::kBoltzmann,
                  1e-3);
}

double bdf(double n, double c, double d, double dt) {
  const double out = (n + dt * c) / (1.0 + dt * d);
  return std::max(out, 0.0);
}

struct CellState {
  double n[kNumSpecies];
  double e;
};

/// The scalar per-cell subcycle the lane kernel replaced, kept verbatim.
double subcycle_cell(CellState& st, const chemistry::Rates& r, double lambda,
                     double dt_remaining, double dt_s, double nH_tot,
                     double nHe_tot, double nD_tot, double rho_cgs,
                     const chemistry::ChemistryParams& prm, double gamma) {
  double* n = st.n;
  const double edot = -lambda / rho_cgs;
  const double ne_dot =
      r.k1 * n[sHI] * n[sE] - r.k2 * n[sHII] * n[sE] +
      r.k3 * n[sHeI] * n[sE] - r.k4 * n[sHeII] * n[sE] +
      r.k5 * n[sHeII] * n[sE] - r.k6 * n[sHeIII] * n[sE];
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
  n[sHeI] = bdf(n[sHeI], r.k4 * n[sHeII] * n[sE], r.k3 * n[sE], dt_sub);
  n[sHeII] = bdf(n[sHeII], r.k3 * n[sHeI] * n[sE] + r.k6 * n[sHeIII] * n[sE],
                 (r.k4 + r.k5) * n[sE], dt_sub);
  n[sHeIII] = bdf(n[sHeIII], r.k5 * n[sHeII] * n[sE], r.k6 * n[sE], dt_sub);
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
  n[sHM] = bdf(n[sHM], r.k7 * n[sHI] * n[sE],
               r.k8 * n[sHI] + r.k14 * n[sE] + r.k15 * n[sHI] +
                   (r.k16 + r.k17) * n[sHII] + r.k19 * n[sH2p],
               dt_sub);
  n[sH2p] = bdf(n[sH2p],
                r.k9 * n[sHI] * n[sHII] + r.k11 * n[sH2] * n[sHII] +
                    r.k17 * n[sHM] * n[sHII],
                r.k10 * n[sHI] + r.k18 * n[sE] + r.k19 * n[sHM], dt_sub);
  n[sH2] = bdf(n[sH2],
               r.k8 * n[sHM] * n[sHI] + r.k10 * n[sH2p] * n[sHI] +
                   r.k19 * n[sH2p] * n[sHM] +
                   r.k22 * n[sHI] * n[sHI] * n[sHI],
               r.k11 * n[sHII] + r.k12 * n[sE] + r.k13 * n[sHI],
               dt_sub);
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
  {
    const double sum = n[sHeI] + n[sHeII] + n[sHeIII];
    if (sum > 0) {
      const double f = nHe_tot / sum;
      n[sHeI] *= f;
      n[sHeII] *= f;
      n[sHeIII] *= f;
    }
  }
  {
    const double sum = n[sDI] + n[sDII] + n[sHD];
    if (sum > 0) {
      const double f = nD_tot / sum;
      n[sDI] *= f;
      n[sDII] *= f;
      n[sHD] *= f;
    }
  }
  n[sE] = std::max(charge_sum(n), 1e-20 * nH_tot);
  if (prm.cooling && st.e > 0.0) {
    const double k = lambda / (rho_cgs * st.e);
    if (k * dt_sub > 1e-8)
      st.e *= std::exp(-k * dt_sub);
    else
      st.e -= dt_sub * lambda / rho_cgs;
    const double mu = mu_of(n);
    const double e_floor = prm.temperature_floor * cn::kBoltzmann /
                           ((gamma - 1.0) * mu * cn::kHydrogenMass);
    st.e = std::max(st.e, e_floor);
  }
  return dt_sub;
}

/// The scalar lockstep row solver: every round evaluates the still-active
/// cells' temperatures, rates and Λ (the same table lookups the solver
/// makes) and takes one subcycle_cell per cell.  Records the round sizes.
int advance_row(std::vector<CellState>& st, const std::vector<double>& rho,
                double dt_s, const chemistry::ChemistryParams& prm,
                const chemistry::ChemUnits& units, std::vector<int>& rounds) {
  const int nx = static_cast<int>(st.size());
  std::vector<double> t(nx, 0.0), nH(nx), nHe(nx), nD(nx);
  std::vector<int> cycles(nx, 0), active;
  for (int i = 0; i < nx; ++i) {
    const double* n = st[i].n;
    nH[i] = n[sHI] + n[sHII] + n[sHM] + 2.0 * (n[sH2] + n[sH2p]) + n[sHD];
    nHe[i] = n[sHeI] + n[sHeII] + n[sHeIII];
    nD[i] = n[sDI] + n[sDII] + n[sHD];
    if (t[i] < dt_s && prm.max_subcycles > 0) active.push_back(i);
  }
  int total = 0;
  chemistry::RateBatch rates;
  const chemistry::CmbTerms cmb = chemistry::cmb_terms(units.t_cmb);
  while (!active.empty()) {
    const int m = static_cast<int>(active.size());
    rounds.push_back(m);
    std::vector<double> T(m), lambda(m, 0.0);
    std::vector<double> lane[8];
    for (auto& l : lane) l.resize(m);
    const int cooled[8] = {sHI, sHII, sHeI, sHeII, sHeIII, sE, sH2, sHD};
    for (int a = 0; a < m; ++a) {
      T[a] = temperature_of(st[active[a]].e, st[active[a]].n, units.gamma);
      for (int q = 0; q < 8; ++q) lane[q][a] = st[active[a]].n[cooled[q]];
    }
    rates.compute(m, T.data());
    if (prm.cooling) {
      const chemistry::CoolingRowInput cri{
          T.data(),       lane[0].data(), lane[1].data(), lane[2].data(),
          lane[3].data(), lane[4].data(), lane[5].data(), lane[6].data(),
          lane[7].data()};
      chemistry::cooling_rate_batch(rates, cmb, cri, lambda.data());
    }
    std::vector<int> next;
    for (int a = 0; a < m; ++a) {
      const int i = active[a];
      ++cycles[i];
      ++total;
      t[i] += subcycle_cell(st[i], rates.row(a), lambda[a], dt_s - t[i], dt_s,
                            nH[i], nHe[i], nD[i], rho[i], prm, units.gamma);
      if (t[i] < dt_s && cycles[i] < prm.max_subcycles) next.push_back(i);
    }
    active.swap(next);
  }
  return total;
}

/// solve_chemistry_step's gather, row solver and scatter, scalar.
int step(Grid& g, double dt, const chemistry::ChemistryParams& prm,
         const chemistry::ChemUnits& units, std::vector<int>& rounds) {
  const Field species[kNumSpecies] = {
      Field::kHI,   Field::kHII,      Field::kHeI, Field::kHeII,
      Field::kHeIII, Field::kElectron, Field::kHM,  Field::kH2I,
      Field::kH2II, Field::kDI,       Field::kDII, Field::kHDI};
  int total = 0;
  for (int k = 0; k < g.nx(2); ++k)
    for (int j = 0; j < g.nx(1); ++j) {
      const int sj = g.sy(j), sk = g.sz(k), nx = g.nx(0);
      std::vector<CellState> st(nx);
      std::vector<double> rho(nx), e0(nx);
      for (int i = 0; i < nx; ++i) {
        const int si = g.sx(i);
        for (int s = 0; s < kNumSpecies; ++s)
          st[i].n[s] = std::max(g.field(species[s])(si, sj, sk), 0.0) *
                       units.n_factor / kA[s];
        st[i].e = g.field(Field::kInternalEnergy)(si, sj, sk) * units.e_cgs;
        e0[i] = st[i].e;
        rho[i] = g.field(Field::kDensity)(si, sj, sk) * units.rho_cgs;
      }
      total += advance_row(st, rho, dt * units.time_s, prm, units, rounds);
      for (int i = 0; i < nx; ++i) {
        const int si = g.sx(i);
        for (int s = 0; s < kNumSpecies; ++s)
          g.field(species[s])(si, sj, sk) =
              st[i].n[s] * kA[s] / units.n_factor;
        const double de = (st[i].e - e0[i]) / units.e_cgs;
        g.field(Field::kInternalEnergy)(si, sj, sk) += de;
        g.field(Field::kTotalEnergy)(si, sj, sk) += de;
      }
    }
  return total;
}

}  // namespace oracle

namespace {

/// Active cells of every field of two grids, bit for bit.
::testing::AssertionResult same_fields(const Grid& a, const Grid& b) {
  for (Field f : a.field_list())
    for (int k = 0; k < a.nx(2); ++k)
      for (int j = 0; j < a.nx(1); ++j)
        for (int i = 0; i < a.nx(0); ++i) {
          const double va = a.field(f)(a.sx(i), a.sy(j), a.sz(k));
          const double vb = b.field(f)(b.sx(i), b.sy(j), b.sz(k));
          if (!same_bits(va, vb))
            return ::testing::AssertionFailure()
                   << mesh::field_name(f) << " at (" << i << ", " << j
                   << ", " << k << "): " << va << " vs " << vb;
        }
  return ::testing::AssertionSuccess();
}

std::uint64_t subcycle_count() {
  return perf::Registry::global().counter("chemistry.subcycles").value();
}

}  // namespace

TEST(Chemistry, LaneSubcycleMatchesScalarOracleBitwise) {
  using namespace chemistry;
  util::Rng rng(2026);
  auto log_uniform = [&](double lo, double hi) {
    return lo * std::pow(hi / lo, rng.uniform());
  };
  const double gamma = ChemUnits{}.gamma;
  // ---- one round: random cells plus the edge cells ------------------------
  const int kRandom = 61;  // odd: the lane loop's vector tail runs too
  const int kEdges = 10;
  const int m = kRandom + kEdges;
  const double dt_s = 3.0e11;
  std::vector<double> n[kNumSpecies], e(m), t(m), dt_sub(m), rho(m), nH(m),
      nHe(m), nD(m), lambda(m), exp_arg(m), e_floor(m), T(m);
  for (auto& lane : n) lane.resize(m);
  for (int a = 0; a < m; ++a) {
    const double n_H = log_uniform(1e-2, 1e12);
    const double x = log_uniform(1e-8, 1.0);
    n[sHI][a] = (1.0 - x) * n_H;
    n[sHII][a] = x * n_H;
    n[sHeI][a] = 0.08 * n_H * rng.uniform();
    n[sHeII][a] = 0.08 * n_H * log_uniform(1e-12, 1.0);
    n[sHeIII][a] = 0.08 * n_H * log_uniform(1e-14, 1.0);
    n[sHM][a] = n_H * log_uniform(1e-14, 1e-6);
    n[sH2][a] = n_H * log_uniform(1e-8, 0.5);
    n[sH2p][a] = n_H * log_uniform(1e-14, 1e-8);
    n[sDI][a] = 4e-5 * n_H * rng.uniform();
    n[sDII][a] = 4e-5 * n_H * x;
    n[sHD][a] = 4e-5 * n_H * log_uniform(1e-8, 1e-2);
    n[sE][a] = n[sHII][a] + n[sHeII][a] + 2.0 * n[sHeIII][a] + n[sDII][a];
    rho[a] = 1.3 * n_H * cn::kHydrogenMass;
    T[a] = log_uniform(1.0, 1e9);
    e[a] = T[a] * cn::kBoltzmann / ((gamma - 1.0) * cn::kHydrogenMass);
    lambda[a] = (rng.uniform() < 0.2 ? -1.0 : 1.0) * log_uniform(1e-40, 1e-15) *
                n_H * n_H;
    t[a] = rng.uniform() < 0.5 ? 0.0 : dt_s * rng.uniform();
  }
  // Edge cells, from a random cell's state.
  int a = kRandom;
  n[sE][a] = 0.0;  // ne_dot = 0 (and an electron floor from charge)
  ++a;
  for (int s : {sHI, sHII, sHM, sH2, sH2p, sHD}) n[s][a] = 0.0;  // H sum 0
  for (int s : {sHeI, sHeII, sHeIII}) n[s][a] = 0.0;           // He sum 0
  for (int s : {sDI, sDII}) n[s][a] = 0.0;                     // D sum 0
  ++a;
  e[a] = 0.0;  // e ≤ 0: no energy update, a zero e-limit
  ++a;
  e[a] = -1e10;
  ++a;
  lambda[a] = -std::abs(lambda[a]) - 1e-30;  // Compton heating, Λ < 0
  T[a] = 20.0;
  ++a;
  lambda[a] = 0.0;  // edot = 0
  ++a;
  // k·dt_sub just above and just below 1e-8: a short remaining time makes
  // dt_sub = dt_s − t, and Λ sets k.
  for (const double side : {1.0 + 1e-6, 1.0 - 1e-6}) {
    t[a] = dt_s - 1e3;
    lambda[a] = side * 1e-8 * rho[a] * e[a] / 1e3;
    n[sE][a] = 0.0;
    n[sH2][a] = 0.0;
    for (int s = 0; s < kNumSpecies; ++s) n[s][a] *= 1e-20;
    ++a;
  }
  t[a] = dt_s;  // nothing left: dt_sub = 0
  ++a;
  t[a] = dt_s * (1.0 - 1e-15);
  ++a;
  ASSERT_EQ(a, m);
  for (int c = 0; c < m; ++c) {
    nH[c] = n[sHI][c] + n[sHII][c] + n[sHM][c] +
            2.0 * (n[sH2][c] + n[sH2p][c]) + n[sHD][c];
    nHe[c] = n[sHeI][c] + n[sHeII][c] + n[sHeIII][c];
    nD[c] = n[sDI][c] + n[sDII][c] + n[sHD][c];
  }
  RateBatch rates;
  rates.compute(m, T.data());
  for (const bool cooling : {true, false}) {
    ChemistryParams prm;
    prm.cooling = cooling;
    std::vector<double> ln[kNumSpecies], le = e, lt = t;
    for (int s = 0; s < kNumSpecies; ++s) ln[s] = n[s];
    SubcycleLanes lanes{};
    for (int s = 0; s < kNumSpecies; ++s) lanes.n[s] = ln[s].data();
    lanes.e = le.data();
    lanes.t = lt.data();
    lanes.dt_sub = dt_sub.data();
    lanes.rho = rho.data();
    lanes.nH = nH.data();
    lanes.nHe = nHe.data();
    lanes.nD = nD.data();
    lanes.lambda = lambda.data();
    lanes.exp_arg = exp_arg.data();
    lanes.e_floor = e_floor.data();
    subcycle_lanes(m, lanes, rates, dt_s, prm, gamma);
    int exp_cells = 0;
    for (int c = 0; c < m; ++c) {
      oracle::CellState st{};
      for (int s = 0; s < kNumSpecies; ++s) st.n[s] = n[s][c];
      st.e = e[c];
      const double want_dt =
          oracle::subcycle_cell(st, rates.row(c), lambda[c], dt_s - t[c],
                                dt_s, nH[c], nHe[c], nD[c], rho[c], prm,
                                gamma);
      const std::string tag = "cell " + std::to_string(c) + " cooling " +
                              std::to_string(cooling);
      EXPECT_TRUE(same_bits(dt_sub[c], want_dt)) << tag;
      EXPECT_TRUE(same_bits(lt[c], t[c] + want_dt)) << tag;
      EXPECT_TRUE(same_bits(le[c], st.e)) << tag << ": " << le[c] << " vs "
                                          << st.e;
      for (int s = 0; s < kNumSpecies; ++s)
        EXPECT_TRUE(same_bits(ln[s][c], st.n[s])) << tag << " species " << s;
      if (cooling && e[c] > 0.0 &&
          lambda[c] / (rho[c] * e[c]) * want_dt > 1e-8)
        ++exp_cells;
    }
    if (cooling) {
      EXPECT_GT(exp_cells, 5);
    }
  }

  // ---- whole steps: the row solver's rounds and compaction ----------------
  // A 12×3×2 grid of quiet, cold, mostly neutral gas finishes in one or two
  // subcycles; in row (j, k) = (1, 0) one hot ionized cell keeps
  // subcycling alone after its row-mates retire.
  mesh::HierarchyParams hp;
  hp.root_dims = {12, 3, 2};
  hp.fields = mesh::chemistry_field_list();
  mesh::Hierarchy h(hp);
  h.build_root();
  Grid* g = h.grids(0)[0];
  for (Field f : g->field_list()) g->field(f).fill(0.0);
  for (auto& v : g->field(Field::kDensity)) v = log_uniform(0.5, 2.0);
  ChemistryParams prm;
  initialize_primordial_composition(*g, prm, 1e-4, 1e-5);
  set_temperature(*g, 200.0);
  for (auto& v : g->field(Field::kInternalEnergy)) v *= rng.uniform(0.5, 2.0);
  const int hi = g->sx(5), hj = g->sy(1), hk = g->sz(0);
  g->field(Field::kHII)(hi, hj, hk) = 0.5 * g->field(Field::kHI)(hi, hj, hk);
  g->field(Field::kElectron)(hi, hj, hk) = g->field(Field::kHII)(hi, hj, hk);
  g->field(Field::kInternalEnergy)(hi, hj, hk) = 2e4;
  ChemUnits u = make_units(1e3);
  u.t_cmb = 2.725 * 21.0;
  for (Field f : g->field_list())
    for (double& v : g->field(f)) v = std::isfinite(v) ? v : 0.0;
  auto copy_of = [&](mesh::Hierarchy& hc) {
    hc.build_root();
    Grid* c = hc.grids(0)[0];
    for (Field f : g->field_list()) {
      const mesh::FieldView from = g->field(f);
      std::copy(from.begin(), from.end(), c->field(f).begin());
    }
    return c;
  };
  mesh::Hierarchy h_oracle(hp), h_pool(hp);
  Grid* go = copy_of(h_oracle);
  Grid* gp = copy_of(h_pool);

  const double dt = 3e8;
  std::vector<int> rounds;
  const int want = oracle::step(*go, dt, prm, u, rounds);
  const std::uint64_t before = subcycle_count();
  solve_chemistry_step(*g, dt, prm, u);
  EXPECT_EQ(subcycle_count() - before, static_cast<std::uint64_t>(want));
  EXPECT_TRUE(same_fields(*g, *go));
  exec::ThreadPoolExecutor pool(4);
  solve_chemistry_step(*gp, dt, prm, u, &pool);
  EXPECT_TRUE(same_fields(*gp, *go));
  // The scenario happened: some row ran rounds of a single cell after
  // starting with all twelve.
  int single = 0;
  for (std::size_t r = 1; r < rounds.size(); ++r)
    if (rounds[r] == 1 && rounds[r - 1] > 1) ++single;
  EXPECT_GE(single, 1);
}

// ---- robustness: non-finite input ------------------------------------------------

TEST(Chemistry, NonFiniteInputStopsWithDiagnosis) {
  // A NaN internal energy would turn every rate of its cell into NaN.  The
  // step stops instead, naming the phase, level, grid, cell and field, on
  // the serial path and through a 4-lane pool (the executor rethrows the
  // task's exception).
  for (const int lanes : {1, 4}) {
    mesh::Hierarchy h = chem_box(1.0);
    Grid* g = h.grids(0)[0];
    chemistry::ChemistryParams prm;
    chemistry::initialize_primordial_composition(*g, prm, 1e-4, 1e-5);
    set_temperature(*g, 300.0);
    g->field(Field::kInternalEnergy)(g->sx(2), g->sy(1), g->sz(3)) =
        std::numeric_limits<double>::quiet_NaN();
    exec::ThreadPoolExecutor pool(lanes);
    std::string what;
    try {
      chemistry::solve_chemistry_step(*g, 1e10, prm, make_units(1.0),
                                      lanes == 1 ? nullptr : &pool);
    } catch (const Error& e) {
      what = e.what();
    }
    EXPECT_NE(what.find("chemistry"), std::string::npos) << what;
    EXPECT_NE(what.find("internal_energy"), std::string::npos) << what;
    EXPECT_NE(what.find("level 0"), std::string::npos) << what;
    EXPECT_NE(what.find(g->box().str()), std::string::npos) << what;
    EXPECT_NE(what.find("cell (2, 1, 3)"), std::string::npos) << what;
  }
}

// ---- determinism across lane counts -------------------------------------------------

TEST(Chemistry, CollapseCloudStepIsIdenticalAtOneAndFourLanes) {
  // One root step of a refined chemistry collapse at Threads = 1 and 4:
  // every field of every grid is byte-identical.  Under TSan this also has
  // several lanes reach the coefficient table's first use at once.
  auto run = [](int threads) {
    std::istringstream text(
        "ProblemType = CollapseCloud\n"
        "TopGridDimensions = 16 16 16\n"
        "MaximumRefinementLevel = 2\n"
        "RefineByBaryonMass = 0.001\n"
        "GravityEnabled = 1\n"
        "ChemistryEnabled = 1\n"
        "StopSteps = 1\n"
        "Threads = " +
        std::to_string(threads) + "\n");
    const core::ParameterDeck deck = core::parse_parameter_deck(text);
    auto sim = std::make_unique<core::Simulation>(deck.config);
    core::setup_from_deck(*sim, deck);
    sim->advance_root_step();
    return sim;
  };
  const auto serial = run(1);
  const auto pooled = run(4);
  const mesh::Hierarchy& a = serial->hierarchy();
  const mesh::Hierarchy& b = pooled->hierarchy();
  ASSERT_EQ(a.deepest_level(), b.deepest_level());
  EXPECT_GE(a.deepest_level(), 1);
  for (int l = 0; l <= a.deepest_level(); ++l) {
    const auto ga = a.grids(l);
    const auto gb = b.grids(l);
    ASSERT_EQ(ga.size(), gb.size()) << "level " << l;
    for (std::size_t i = 0; i < ga.size(); ++i) {
      ASSERT_EQ(ga[i]->box().str(), gb[i]->box().str()) << "level " << l;
      EXPECT_TRUE(same_fields(*ga[i], *gb[i]))
          << "level " << l << " grid " << ga[i]->box().str();
    }
  }
}
