// Additional coverage: unique-counting of AMR data in the analysis layer,
// hydro convergence order on smooth flows, and a parameterized collisional-
// ionization-equilibrium temperature sweep for the chemistry network.

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/analysis.hpp"
#include "chemistry/chemistry.hpp"
#include "chemistry/rates.hpp"
#include "hydro/hydro.hpp"
#include "mesh/boundary.hpp"
#include "mesh/hierarchy.hpp"
#include "util/constants.hpp"

using namespace enzo;
using mesh::Field;
using mesh::Grid;
namespace cn = enzo::constants;

TEST(Coverage, RadialProfileCountsEachLocationOnceAcrossLevels) {
  // Uniform density on a two-level hierarchy: the profile must be exactly
  // uniform and the enclosed mass must equal density × sphere volume — any
  // double counting of coarse cells under the child would break both.
  mesh::HierarchyParams p;
  p.root_dims = {16, 16, 16};
  p.max_level = 1;
  mesh::Hierarchy h(p);
  h.build_root();
  Grid* root = h.grids(0)[0];
  for (Field f : root->field_list())
    root->field(f).fill(f == Field::kDensity ? 3.0 : 0.5);
  root->store_old_fields();
  auto child = std::make_unique<Grid>(
      h.make_spec(1, {{10, 10, 10}, {22, 22, 22}}), p.fields);
  child->set_parent(root);
  for (Field f : child->field_list())
    child->field(f).fill(f == Field::kDensity ? 3.0 : 0.5);
  h.insert_grid(std::move(child));

  analysis::ProfileOptions opt;
  opt.nbins = 10;
  opt.r_min = 0.04;
  opt.r_max = 0.45;
  hydro::HydroParams hp;
  chemistry::ChemUnits units;
  ext::PosVec c{ext::pos_t(0.5), ext::pos_t(0.5), ext::pos_t(0.5)};
  const auto prof = analysis::radial_profile(h, c, opt, hp, units);
  for (int b = 0; b < opt.nbins; ++b) {
    if (prof.cell_count[b] == 0) continue;
    EXPECT_NEAR(prof.gas_density[b], 3.0, 1e-12) << "bin " << b;
  }
  // Enclosed mass at the largest populated radius ≈ 3 × (4/3)π r³ (cell
  // quantization tolerance).
  int blast = opt.nbins - 1;
  while (blast > 0 && prof.cell_count[blast] == 0) --blast;
  const double r = prof.r[blast];
  const double expected = 3.0 * 4.0 / 3.0 * M_PI * r * r * r;
  EXPECT_NEAR(prof.enclosed_gas_mass[blast], expected, 0.15 * expected);
}

TEST(Coverage, SliceOnTwoLevelsReadsChildInsideParentOutside) {
  mesh::HierarchyParams p;
  p.root_dims = {16, 16, 16};
  p.max_level = 1;
  mesh::Hierarchy h(p);
  h.build_root();
  Grid* root = h.grids(0)[0];
  for (Field f : root->field_list()) root->field(f).fill(1.0);
  root->store_old_fields();
  auto child = std::make_unique<Grid>(
      h.make_spec(1, {{12, 12, 12}, {20, 20, 20}}), p.fields);
  child->set_parent(root);
  for (Field f : child->field_list()) child->field(f).fill(100.0);
  h.insert_grid(std::move(child));
  const auto s = analysis::density_slice(h, 2, ext::pos_t(0.5), {0.5, 0.5},
                                         0.5, 64);
  // Center pixel = child (log10 100 = 2), corner = root (0).
  EXPECT_NEAR(s.log10_density[static_cast<std::size_t>(32) * 64 + 32], 2.0,
              1e-9);
  EXPECT_NEAR(s.log10_density[0], 0.0, 1e-9);
  EXPECT_EQ(s.finest_level_touched, 1);
}

namespace {
/// L1 error of a small-amplitude acoustic wave after one crossing time.
double acoustic_error(int n) {
  mesh::HierarchyParams p;
  p.root_dims = {n, 1, 1};
  mesh::Hierarchy h(p);
  h.build_root();
  Grid* g = h.grids(0)[0];
  const double gamma = 5.0 / 3.0;
  const double rho0 = 1.0, p0 = 1.0 / gamma;  // c_s = 1
  const double eps = 1e-4;
  auto init = [&](int i) {
    return eps * std::sin(2.0 * M_PI * (i + 0.5) / n);
  };
  for (int i = 0; i < n; ++i) {
    const double d = init(i);
    g->field(Field::kDensity)(g->sx(i), 0, 0) = rho0 * (1.0 + d);
    g->field(Field::kVelocityX)(g->sx(i), 0, 0) = d;  // right-moving mode
    g->field(Field::kVelocityY)(g->sx(i), 0, 0) = 0;
    g->field(Field::kVelocityZ)(g->sx(i), 0, 0) = 0;
    const double pr = p0 * (1.0 + gamma * d);
    const double ei = pr / ((gamma - 1.0) * rho0 * (1.0 + d));
    g->field(Field::kInternalEnergy)(g->sx(i), 0, 0) = ei;
    g->field(Field::kTotalEnergy)(g->sx(i), 0, 0) = ei + 0.5 * d * d;
  }
  hydro::HydroParams hp;
  hp.flattening = false;  // smooth flow
  auto exp = cosmology::Expansion::statics();
  double t = 0;
  const double t_end = 1.0;  // one crossing at c_s = 1
  while (t < t_end) {
    mesh::set_boundary_values(h, 0);
    double dt = std::min(hydro::compute_timestep(*g, hp, exp), t_end - t);
    hydro::solve_hydro_step(*g, dt, hp, exp);
    t += dt;
  }
  // The wave returns to its initial phase (speed 1, period 1).
  double l1 = 0;
  for (int i = 0; i < n; ++i)
    l1 += std::abs(g->field(Field::kDensity)(g->sx(i), 0, 0) -
                   rho0 * (1.0 + init(i)));
  return l1 / n / eps;
}
}  // namespace

TEST(Coverage, AcousticWaveConvergesAtHighOrder) {
  const double e32 = acoustic_error(32);
  const double e64 = acoustic_error(64);
  // PPM on smooth flow: better than 2nd order between these resolutions.
  EXPECT_LT(e64, e32 / 3.5);
  EXPECT_LT(e64, 0.02);  // small absolute phase/diffusion error
}

class CieSweep : public ::testing::TestWithParam<double> {};

TEST_P(CieSweep, NetworkRelaxesToRateRatioEquilibrium) {
  const double T = GetParam();
  mesh::HierarchyParams p;
  p.root_dims = {4, 4, 4};
  p.fields = mesh::chemistry_field_list();
  mesh::Hierarchy h(p);
  h.build_root();
  Grid* g = h.grids(0)[0];
  for (Field f : g->field_list()) g->field(f).fill(0.0);
  g->field(Field::kDensity).fill(1.0);
  chemistry::ChemistryParams prm;
  prm.cooling = false;
  prm.hydrogen_fraction = 1.0;
  chemistry::initialize_primordial_composition(*g, prm, 0.5, 0.0);
  chemistry::ChemUnits u;
  u.n_factor = 100.0;
  u.rho_cgs = 100.0 * cn::kHydrogenMass;
  u.e_cgs = cn::kBoltzmann / cn::kHydrogenMass;
  u.time_s = 1.0;
  auto pin = [&] {
    for (int k = 0; k < g->nt(2); ++k)
      for (int j = 0; j < g->nt(1); ++j)
        for (int i = 0; i < g->nt(0); ++i) {
          const double mu = chemistry::cell_mu(*g, i, j, k);
          g->field(Field::kInternalEnergy)(i, j, k) =
              T / ((u.gamma - 1.0) * mu);
        }
  };
  for (int it = 0; it < 40; ++it) {
    pin();
    chemistry::solve_chemistry_step(*g, 5e12, prm, u);
  }
  const auto r = chemistry::compute_rates(T);
  const int si = g->sx(1), sj = g->sy(1), sk = g->sz(1);
  const double x = g->field(Field::kHII)(si, sj, sk) /
                   (g->field(Field::kHII)(si, sj, sk) +
                    g->field(Field::kHI)(si, sj, sk));
  const double x_eq = r.k1 / (r.k1 + r.k2);
  EXPECT_NEAR(x, x_eq, 0.05 + 0.05 * x_eq) << "T=" << T;
}

INSTANTIATE_TEST_SUITE_P(Temperatures, CieSweep,
                         ::testing::Values(1.2e4, 1.6e4, 2e4, 3e4, 5e4));
