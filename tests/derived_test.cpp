// Tests for the §6 derived quantities: cooling times, two-body relaxation,
// X-ray luminosity, inertia tensors, surface-density projections, and clump
// finding.

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/derived.hpp"
#include "chemistry/chemistry.hpp"
#include "mesh/hierarchy.hpp"
#include "util/constants.hpp"
#include "util/rng.hpp"

using namespace enzo;
using mesh::Field;
using mesh::Grid;
namespace cn = enzo::constants;

namespace {
mesh::Hierarchy chem_box(int n) {
  mesh::HierarchyParams p;
  p.root_dims = {n, n, n};
  p.fields = mesh::chemistry_field_list();
  mesh::Hierarchy h(p);
  h.build_root();
  Grid* g = h.grids(0)[0];
  for (Field f : g->field_list()) g->field(f).fill(0.0);
  g->field(Field::kDensity).fill(1.0);
  return h;
}

chemistry::ChemUnits units_n(double n_cgs) {
  chemistry::ChemUnits u;
  u.n_factor = n_cgs;
  u.rho_cgs = n_cgs * cn::kHydrogenMass;
  u.e_cgs = cn::kBoltzmann / cn::kHydrogenMass;
  u.time_s = 1.0;
  return u;
}

ext::PosVec center3(double x = 0.5) {
  return {ext::pos_t(x), ext::pos_t(x), ext::pos_t(x)};
}
}  // namespace

TEST(Derived, CoolingTimeScalesInverselyWithDensity) {
  chemistry::ChemistryParams cp;
  auto setup = [&](mesh::Hierarchy& h, double T) {
    Grid* g = h.grids(0)[0];
    chemistry::initialize_primordial_composition(*g, cp, 0.3, 0.0);
    for (int k = 0; k < g->nt(2); ++k)
      for (int j = 0; j < g->nt(1); ++j)
        for (int i = 0; i < g->nt(0); ++i) {
          const double mu = chemistry::cell_mu(*g, i, j, k);
          g->field(Field::kInternalEnergy)(i, j, k) =
              T / ((chemistry::ChemUnits{}.gamma - 1.0) * mu);
        }
  };
  mesh::Hierarchy h1 = chem_box(8);
  setup(h1, 2e4);
  auto lo =
      analysis::cooling_time_in_sphere(h1, center3(), 0.4, units_n(1.0));
  mesh::Hierarchy h2 = chem_box(8);
  setup(h2, 2e4);
  auto hi =
      analysis::cooling_time_in_sphere(h2, center3(), 0.4, units_n(100.0));
  ASSERT_GT(lo.cells, 0);
  // Λ ∝ n², e·ρ ∝ n ⇒ t_cool ∝ 1/n: a factor 100 in density → ~100 in time.
  EXPECT_NEAR(lo.min / hi.min, 100.0, 20.0);
  EXPECT_NEAR(lo.mass_weighted_mean, lo.min, 1e-9 * lo.min);  // uniform box
}

TEST(Derived, RelaxationTimeGrowsWithParticleCount) {
  auto build = [&](int npart) {
    auto h = std::make_unique<mesh::Hierarchy>([] {
      mesh::HierarchyParams p;
      p.root_dims = {8, 8, 8};
      return p;
    }());
    h->build_root();
    Grid* g = h->grids(0)[0];
    for (Field f : g->field_list()) g->field(f).fill(1.0);
    util::Rng rng(3);
    for (int i = 0; i < npart; ++i) {
      mesh::Particle p;
      p.x = {ext::pos_t(0.4 + 0.2 * rng.uniform()),
             ext::pos_t(0.4 + 0.2 * rng.uniform()),
             ext::pos_t(0.4 + 0.2 * rng.uniform())};
      p.v = {rng.gaussian(), rng.gaussian(), rng.gaussian()};
      p.mass = 1.0 / npart;
      g->particles().push_back(p);
    }
    return h;
  };
  auto h_small = build(100);
  auto h_big = build(10000);
  const double t_small =
      analysis::two_body_relaxation_time(*h_small, center3(), 0.3);
  const double t_big =
      analysis::two_body_relaxation_time(*h_big, center3(), 0.3);
  // t_relax ≈ N/(8 lnN) t_cross: 100× the particles → ~50× the time.
  EXPECT_GT(t_big / t_small, 20.0);
  EXPECT_LT(t_big / t_small, 200.0);
  // No particles → infinite (collisionless limit trivially satisfied).
  mesh::Hierarchy h0 = chem_box(8);
  EXPECT_TRUE(std::isinf(
      analysis::two_body_relaxation_time(h0, center3(), 0.3)));
}

TEST(Derived, XrayLuminosityTracksIonizedDenseGas) {
  chemistry::ChemistryParams cp;
  mesh::Hierarchy h = chem_box(8);
  Grid* g = h.grids(0)[0];
  chemistry::initialize_primordial_composition(*g, cp, 0.9, 0.0);
  for (int k = 0; k < g->nt(2); ++k)
    for (int j = 0; j < g->nt(1); ++j)
      for (int i = 0; i < g->nt(0); ++i)
        g->field(Field::kInternalEnergy)(i, j, k) = 1e6;  // hot
  const double l_cm = 3.0 * cn::kKpc;
  const double lum1 =
      analysis::xray_luminosity(h, center3(), 0.45, units_n(0.01), l_cm);
  const double lum2 =
      analysis::xray_luminosity(h, center3(), 0.45, units_n(0.1), l_cm);
  EXPECT_GT(lum1, 0.0);
  // Bremsstrahlung ∝ n²: 10× density → 100× luminosity.
  EXPECT_NEAR(lum2 / lum1, 100.0, 5.0);
  // Neutral gas emits (almost) nothing.
  mesh::Hierarchy hn = chem_box(8);
  Grid* gn = hn.grids(0)[0];
  chemistry::initialize_primordial_composition(*gn, cp, 1e-8, 0.0);
  for (int k = 0; k < gn->nt(2); ++k)
    for (int j = 0; j < gn->nt(1); ++j)
      for (int i = 0; i < gn->nt(0); ++i)
        gn->field(Field::kInternalEnergy)(i, j, k) = 1e6;
  const double lum_n =
      analysis::xray_luminosity(hn, center3(), 0.45, units_n(0.1), l_cm);
  EXPECT_LT(lum_n, 1e-10 * lum2);
}

TEST(Derived, InertiaTensorDistinguishesSphereFromPancake) {
  // Sphere of uniform density.
  mesh::Hierarchy hs = chem_box(16);
  Grid* gs = hs.grids(0)[0];
  gs->field(Field::kDensity).fill(1e-12);
  for (int k = 0; k < 16; ++k)
    for (int j = 0; j < 16; ++j)
      for (int i = 0; i < 16; ++i) {
        const double x = (i + 0.5) / 16 - 0.5, y = (j + 0.5) / 16 - 0.5,
                     z = (k + 0.5) / 16 - 0.5;
        if (x * x + y * y + z * z < 0.3 * 0.3)
          gs->field(Field::kDensity)(gs->sx(i), gs->sy(j), gs->sz(k)) = 1.0;
      }
  const auto ts = analysis::gas_inertia_tensor(hs, center3(), 0.45);
  EXPECT_GT(ts.sphericity(), 0.9);

  // Pancake: a thin slab.
  mesh::Hierarchy hp = chem_box(16);
  Grid* gp = hp.grids(0)[0];
  gp->field(Field::kDensity).fill(1e-12);
  for (int j = 0; j < 16; ++j)
    for (int i = 0; i < 16; ++i)
      gp->field(Field::kDensity)(gp->sx(i), gp->sy(j), gp->sz(8)) = 1.0;
  const auto tp = analysis::gas_inertia_tensor(hp, center3(), 0.45);
  EXPECT_LT(tp.sphericity(), 0.75);
  EXPECT_GT(tp.mass, 0.0);
}

TEST(Derived, SurfaceDensityConservesColumnMass) {
  mesh::Hierarchy h = chem_box(8);
  Grid* g = h.grids(0)[0];
  util::Rng rng(4);
  for (int k = 0; k < 8; ++k)
    for (int j = 0; j < 8; ++j)
      for (int i = 0; i < 8; ++i)
        g->field(Field::kDensity)(g->sx(i), g->sy(j), g->sz(k)) =
            1.0 + rng.uniform();
  const auto proj = analysis::surface_density(h, /*axis=*/2, /*n=*/8);
  // Each map pixel equals the column sum × dz.
  for (int j = 0; j < 8; ++j)
    for (int i = 0; i < 8; ++i) {
      double col = 0;
      for (int k = 0; k < 8; ++k)
        col += g->field(Field::kDensity)(g->sx(i), g->sy(j), g->sz(k)) / 8.0;
      EXPECT_NEAR(proj.sigma[static_cast<std::size_t>(j) * 8 + i], col, 1e-12);
    }
  EXPECT_GE(proj.max, proj.min);
}

TEST(Derived, FindClumpsSeparatesAndMergesCorrectly) {
  mesh::Hierarchy h = chem_box(16);
  Grid* g = h.grids(0)[0];
  g->field(Field::kDensity).fill(0.5);
  // Two disjoint blobs, one larger.
  auto put = [&](int ci, int cj, int ck, int r, double rho) {
    for (int k = -r; k <= r; ++k)
      for (int j = -r; j <= r; ++j)
        for (int i = -r; i <= r; ++i)
          if (i * i + j * j + k * k <= r * r)
            g->field(Field::kDensity)(g->sx(ci + i), g->sy(cj + j),
                                      g->sz(ck + k)) = rho;
  };
  put(4, 4, 4, 2, 10.0);
  put(12, 12, 12, 1, 6.0);
  auto clumps = analysis::find_clumps(h, 2.0, /*map_level=*/0);
  ASSERT_EQ(clumps.size(), 2u);
  EXPECT_GT(clumps[0].mass, clumps[1].mass);
  EXPECT_DOUBLE_EQ(clumps[0].peak_density, 10.0);
  EXPECT_NEAR(ext::pos_to_double(clumps[0].center[0]), 4.5 / 16, 0.08);
  EXPECT_NEAR(ext::pos_to_double(clumps[1].center[0]), 12.5 / 16, 0.08);
  // A clump wrapping the periodic boundary stays one object.
  mesh::Hierarchy h2 = chem_box(16);
  Grid* g2 = h2.grids(0)[0];
  g2->field(Field::kDensity).fill(0.5);
  for (int di = -2; di <= 2; ++di)
    g2->field(Field::kDensity)(g2->sx((di + 16) % 16), g2->sy(8), g2->sz(8)) =
        5.0;
  auto wrapped = analysis::find_clumps(h2, 2.0, 0);
  ASSERT_EQ(wrapped.size(), 1u);
  EXPECT_EQ(wrapped[0].cells, 5);
  // Its center sits at the wrap point x≈0.
  const double cx = ext::pos_to_double(wrapped[0].center[0]);
  EXPECT_TRUE(cx < 0.1 || cx > 0.9);
}
