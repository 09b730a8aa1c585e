// N-body (adaptive particle-mesh) tests: CIC deposit partition of unity and
// mass conservation, kick/drag against closed forms, extended-precision
// drift, redistribution across the hierarchy, and a self-gravitating
// plane-wave oscillation sanity check.

#include <gtest/gtest.h>

#include <cmath>

#include "gravity/gravity.hpp"
#include "mesh/hierarchy.hpp"
#include "nbody/nbody.hpp"

using namespace enzo;
using mesh::Field;
using mesh::Grid;
using mesh::Particle;

namespace {
mesh::Hierarchy make_box(int n, int max_level = 2) {
  mesh::HierarchyParams p;
  p.root_dims = {n, n, n};
  p.max_level = max_level;
  mesh::Hierarchy h(p);
  h.build_root();
  for (Grid* g : h.grids(0)) {
    for (Field f : g->field_list())
      g->field(f).fill(f == Field::kDensity ? 1.0 : 0.0);
    g->allocate_gravity();
    g->store_old_fields();
  }
  return h;
}

Particle at(double x, double y, double z, double mass = 1.0) {
  Particle p;
  p.x = {ext::pos_t(x), ext::pos_t(y), ext::pos_t(z)};
  p.mass = mass;
  return p;
}
}  // namespace

TEST(Cic, DepositAtCellCenterIsDelta) {
  mesh::Hierarchy h = make_box(8);
  Grid* g = h.grids(0)[0];
  // Cell (2,2,2) center = (2.5/8); CIC at a cell center hits only that cell.
  g->particles().push_back(at(2.5 / 8, 2.5 / 8, 2.5 / 8, 3.0));
  g->gravitating_mass().fill(0.0);
  nbody::deposit_particles_cic(*g);
  const double cellvol = 1.0 / (8.0 * 8 * 8);
  EXPECT_NEAR(g->gravitating_mass()(2 + 1, 2 + 1, 2 + 1), 3.0 / cellvol,
              1e-9 / cellvol);
  double total = 0;
  for (const double v : g->gravitating_mass()) total += v;
  EXPECT_NEAR(total * cellvol, 3.0, 1e-12);
}

TEST(Cic, DepositSplitsLinearly) {
  mesh::Hierarchy h = make_box(8);
  Grid* g = h.grids(0)[0];
  // Particle a quarter-cell right of center of cell 2: weights 0.75 / 0.25
  // along x only.
  g->particles().push_back(at((2.5 + 0.25) / 8, 2.5 / 8, 2.5 / 8, 1.0));
  g->gravitating_mass().fill(0.0);
  nbody::deposit_particles_cic(*g);
  const double inv_vol = 8.0 * 8 * 8;
  EXPECT_NEAR(g->gravitating_mass()(3, 3, 3), 0.75 * inv_vol, 1e-9 * inv_vol);
  EXPECT_NEAR(g->gravitating_mass()(4, 3, 3), 0.25 * inv_vol, 1e-9 * inv_vol);
}

TEST(Cic, PeriodicWrapConservesMass) {
  mesh::Hierarchy h = make_box(8);
  Grid* g = h.grids(0)[0];
  // Particle just inside the low corner: its cloud wraps.
  g->particles().push_back(at(0.01, 0.01, 0.01, 2.0));
  g->gravitating_mass().fill(0.0);
  nbody::deposit_particles_cic(*g);
  const double cellvol = 1.0 / (8.0 * 8 * 8);
  double total = 0;
  for (int k = 0; k < 8; ++k)
    for (int j = 0; j < 8; ++j)
      for (int i = 0; i < 8; ++i) total += g->gravitating_mass()(i + 1, j + 1, k + 1);
  EXPECT_NEAR(total * cellvol, 2.0, 1e-12);
  // Wrapped corner cell (7,7,7) received some of it.
  EXPECT_GT(g->gravitating_mass()(7 + 1, 7 + 1, 7 + 1), 0.0);
}

TEST(Nbody, KickMatchesUniformAcceleration) {
  mesh::Hierarchy h = make_box(8);
  Grid* g = h.grids(0)[0];
  g->acceleration(0).fill(2.0);
  g->acceleration(1).fill(0.0);
  g->acceleration(2).fill(-1.0);
  g->particles().push_back(at(0.5, 0.5, 0.5));
  nbody::kick_particles(*g, 0.25, /*adot_over_a=*/0.0);
  EXPECT_NEAR(g->particles()[0].v[0], 0.5, 1e-12);
  EXPECT_NEAR(g->particles()[0].v[2], -0.25, 1e-12);
}

TEST(Nbody, HubbleDragDecaysVelocity) {
  mesh::Hierarchy h = make_box(8);
  Grid* g = h.grids(0)[0];
  for (int d = 0; d < 3; ++d) g->acceleration(d).fill(0.0);
  Particle p = at(0.5, 0.5, 0.5);
  p.v = {1.0, 0, 0};
  g->particles().push_back(p);
  const double H = 0.2, dt = 0.01;
  for (int s = 0; s < 100; ++s) nbody::kick_particles(*g, dt, H);
  EXPECT_NEAR(g->particles()[0].v[0], std::exp(-H * 1.0), 2e-5);
}

TEST(Nbody, DriftMovesAndWraps) {
  mesh::Hierarchy h = make_box(8);
  Grid* g = h.grids(0)[0];
  Particle p = at(0.9, 0.5, 0.5);
  p.v = {0.4, 0, 0};
  g->particles().push_back(p);
  nbody::drift_particles(*g, 0.5, /*a=*/1.0);
  EXPECT_NEAR(ext::pos_to_double(g->particles()[0].x[0]), 0.1, 1e-12);
  // With a = 2 the comoving drift halves.
  Particle& q = g->particles()[0];
  q.x[0] = ext::pos_t(0.5);
  nbody::drift_particles(*g, 0.5, /*a=*/2.0);
  EXPECT_NEAR(ext::pos_to_double(q.x[0]), 0.6, 1e-12);
}

TEST(Nbody, DriftPreservesExtendedPrecision) {
  mesh::Hierarchy h = make_box(8);
  Grid* g = h.grids(0)[0];
  Particle p = at(1.0 / 3.0, 0.5, 0.5);
  const double v = std::ldexp(1.0, -60);  // sub-double-ulp step at x ~ 1/3
  p.v = {v, 0, 0};
  g->particles().push_back(p);
  const ext::pos_t x0 = g->particles()[0].x[0];
  for (int s = 0; s < 1000; ++s) nbody::drift_particles(*g, 1.0, 1.0);
  const ext::pos_t moved = g->particles()[0].x[0] - x0;
  EXPECT_NEAR(moved.to_double() / (1000.0 * v), 1.0, 1e-12);
}

TEST(Nbody, ParticleTimestepLimitsCellCrossing) {
  mesh::Hierarchy h = make_box(16);
  Grid* g = h.grids(0)[0];
  Particle p = at(0.5, 0.5, 0.5);
  p.v = {2.0, 0.5, 0};
  g->particles().push_back(p);
  const double dt = nbody::particle_timestep(*g, /*a=*/1.0, 0.4);
  EXPECT_NEAR(dt, 0.4 * (1.0 / 16) / 2.0, 1e-12);
}

TEST(Nbody, RedistributeFindsFinestOwner) {
  mesh::HierarchyParams hp;
  hp.root_dims = {16, 16, 16};
  hp.max_level = 1;
  mesh::Hierarchy h(hp);
  h.build_root();
  Grid* root = h.grids(0)[0];
  for (Field f : root->field_list())
    root->field(f).fill(f == Field::kDensity ? 1.0 : 0.0);
  root->store_old_fields();
  auto child = std::make_unique<Grid>(
      h.make_spec(1, {{12, 12, 12}, {20, 20, 20}}), hp.fields);
  child->set_parent(root);
  Grid* c = h.insert_grid(std::move(child));
  // A root particle that has drifted into the child's region.
  root->particles().push_back(at(0.5, 0.5, 0.5));
  // A child particle that has drifted out of the child.
  c->particles().push_back(at(0.1, 0.1, 0.1));
  nbody::redistribute_particles(h);
  ASSERT_EQ(c->particles().size(), 1u);
  ASSERT_EQ(root->particles().size(), 1u);
  EXPECT_NEAR(ext::pos_to_double(c->particles()[0].x[0]), 0.5, 1e-12);
  EXPECT_NEAR(ext::pos_to_double(root->particles()[0].x[0]), 0.1, 1e-12);
  EXPECT_EQ(nbody::total_particles(h), 2u);
}

TEST(Nbody, LatticeCreationStatistics) {
  mesh::Hierarchy h = make_box(8);
  Grid* g = h.grids(0)[0];
  std::array<util::Buffer3, 3> psi;
  for (auto& a : psi) a.resize(8, 8, 8, 0.0);
  psi[0].view()(0, 0, 0) = 0.01;  // one displaced particle
  nbody::create_lattice_particles(*g, 8, psi, /*growth=*/1.0, /*vfac=*/2.0,
                                  /*total_mass=*/1.0);
  EXPECT_EQ(g->particles().size(), 512u);
  EXPECT_NEAR(nbody::total_particle_mass(h), 1.0, 1e-12);
  // First particle displaced by 0.01 with velocity 0.02.
  EXPECT_NEAR(ext::pos_to_double(g->particles()[0].x[0]), 0.5 / 8 + 0.01,
              1e-12);
  EXPECT_NEAR(g->particles()[0].v[0], 0.02, 1e-12);
  // Uniform lattice deposits to (nearly) uniform density = total mass.
  g->gravitating_mass().fill(0.0);
  // Zero the displacement effect by resetting positions? No — deposit as-is
  // and check the mean instead.
  nbody::deposit_particles_cic(*g);
  double mean = 0;
  for (int k = 0; k < 8; ++k)
    for (int j = 0; j < 8; ++j)
      for (int i = 0; i < 8; ++i) mean += g->gravitating_mass()(i + 1, j + 1, k + 1);
  mean /= 512.0;
  EXPECT_NEAR(mean, 1.0, 1e-9);
}

TEST(Nbody, PlaneWaveCollapseAcceleratesTowardOverdensity) {
  // Self-consistency: deposit a sinusoidally perturbed particle lattice,
  // solve gravity, and verify particles are pulled toward the overdensity.
  const int n = 16;
  mesh::Hierarchy h = make_box(n);
  Grid* g = h.grids(0)[0];
  std::array<util::Buffer3, 3> psi;
  for (auto& a : psi) a.resize(n, n, n, 0.0);
  const mesh::FieldView psi_x = psi[0].view();
  for (int k = 0; k < n; ++k)
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i)
        psi_x(i, j, k) = -0.02 * std::sin(2 * M_PI * (i + 0.5) / n);
  nbody::create_lattice_particles(*g, n, psi, 1.0, 0.0, 1.0);
  // δ = −∂ψ/∂x ∝ +cos(2πx): overdensity at x = 0.
  gravity::begin_gravitating_mass(h, 0);
  g->gravitating_mass().fill(0.0);
  nbody::deposit_particles_cic(*g);
  gravity::GravityParams gp;
  gravity::solve_root_gravity(h, gp, 1.0);
  gravity::compute_accelerations(*g, 1.0);
  // Acceleration just right of x=0 must point left (toward x=0).
  EXPECT_LT(g->acceleration(0)(3, n / 2, n / 2), 0.0);
  EXPECT_GT(g->acceleration(0)(n - 4, n / 2, n / 2), 0.0);
  // Kick: particles near x=0.25 gain leftward velocity.
  nbody::kick_particles(*g, 0.1, 0.0);
  double mean_v = 0;
  int cnt = 0;
  for (const Particle& p : g->particles()) {
    const double x = ext::pos_to_double(p.x[0]);
    if (x > 0.15 && x < 0.35) {
      mean_v += p.v[0];
      ++cnt;
    }
  }
  EXPECT_LT(mean_v / cnt, 0.0);
}
