// Cross-cutting invariance tests: axis-orientation symmetry of the split
// solver, refinement factors other than 2 (the paper: "the refinement factor
// is constrained to be an integer"), γ-law sweeps of the Riemann/Sod
// machinery, and mirror symmetry of gravity.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/setup.hpp"
#include "core/simulation.hpp"
#include "gravity/gravity.hpp"
#include "hydro/hydro.hpp"
#include "mesh/boundary.hpp"
#include "mesh/interpolate.hpp"
#include "mesh/project.hpp"
#include "util/rng.hpp"

using namespace enzo;
using mesh::Field;
using mesh::Grid;

namespace {
constexpr Field kVel[3] = {Field::kVelocityX, Field::kVelocityY,
                           Field::kVelocityZ};

/// A 1-d blast profile placed along the given axis of a 3-d box.
mesh::Hierarchy axis_blast(int axis, int n) {
  mesh::HierarchyParams p;
  p.root_dims = {n, n, n};
  mesh::Hierarchy h(p);
  h.build_root();
  Grid* g = h.grids(0)[0];
  for (Field f : g->field_list()) g->field(f).fill(0.0);
  for (int k = 0; k < n; ++k)
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i) {
        const int idx[3] = {i, j, k};
        const double x = (idx[axis] + 0.5) / n;
        const double hot = std::abs(x - 0.5) < 0.15 ? 10.0 : 1.0;
        g->field(Field::kDensity)(g->sx(i), g->sy(j), g->sz(k)) = 1.0;
        g->field(Field::kInternalEnergy)(g->sx(i), g->sy(j), g->sz(k)) = hot;
        g->field(Field::kTotalEnergy)(g->sx(i), g->sy(j), g->sz(k)) = hot;
      }
  return h;
}
}  // namespace

class AxisSymmetry : public ::testing::TestWithParam<int> {};

TEST_P(AxisSymmetry, BlastEvolvesIdenticallyAlongEveryAxis) {
  const int axis = GetParam();
  const int n = 16;
  mesh::Hierarchy ref = axis_blast(0, n);
  mesh::Hierarchy rot = axis_blast(axis, n);
  hydro::HydroParams hp;
  auto exp = cosmology::Expansion::statics();
  for (int s = 0; s < 4; ++s) {
    for (mesh::Hierarchy* h : {&ref, &rot}) {
      mesh::set_boundary_values(*h, 0);
      Grid* g = h->grids(0)[0];
      hydro::solve_hydro_step(*g, 0.004, hp, exp);
    }
  }
  // Compare the profile along the blast axis (slices through the center).
  Grid* g0 = ref.grids(0)[0];
  Grid* g1 = rot.grids(0)[0];
  for (int i = 0; i < n; ++i) {
    int a0[3] = {i, n / 2, n / 2};
    int a1[3];
    a1[axis] = i;
    a1[(axis + 1) % 3] = n / 2;
    a1[(axis + 2) % 3] = n / 2;
    EXPECT_NEAR(
        g0->field(Field::kDensity)(g0->sx(a0[0]), g0->sy(a0[1]), g0->sz(a0[2])),
        g1->field(Field::kDensity)(g1->sx(a1[0]), g1->sy(a1[1]), g1->sz(a1[2])),
        1e-11)
        << "axis " << axis << " i=" << i;
    EXPECT_NEAR(g0->field(kVel[0])(g0->sx(a0[0]), g0->sy(a0[1]), g0->sz(a0[2])),
                g1->field(kVel[axis])(g1->sx(a1[0]), g1->sy(a1[1]),
                                      g1->sz(a1[2])),
                1e-11);
  }
}

INSTANTIATE_TEST_SUITE_P(Axes, AxisSymmetry, ::testing::Values(1, 2));

class RefineFactor : public ::testing::TestWithParam<int> {};

TEST_P(RefineFactor, HierarchyMachineryWorksAtAnyIntegerFactor) {
  const int r = GetParam();
  mesh::HierarchyParams p;
  p.root_dims = {8, 8, 8};
  p.refine_factor = r;
  p.max_level = 1;
  mesh::Hierarchy h(p);
  h.build_root();
  Grid* root = h.grids(0)[0];
  util::Rng rng(5);
  for (Field f : root->field_list())
    for (auto& v : root->field(f))
      v = mesh::is_density_like(f) ? 1.0 + rng.uniform() : 0.1;
  root->store_old_fields();
  // Refine the center.
  h.rebuild(1, [](const Grid& g, std::vector<mesh::Index3>& flags) {
    for (std::int64_t k = 3; k < 5; ++k)
      for (std::int64_t j = 3; j < 5; ++j)
        for (std::int64_t i = 3; i < 5; ++i) flags.push_back({i, j, k});
    (void)g;
  });
  ASSERT_EQ(h.deepest_level(), 1);
  h.check_invariants();
  EXPECT_EQ(h.level_dims(1)[0], 8 * r);
  // Interior fill conserved mass per covered coarse cell: project back and
  // compare with the pre-refinement root values.
  Grid* child = h.grids(1)[0];
  const auto rho_view = root->field(Field::kDensity);
  util::Buffer3 before_buf(rho_view.nx(), rho_view.ny(), rho_view.nz());
  const mesh::FieldView before = before_buf.view();
  std::copy(rho_view.begin(), rho_view.end(), before.begin());
  mesh::project_to_parent(*child, *root);
  for (int k = 0; k < 8; ++k)
    for (int j = 0; j < 8; ++j)
      for (int i = 0; i < 8; ++i)
        EXPECT_NEAR(root->field(Field::kDensity)(root->sx(i), root->sy(j),
                                                 root->sz(k)),
                    before(root->sx(i), root->sy(j), root->sz(k)), 1e-12);
  // Boundary fill works (ghosts finite, constant-preserving on constants).
  mesh::set_boundary_values(h, 1);
  for (const double v : child->field(Field::kDensity))
    EXPECT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(Factors, RefineFactor, ::testing::Values(2, 3, 4));

class GammaSweep : public ::testing::TestWithParam<double> {};

TEST_P(GammaSweep, SodTubeConservesAndStaysPositive) {
  const double gamma = GetParam();
  core::SimulationConfig cfg;
  cfg.hierarchy.root_dims = {64, 1, 1};
  cfg.hydro.gamma = gamma;
  core::Simulation sim(cfg);
  sim.initialize(core::sod_tube_setup());
  sim.evolve_until(0.1, 4000);
  Grid* g = sim.hierarchy().grids(0)[0];
  for (int i = 0; i < 64; ++i) {
    EXPECT_GT(g->field(Field::kDensity)(g->sx(i), 0, 0), 0.0);
    EXPECT_GT(g->field(Field::kInternalEnergy)(g->sx(i), 0, 0), 0.0);
    EXPECT_TRUE(std::isfinite(g->field(Field::kVelocityX)(g->sx(i), 0, 0)));
  }
  // The shock has moved right, the rarefaction left.
  EXPECT_GT(g->field(Field::kVelocityX)(g->sx(40), 0, 0), 0.05);
  EXPECT_LT(g->field(Field::kDensity)(g->sx(20), 0, 0), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Gammas, GammaSweep,
                         ::testing::Values(1.2, 1.4, 5.0 / 3.0, 2.0));

TEST(GravitySymmetry, MirrorMassesGiveMirrorForces) {
  mesh::HierarchyParams p;
  p.root_dims = {16, 16, 16};
  mesh::Hierarchy h(p);
  h.build_root();
  Grid* g = h.grids(0)[0];
  for (Field f : g->field_list()) g->field(f).fill(0.0);
  g->allocate_gravity();
  gravity::begin_gravitating_mass(h, 0);
  const auto gm = g->gravitating_mass();
  gm.fill(0.0);
  gm(4 + 1, 8 + 1, 8 + 1) = 100.0;
  gm(12 + 1, 8 + 1, 8 + 1) = 100.0;  // mirror about x = 8.5 cells
  gravity::GravityParams gp;
  gravity::solve_root_gravity(h, gp, 1.0);
  gravity::compute_accelerations(*g, 1.0);
  // Mid-plane x-acceleration vanishes by symmetry (cells 8 and 8 mirrored
  // pairs): compare mirrored samples.
  for (int off : {1, 2, 3}) {
    const double a_left = g->acceleration(0)(8 - off, 8, 8);
    const double a_right = g->acceleration(0)(8 + off, 8, 8);
    EXPECT_NEAR(a_left, -a_right, 1e-10 * std::abs(a_left) + 1e-14)
        << "off=" << off;
  }
}

TEST(Wcycle, RefineFactorFourTakesFourChildSteps) {
  core::SimulationConfig cfg;
  cfg.hierarchy.root_dims = {8, 8, 8};
  cfg.hierarchy.refine_factor = 4;
  cfg.hierarchy.max_level = 1;
  cfg.trace_wcycle = true;
  cfg.rebuild_interval = 1 << 20;
  core::Simulation sim(cfg);
  sim.add_static_region(1, {{8, 8, 8}, {24, 24, 24}});
  sim.initialize(core::uniform_setup(1.0, 1.0));
  ASSERT_EQ(sim.hierarchy().deepest_level(), 1);
  sim.advance_root_step();
  int child_steps = 0;
  for (const auto& e : sim.trace())
    if (e.level == 1) ++child_steps;
  // Uniform state: CFL scales exactly with dx, so r = 4 child steps.
  EXPECT_EQ(child_steps, 4);
  EXPECT_TRUE(sim.hierarchy().grids(1)[0]->time() ==
              sim.hierarchy().grids(0)[0]->time());
}

TEST(Boundary, SubgridAtOutflowDomainEdgeClampsGhosts) {
  // A refined region touching the domain edge of a non-periodic tube: its
  // outer ghosts must replicate the edge value (outflow), not wrap data from
  // the far side of the box.
  core::SimulationConfig cfg;
  cfg.hierarchy.root_dims = {32, 1, 1};
  cfg.hierarchy.max_level = 1;
  cfg.hydro.gamma = 1.4;
  cfg.rebuild_interval = 1 << 20;
  core::Simulation sim(cfg);
  sim.add_static_region(1, {{32, 0, 0}, {64, 1, 1}});  // right half, to edge
  sim.initialize(core::sod_tube_setup());
  ASSERT_EQ(sim.hierarchy().deepest_level(), 1);
  // Parent-level boundaries first (as EvolveLevel does): the child's
  // out-of-domain ghosts are interpolated from the *parent's* outflow-filled
  // ghost zones.
  mesh::set_boundary_values(sim.hierarchy(), 0);
  mesh::set_boundary_values(sim.hierarchy(), 1);
  Grid* child = sim.hierarchy().grids(1)[0];
  // High-x ghosts beyond the domain: must equal the rightmost state (0.125),
  // NOT the left state (1.0) that periodic wrapping would import.
  for (int gidx = child->nx(0); gidx < child->nx(0) + child->ng(0); ++gidx)
    EXPECT_NEAR(child->field(Field::kDensity)(child->sx(gidx), 0, 0), 0.125,
                1e-10);
  // And the Sod evolution stays sane through the edge-touching child.
  sim.evolve_until(0.1, 4000);
  for (int i = 0; i < 32; ++i) {
    const double rho = sim.hierarchy().grids(0)[0]->field(Field::kDensity)(
        sim.hierarchy().grids(0)[0]->sx(i), 0, 0);
    EXPECT_GT(rho, 0.0);
    EXPECT_LT(rho, 1.2);
  }
}

TEST(Hydro, DualEnergyPreservesColdSupersonicFlow) {
  // Mach ~30 uniform cold flow: total energy is ~entirely kinetic, so the
  // temperature recovered from (E − v²/2) would be garbage; the dual-energy
  // internal field must preserve it.
  mesh::HierarchyParams p;
  p.root_dims = {16, 16, 16};
  mesh::Hierarchy h(p);
  h.build_root();
  Grid* g = h.grids(0)[0];
  const double e0 = 1e-4, v0 = 0.3;  // c_s ≈ 1e-2, Mach 30
  g->field(Field::kDensity).fill(1.0);
  g->field(Field::kVelocityX).fill(v0);
  g->field(Field::kVelocityY).fill(0.0);
  g->field(Field::kVelocityZ).fill(0.0);
  g->field(Field::kInternalEnergy).fill(e0);
  g->field(Field::kTotalEnergy).fill(e0 + 0.5 * v0 * v0);
  hydro::HydroParams hp;
  auto exp = cosmology::Expansion::statics();
  for (int s = 0; s < 10; ++s) {
    mesh::set_boundary_values(h, 0);
    const double dt = hydro::compute_timestep(*g, hp, exp);
    hydro::solve_hydro_step(*g, dt, hp, exp);
  }
  // The internal energy survives to high relative accuracy.
  EXPECT_NEAR(g->field(Field::kInternalEnergy)(g->sx(8), g->sy(8), g->sz(8)),
              e0, 0.01 * e0);
}
