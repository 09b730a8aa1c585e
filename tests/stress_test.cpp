// Stress and failure-injection tests: randomized rebuild cycling with
// invariants checked each generation, exact preservation of constant states
// through arbitrary hierarchy churn, guard rails (substep limits, malformed
// inputs), and precision-policy edge cases.

#include <gtest/gtest.h>

#include <cmath>

#include "core/setup.hpp"
#include "core/simulation.hpp"
#include "cosmology/grf.hpp"
#include "cosmology/power_spectrum.hpp"
#include "ext/dd.hpp"
#include "mesh/boundary.hpp"
#include "mesh/hierarchy.hpp"
#include "util/constants.hpp"
#include "util/rng.hpp"

using namespace enzo;
using mesh::Field;
using mesh::Grid;

TEST(Stress, RandomRebuildCyclesKeepInvariantsAndConstants) {
  // A constant state must survive ANY sequence of refinements exactly:
  // interpolation of a constant is the constant, projection of a constant
  // is the constant, flux correction of zero-velocity gas is zero.
  mesh::HierarchyParams p;
  p.root_dims = {16, 16, 16};
  p.max_level = 3;
  mesh::Hierarchy h(p);
  h.build_root();
  for (Grid* g : h.grids(0)) {
    for (Field f : g->field_list())
      g->field(f).fill(f == Field::kDensity ? 2.5 : 1.25);
    g->store_old_fields();
  }
  util::Rng rng(2024);
  for (int cycle = 0; cycle < 12; ++cycle) {
    // Random blobs of flags, sometimes nothing (derefinement path).
    const int nblobs = static_cast<int>(rng.uniform(0, 3.999));
    std::vector<std::array<double, 4>> blobs;
    for (int b = 0; b < nblobs; ++b)
      blobs.push_back({rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9),
                       rng.uniform(0.1, 0.9), rng.uniform(0.03, 0.2)});
    h.rebuild(1, [&](const Grid& g, std::vector<mesh::Index3>& flags) {
      const auto dims = g.spec().level_dims;
      for (std::int64_t k = g.box().lo[2]; k < g.box().hi[2]; ++k)
        for (std::int64_t j = g.box().lo[1]; j < g.box().hi[1]; ++j)
          for (std::int64_t i = g.box().lo[0]; i < g.box().hi[0]; ++i)
            for (const auto& b : blobs) {
              const double x = (i + 0.5) / dims[0] - b[0];
              const double y = (j + 0.5) / dims[1] - b[1];
              const double z = (k + 0.5) / dims[2] - b[2];
              if (x * x + y * y + z * z < b[3] * b[3]) {
                flags.push_back({i, j, k});
                break;
              }
            }
    });
    h.check_invariants();
    for (int l = 0; l <= h.deepest_level(); ++l) {
      mesh::set_boundary_values(h, l);
      for (Grid* g : h.grids(l)) {
        for (const double v : g->field(Field::kDensity))
          ASSERT_DOUBLE_EQ(v, 2.5) << "cycle " << cycle << " level " << l;
        for (const double v : g->field(Field::kTotalEnergy))
          ASSERT_DOUBLE_EQ(v, 1.25);
        g->store_old_fields();
      }
    }
  }
}

TEST(Stress, DeepHierarchyEvolvesWithExactTimeLanding) {
  // Four pinned levels; after a root step every level's clock must equal the
  // root's clock *exactly* in extended precision.
  core::SimulationConfig cfg;
  cfg.hierarchy.root_dims = {8, 8, 8};
  cfg.hierarchy.max_level = 4;
  cfg.trace_wcycle = true;
  cfg.rebuild_interval = 1 << 20;
  core::Simulation sim(cfg);
  sim.add_static_region(1, {{4, 4, 4}, {12, 12, 12}});
  sim.add_static_region(2, {{12, 12, 12}, {20, 20, 20}});
  sim.add_static_region(3, {{28, 28, 28}, {36, 36, 36}});
  sim.add_static_region(4, {{60, 60, 60}, {68, 68, 68}});
  sim.initialize(core::uniform_setup(1.0, 1.0));
  ASSERT_EQ(sim.hierarchy().deepest_level(), 4);
  sim.advance_root_step();
  const ext::pos_t t0 = sim.hierarchy().grids(0)[0]->time();
  for (int l = 1; l <= 4; ++l)
    for (Grid* g : sim.hierarchy().grids(l))
      EXPECT_TRUE(g->time() == t0) << "level " << l;
  // W-cycle bookkeeping: level l took 2^l substeps of the root step.
  int steps[5] = {0, 0, 0, 0, 0};
  for (const auto& e : sim.trace()) ++steps[e.level];
  for (int l = 0; l <= 4; ++l) EXPECT_EQ(steps[l], 1 << l) << "level " << l;
}

TEST(Stress, SubstepGuardFires) {
  // A pathological CFL mismatch must hit the max_substeps guard rather than
  // loop forever: force it by shrinking the limit.
  core::SimulationConfig cfg;
  cfg.hierarchy.root_dims = {8, 8, 8};
  cfg.hierarchy.max_level = 1;
  cfg.rebuild_interval = 1 << 20;
  cfg.max_substeps_per_level = 1;  // a 2:1 CFL ratio needs 2
  core::Simulation sim(cfg);
  sim.add_static_region(1, {{4, 4, 4}, {12, 12, 12}});
  sim.initialize(core::uniform_setup(1.0, 1.0));
  EXPECT_THROW(sim.advance_root_step(), enzo::Error);
}

TEST(Stress, GrfRejectsInvalidLattices) {
  cosmology::FrwParameters fp;
  cosmology::Frw frw(fp);
  cosmology::PowerSpectrum ps(frw);
  cosmology::InitialConditionsGenerator gen(frw, ps, constants::kMpc, 1);
  EXPECT_THROW(gen.realize(12), enzo::Error);  // not pow2
}

TEST(Stress, DdStringParsingRejectsGarbage) {
  EXPECT_THROW(ext::dd_from_string("not-a-number"), enzo::Error);
  EXPECT_THROW(ext::dd_from_string(""), enzo::Error);
  EXPECT_THROW(ext::dd_from_string("1.5e"), enzo::Error);
  // But valid forms parse.
  EXPECT_NEAR(ext::dd_from_string("42").to_double(), 42.0, 1e-30);
  EXPECT_NEAR(ext::dd_from_string("+0.5e2").to_double(), 50.0, 1e-28);
}

TEST(Stress, HierarchyRejectsStructuralAbuse) {
  mesh::HierarchyParams p;
  p.root_dims = {8, 8, 8};
  mesh::Hierarchy h(p);
  h.build_root();
  // Refined grid without a parent.
  auto orphan = std::make_unique<Grid>(
      h.make_spec(1, {{4, 4, 4}, {8, 8, 8}}), p.fields);
  EXPECT_THROW(h.insert_grid(std::move(orphan)), enzo::Error);
  // Misaligned child (odd box bounds at refinement factor 2).
  Grid* root = h.grids(0)[0];
  auto bad = std::make_unique<Grid>(
      h.make_spec(1, {{5, 4, 4}, {9, 8, 8}}), p.fields);
  bad->set_parent(root);
  h.insert_grid(std::move(bad));
  EXPECT_THROW(h.check_invariants(), enzo::Error);
}

TEST(Stress, RebuildIntervalSkipsRebuilds) {
  core::SimulationConfig cfg;
  cfg.hierarchy.root_dims = {16, 16, 16};
  cfg.hierarchy.max_level = 1;
  cfg.refinement.overdensity_threshold = 2.0;
  cfg.rebuild_interval = 3;
  core::Simulation sim(cfg);
  sim.initialize(core::ProblemSetup().fill([](core::Simulation& s) {
    Grid* g = s.hierarchy().grids(0)[0];
    for (Field f : g->field_list()) g->field(f).fill(0.0);
    const auto rho = g->field(Field::kDensity);
    for (int k = 0; k < 16; ++k)
      for (int j = 0; j < 16; ++j)
        for (int i = 0; i < 16; ++i) {
          const double x = (i + 0.5) / 16 - 0.5, y = (j + 0.5) / 16 - 0.5,
                       z = (k + 0.5) / 16 - 0.5;
          rho(g->sx(i), g->sy(j), g->sz(k)) =
              1.0 + 4.0 * std::exp(-(x * x + y * y + z * z) / 0.02);
        }
    g->field(Field::kInternalEnergy).fill(1.0);
    g->field(Field::kTotalEnergy).fill(1.0);
  }));
  // With interval 3 the level-1 set stays fixed for steps 1 and 2.
  const auto ids_before = [&] {
    std::vector<std::uint64_t> ids;
    for (Grid* c : sim.hierarchy().grids(1)) ids.push_back(c->id());
    return ids;
  }();
  sim.advance_root_step();
  std::vector<std::uint64_t> ids_after;
  for (Grid* c : sim.hierarchy().grids(1)) ids_after.push_back(c->id());
  EXPECT_EQ(ids_before, ids_after);  // no rebuild yet
  sim.advance_root_step();
  sim.advance_root_step();  // third step triggers the rebuild
  std::vector<std::uint64_t> ids_final;
  for (Grid* c : sim.hierarchy().grids(1)) ids_final.push_back(c->id());
  EXPECT_NE(ids_before, ids_final);
  sim.hierarchy().check_invariants();
}
