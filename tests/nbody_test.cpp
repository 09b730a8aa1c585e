// N-body (adaptive particle-mesh) tests: CIC deposit partition of unity and
// mass conservation, kick/drag against closed forms, extended-precision
// drift, redistribution across the hierarchy, a self-gravitating plane-wave
// oscillation sanity check, and every kernel on 1–4 lanes against its serial
// result bit for bit (the deposit against a one-pass oracle).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "exec/executor.hpp"
#include "gravity/gravity.hpp"
#include "mesh/hierarchy.hpp"
#include "nbody/nbody.hpp"
#include "util/rng.hpp"

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

// ---- lanes ------------------------------------------------------------------

namespace {

/// The one-pass CIC deposit: each particle adds its whole cloud in turn, in
/// particle order, then the periodic ghost wrap.  The split deposit must
/// reproduce it bit for bit.
void one_pass_deposit(Grid& g) {
  const mesh::FieldView gm = g.gravitating_mass();
  int gh[3];
  double cellvol = 1.0;
  for (int d = 0; d < 3; ++d) {
    gh[d] = g.spec().level_dims[d] > 1 ? 1 : 0;
    cellvol *= 1.0 / static_cast<double>(g.spec().level_dims[d]);
  }
  const double inv_vol = 1.0 / cellvol;
  for (const Particle& p : g.particles()) {
    int base[3];
    double w0[3];
    for (int d = 0; d < 3; ++d) {
      if (g.spec().level_dims[d] == 1) {
        base[d] = 0;
        w0[d] = 1.0;
        continue;
      }
      const ext::pos_t xi =
          p.x[d] * ext::pos_t(static_cast<double>(g.spec().level_dims[d])) -
          ext::pos_t(0.5);
      const ext::pos_t fl = ext::floor(xi);
      base[d] = static_cast<int>(static_cast<std::int64_t>(fl.to_double()) -
                                 g.box().lo[d]);
      w0[d] = 1.0 - (xi - fl).to_double();
    }
    const double dens = p.mass * inv_vol;
    for (int bz = 0; bz <= gh[2]; ++bz)
      for (int by = 0; by <= gh[1]; ++by)
        for (int bx = 0; bx <= gh[0]; ++bx) {
          const double w = (bx ? 1.0 - w0[0] : w0[0]) *
                           (by ? 1.0 - w0[1] : w0[1]) *
                           (bz ? 1.0 - w0[2] : w0[2]);
          gm.at(base[0] + bx + gh[0], base[1] + by + gh[1],
                base[2] + bz + gh[2]) += w * dens;
        }
  }
  if (g.covers_periodic_domain()) {
    const int nx = g.nx(0), ny = g.nx(1), nz = g.nx(2);
    for (int k = -gh[2]; k < nz + gh[2]; ++k)
      for (int j = -gh[1]; j < ny + gh[1]; ++j)
        for (int i = -gh[0]; i < nx + gh[0]; ++i) {
          if (i >= 0 && i < nx && j >= 0 && j < ny && k >= 0 && k < nz)
            continue;
          const int wi = ((i % nx) + nx) % nx;
          const int wj = ((j % ny) + ny) % ny;
          const int wk = ((k % nz) + nz) % nz;
          gm(wi + gh[0], wj + gh[1], wk + gh[2]) +=
              gm(i + gh[0], j + gh[1], k + gh[2]);
          gm(i + gh[0], j + gh[1], k + gh[2]) = 0.0;
        }
  }
}

/// Deposit g's particles from the same non-zero starting mass with `ex`
/// (nullptr: no executor) and with the oracle; every stored value must
/// match bit for bit.
void expect_deposit_matches_oracle(Grid& g, exec::LevelExecutor* ex,
                                   const char* what) {
  const mesh::FieldView gm = g.gravitating_mass();
  util::Rng rng(5);
  std::vector<double> start(gm.size());
  for (double& v : start) v = rng.uniform(0.5, 1.5);
  std::copy(start.begin(), start.end(), gm.begin());
  one_pass_deposit(g);
  const std::vector<double> want(gm.begin(), gm.end());
  std::copy(start.begin(), start.end(), gm.begin());
  nbody::deposit_particles_cic(g, ex);
  std::size_t bad = 0;
  for (std::size_t n = 0; n < want.size(); ++n)
    if (std::bit_cast<std::uint64_t>(gm.data()[n]) !=
        std::bit_cast<std::uint64_t>(want[n]))
      ++bad;
  EXPECT_EQ(bad, 0u) << what << ": cells that differ from the oracle";
}

void expect_deposit_matches_oracle_on_lanes(Grid& g) {
  expect_deposit_matches_oracle(g, nullptr, "no executor");
  for (int lanes = 1; lanes <= 4; ++lanes) {
    exec::ThreadPoolExecutor pool(lanes);
    const std::string what = std::to_string(lanes) + " lanes";
    expect_deposit_matches_oracle(g, &pool, what.c_str());
  }
}

}  // namespace

TEST(CicLanes, PeriodicRootMatchesOnePassOracle) {
  const int n = 16;
  mesh::Hierarchy h = make_box(n);
  Grid* g = h.grids(0)[0];
  util::Rng rng(3);
  // Random clouds with uneven masses, so each cell's sum depends on the
  // order of its terms.
  for (int i = 0; i < 6000; ++i)
    g->particles().push_back(at(rng.uniform(), rng.uniform(), rng.uniform(),
                                rng.uniform(0.1, 3.0)));
  // Clouds on cell faces in every plane (each slab boundary included), and
  // on both sides of the periodic wrap.
  for (int k = 0; k <= n; ++k) {
    const double z = static_cast<double>(k) / n;
    g->particles().push_back(at(0.3, 0.6, std::min(z, 0.999999), 1.7));
    g->particles().push_back(at(static_cast<double>(k % n) / n, 0.5 / n, z * 0.999, 0.3));
  }
  for (double e : {0.0, 1e-9, 0.5 / n, 1.0 - 1e-9, 1.0 - 0.5 / n})
    g->particles().push_back(at(e, 1.0 - e, e, 2.5));
  expect_deposit_matches_oracle_on_lanes(*g);
}

TEST(CicLanes, SubgridGhostLayerMatchesOnePassOracle) {
  mesh::HierarchyParams hp;
  hp.root_dims = {16, 16, 16};
  hp.max_level = 1;
  mesh::Hierarchy h(hp);
  h.build_root();
  Grid* root = h.grids(0)[0];
  auto child = std::make_unique<Grid>(
      h.make_spec(1, {{12, 10, 8}, {20, 22, 24}}), hp.fields);
  child->set_parent(root);
  Grid* c = h.insert_grid(std::move(child));
  c->allocate_gravity();
  // The child spans [12,20)×[10,22)×[8,24) level-1 cells (dx = 1/32).
  // Clouds inside, and clouds whose base cell is in the ghost layer.
  util::Rng rng(9);
  const double dx = 1.0 / 32;
  for (int i = 0; i < 4000; ++i)
    c->particles().push_back(at(rng.uniform(12.5, 19.5) * dx,
                                rng.uniform(10.5, 21.5) * dx,
                                rng.uniform(8.5, 23.5) * dx,
                                rng.uniform(0.1, 3.0)));
  // A cloud reaches half a cell past the box: the lowest position puts its
  // base cell in the low ghost layer, the highest its upper cell in the
  // high one.
  for (double f : {-0.5, -0.25, 0.0, 0.25, 0.5}) {
    const double up = std::min(f, 0.49);
    c->particles().push_back(at((12 + f) * dx, 15.3 * dx, (8 + f) * dx, 1.1));
    c->particles().push_back(
        at((20 + up) * dx, (22 + up) * dx, (24 + up) * dx, 0.9));
    c->particles().push_back(at(16.0 * dx, (10 + f) * dx, 16.0 * dx, 1.3));
  }
  expect_deposit_matches_oracle_on_lanes(*c);
}

namespace {

/// A 16³ periodic box holding `np` random particles with random
/// velocities and random accelerations, identical for every call.
mesh::Hierarchy random_particle_box(std::size_t np) {
  mesh::Hierarchy h = make_box(16);
  Grid* g = h.grids(0)[0];
  util::Rng rng(21);
  for (int d = 0; d < 3; ++d)
    for (double& v : g->acceleration(d)) v = rng.uniform(-1.0, 1.0);
  for (std::size_t i = 0; i < np; ++i) {
    Particle p = at(rng.uniform(), rng.uniform(), rng.uniform(),
                    rng.uniform(0.1, 2.0));
    p.v = {rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0),
           rng.uniform(-3.0, 3.0)};
    p.id = i;
    g->particles().push_back(p);
  }
  return h;
}

void expect_same_particles(const Grid& a, const Grid& b) {
  ASSERT_EQ(a.particles().size(), b.particles().size());
  for (std::size_t i = 0; i < a.particles().size(); ++i) {
    const Particle& p = a.particles()[i];
    const Particle& q = b.particles()[i];
    ASSERT_EQ(p.id, q.id) << "particle " << i;
    for (int d = 0; d < 3; ++d) {
      ASSERT_TRUE(p.x[d] == q.x[d]) << "particle " << i << " x" << d;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(p.v[d]),
                std::bit_cast<std::uint64_t>(q.v[d]))
          << "particle " << i << " v" << d;
    }
    ASSERT_EQ(p.mass, q.mass);
  }
}

}  // namespace

TEST(NbodyLanes, KickAndDriftMatchSerialOnFourLanes) {
  mesh::Hierarchy serial = random_particle_box(5000);
  mesh::Hierarchy pooled = random_particle_box(5000);
  exec::ThreadPoolExecutor pool(4);
  Grid* gs = serial.grids(0)[0];
  Grid* gp = pooled.grids(0)[0];
  nbody::kick_particles(*gs, 0.01, 0.3);
  nbody::kick_particles(*gp, 0.01, 0.3, &pool);
  expect_same_particles(*gs, *gp);
  // A long drift, so many particles cross the periodic wrap.
  nbody::drift_particles(*gs, 0.2, 0.7);
  nbody::drift_particles(*gp, 0.2, 0.7, &pool);
  expect_same_particles(*gs, *gp);
}

TEST(NbodyLanes, RedistributeMatchesSerialOnFourLanes) {
  // Root plus two level-1 grids; particles start on the wrong grids.
  auto build = [] {
    mesh::HierarchyParams hp;
    hp.root_dims = {16, 16, 16};
    hp.max_level = 1;
    auto h = std::make_unique<mesh::Hierarchy>(hp);
    h->build_root();
    Grid* root = h->grids(0)[0];
    Grid* kids[2];
    const mesh::IndexBox boxes[2] = {{{4, 4, 4}, {12, 12, 12}},
                                     {{16, 18, 20}, {28, 26, 30}}};
    for (int c = 0; c < 2; ++c) {
      auto child = std::make_unique<Grid>(h->make_spec(1, boxes[c]), hp.fields);
      child->set_parent(root);
      kids[c] = h->insert_grid(std::move(child));
    }
    Grid* owners[3] = {root, kids[0], kids[1]};
    util::Rng rng(17);
    for (std::uint64_t i = 0; i < 6000; ++i) {
      Particle p = at(rng.uniform(), rng.uniform(), rng.uniform());
      p.id = i;
      owners[i % 3]->particles().push_back(p);
    }
    return h;
  };
  auto serial = build();
  auto pooled = build();
  exec::ThreadPoolExecutor pool(4);
  nbody::redistribute_particles(*serial);
  nbody::redistribute_particles(*pooled, &pool);
  for (int l = 0; l <= 1; ++l) {
    ASSERT_EQ(serial->grids(l).size(), pooled->grids(l).size());
    for (std::size_t n = 0; n < serial->grids(l).size(); ++n)
      expect_same_particles(*serial->grids(l)[n], *pooled->grids(l)[n]);
  }
  EXPECT_EQ(nbody::total_particles(*pooled), 6000u);
}
