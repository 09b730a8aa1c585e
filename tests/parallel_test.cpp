// Parallel-layer tests (§3.4 machinery): transport semantics, sterile-object
// lookups, LPT load balancing vs round-robin on SAMR-like skewed loads,
// pipelined send ordering wait-time reduction, and the distributed halo
// exchange against the serial reference (with probe-count accounting).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "mesh/hierarchy.hpp"
#include "parallel/comm.hpp"
#include "parallel/distributed.hpp"
#include "parallel/load_balance.hpp"
#include "parallel/pipeline.hpp"
#include "parallel/sterile.hpp"
#include "util/rng.hpp"

using namespace enzo;
using namespace enzo::parallel;

// ---- transport -------------------------------------------------------------------

TEST(Transport, SendReceiveRoundTrip) {
  Transport t(2);
  run_ranks(t, [&](int rank) {
    if (rank == 0) {
      Message m;
      m.src = 0;
      m.dst = 1;
      m.tag = 7;
      m.object_id = 42;
      m.payload = {1.0, 2.0, 3.0};
      t.send(std::move(m));
    } else {
      Message m = t.receive(1, 0, 7, 42);
      EXPECT_EQ(m.payload.size(), 3u);
      EXPECT_DOUBLE_EQ(m.payload[1], 2.0);
    }
  });
  EXPECT_EQ(t.stats().sends, 1u);
  EXPECT_EQ(t.stats().receives, 1u);
  EXPECT_EQ(t.stats().probes, 0u);
}

TEST(Transport, AnySourceCountsAsProbe) {
  Transport t(2);
  run_ranks(t, [&](int rank) {
    if (rank == 0) {
      Message m;
      m.src = 0;
      m.dst = 1;
      m.tag = 1;
      m.object_id = 5;
      t.send(std::move(m));
    } else {
      (void)t.receive(1, /*src=*/-1, 1, 5);
    }
  });
  EXPECT_EQ(t.stats().probes, 1u);
}

TEST(Transport, MatchingIsByTagAndObject) {
  Transport t(1);
  Message a;
  a.src = 0;
  a.dst = 0;
  a.tag = 1;
  a.object_id = 10;
  a.payload = {1.0};
  Message b = a;
  b.tag = 2;
  b.payload = {2.0};
  t.send(std::move(a));
  t.send(std::move(b));
  // Receive out of order: tag 2 first.
  Message m2 = t.receive(0, 0, 2, 10);
  EXPECT_DOUBLE_EQ(m2.payload[0], 2.0);
  Message m1 = t.receive(0, 0, 1, 10);
  EXPECT_DOUBLE_EQ(m1.payload[0], 1.0);
  EXPECT_FALSE(t.try_receive(0, 0, 1, 10).has_value());
}

TEST(Transport, BarrierSynchronizesRanks) {
  const int n = 4;
  Transport t(n);
  std::atomic<int> before{0}, after{0};
  run_ranks(t, [&](int) {
    before.fetch_add(1);
    t.barrier();
    // Everyone must have incremented before anyone proceeds.
    EXPECT_EQ(before.load(), n);
    after.fetch_add(1);
    t.barrier();
    EXPECT_EQ(after.load(), n);
  });
}

// ---- sterile objects ---------------------------------------------------------------

TEST(Sterile, MirrorsHierarchyAndFindsOverlaps) {
  mesh::HierarchyParams p;
  p.root_dims = {16, 16, 16};
  mesh::Hierarchy h(p);
  h.build_root(2);  // 8 tiles
  SterileStore store;
  store.mirror(h, {0, 1, 2, 3, 4, 5, 6, 7});
  EXPECT_EQ(store.size(), 8u);
  // A region overlapping the low corner tile plus its +x neighbour.
  mesh::IndexBox probe{{6, 0, 0}, {10, 4, 4}};
  auto hits = store.find_overlaps(0, probe, h.level_dims(0), true);
  EXPECT_EQ(hits.size(), 2u);
  // Ownership lookup is local (no transport involved).
  EXPECT_EQ(store.owner_of(hits[0].id), hits[0].owner_rank);
  EXPECT_GE(store.lookups(), 2u);
}

TEST(Sterile, PeriodicImagesAreFound) {
  mesh::HierarchyParams p;
  p.root_dims = {8, 8, 8};
  mesh::Hierarchy h(p);
  h.build_root(2);
  SterileStore store;
  store.mirror(h, std::vector<int>(8, 0));
  // Ghost region hanging off the domain's low-x face overlaps the
  // wrapped high-x tiles.
  mesh::IndexBox ghost{{-2, 0, 0}, {0, 4, 4}};
  auto hits = store.find_overlaps(0, ghost, h.level_dims(0), true);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].box.lo[0], 4);
}

// ---- load balance -------------------------------------------------------------------

TEST(LoadBalance, LptBeatsRoundRobinOnSkewedLoads) {
  // SAMR-like: a few huge grids plus many small ones (§3.4: "small regions
  // of the original grid eventually dominate the computational
  // requirements").
  util::Rng rng(5);
  std::vector<double> w;
  for (int i = 0; i < 6; ++i) w.push_back(1000.0 + 100.0 * rng.uniform());
  for (int i = 0; i < 200; ++i) w.push_back(1.0 + 5.0 * rng.uniform());
  const auto lpt = balance_lpt(w, 8);
  const auto rr = balance_round_robin(w, 8);
  // Indivisible grids put a floor at the heaviest grid ("load balancing
  // becomes a serious headache"): LPT must sit near the lower bound
  // max(avg, w_max) while round-robin lands far above it.
  const double wmax = *std::max_element(w.begin(), w.end());
  const double lower = std::max(lpt.avg_load, wmax);
  EXPECT_LE(lpt.max_load, 1.34 * lower);
  EXPECT_LT(lpt.max_load, rr.max_load);
  // Every grid assigned to a valid rank.
  for (int o : lpt.owner) {
    EXPECT_GE(o, 0);
    EXPECT_LT(o, 8);
  }
}

TEST(LoadBalance, SingleRankTakesAll) {
  const auto r = balance_lpt({3, 1, 2}, 1);
  EXPECT_DOUBLE_EQ(r.max_load, 6.0);
  EXPECT_DOUBLE_EQ(r.imbalance(), 0.0);
}

TEST(LoadBalance, LptWithinFourThirdsOfOptimal) {
  // Classic LPT bound: max load <= (4/3 - 1/3m) OPT.
  util::Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> w;
    const int n = 5 + static_cast<int>(rng.uniform(0, 50));
    double total = 0, wmax = 0;
    for (int i = 0; i < n; ++i) {
      w.push_back(std::pow(10.0, rng.uniform(0, 3)));
      total += w.back();
      wmax = std::max(wmax, w.back());
    }
    const int m = 4;
    const auto r = balance_lpt(w, m);
    const double opt_lower = std::max(total / m, wmax);
    EXPECT_LE(r.max_load, (4.0 / 3.0) * opt_lower + 1e-9);
  }
}

// ---- pipeline ---------------------------------------------------------------------

TEST(Pipeline, NeedOrderSortsSends) {
  std::vector<SendTask> tasks = {{0, 100, 2}, {1, 100, 0}, {2, 100, 1}};
  const auto order = pipeline_order(tasks);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
}

TEST(Pipeline, OrderedSendsReduceWait) {
  // Many equal-size messages whose need order is the reverse of creation
  // order: the naive schedule forces the receiver to wait for the last
  // send; the pipelined schedule overlaps everything after the first.
  std::vector<SendTask> tasks;
  const int n = 32;
  for (int i = 0; i < n; ++i) tasks.push_back({i % 4, 1e6, n - 1 - i});
  const double bw = 1e8, lat = 1e-5, proc = 1e-2;
  const double naive = simulated_wait(tasks, naive_order(tasks.size()), bw,
                                      lat, proc);
  const double piped = simulated_wait(tasks, pipeline_order(tasks), bw, lat,
                                      proc);
  EXPECT_LT(piped, 0.5 * naive);  // "a large decrease in wait times"
}

TEST(Pipeline, AlreadyOrderedGainsNothing) {
  std::vector<SendTask> tasks;
  for (int i = 0; i < 8; ++i) tasks.push_back({0, 1e6, i});
  const double naive = simulated_wait(tasks, naive_order(tasks.size()), 1e8,
                                      1e-5, 1e-2);
  const double piped =
      simulated_wait(tasks, pipeline_order(tasks), 1e8, 1e-5, 1e-2);
  EXPECT_DOUBLE_EQ(naive, piped);
}

// ---- distributed demo --------------------------------------------------------------

TEST(Distributed, MatchesSerialBitForBit) {
  const int n = 16;
  util::Buffer3 field(n, n, n);
  util::Rng rng(9);
  for (double& v : field.view()) v = rng.uniform(-1, 1);
  const auto serial = serial_jacobi(field, 3);
  DistributedRunInfo info;
  const auto dist = distributed_jacobi(field, 2, 3, /*use_sterile=*/true,
                                       &info);
  EXPECT_EQ(info.nranks, 8);
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_DOUBLE_EQ(dist.data()[i], serial.data()[i]);
  EXPECT_EQ(info.stats.probes, 0u);  // sterile metadata: direct sends only
  EXPECT_EQ(info.stats.sends, 8u * 6u * 3u);
}

TEST(Distributed, WithoutSterileMetadataEveryReceiveProbes) {
  const int n = 8;
  util::Buffer3 field(n, n, n);
  util::Rng rng(10);
  for (double& v : field.view()) v = rng.uniform(-1, 1);
  DistributedRunInfo info;
  const auto dist = distributed_jacobi(field, 2, 2, /*use_sterile=*/false,
                                       &info);
  // Still correct...
  const auto serial = serial_jacobi(field, 2);
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_NEAR(dist.data()[i], serial.data()[i], 1e-14);
  // ...but every receive needed an any-source probe (§3.4: the problem the
  // sterile objects solve).
  EXPECT_EQ(info.stats.probes, info.stats.receives);
  EXPECT_GT(info.stats.probes, 0u);
}

TEST(Distributed, SingleRankDegenerates) {
  const int n = 8;
  util::Buffer3 field(n, n, n);
  util::Rng rng(11);
  for (double& v : field.view()) v = rng.uniform(0, 1);
  const auto serial = serial_jacobi(field, 2);
  const auto dist = distributed_jacobi(field, 1, 2, true);
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_DOUBLE_EQ(dist.data()[i], serial.data()[i]);
}

// ---- distributed SAMR boundary exchange -------------------------------------

#include "mesh/boundary.hpp"
#include "parallel/distributed_hierarchy.hpp"

namespace {
mesh::Hierarchy tiled_random_level(int n, int tiles, unsigned seed) {
  mesh::HierarchyParams p;
  p.root_dims = {n, n, n};
  mesh::Hierarchy h(p);
  h.build_root(tiles);
  util::Rng rng(seed);
  for (mesh::Grid* g : h.grids(0))
    for (mesh::Field f : g->field_list())
      for (int k = 0; k < g->nx(2); ++k)
        for (int j = 0; j < g->nx(1); ++j)
          for (int i = 0; i < g->nx(0); ++i)
            g->field(f)(g->sx(i), g->sy(j), g->sz(k)) = rng.uniform(-1, 1);
  return h;
}
}  // namespace

TEST(DistributedHierarchy, PlanCoversAllGhosts) {
  mesh::Hierarchy h = tiled_random_level(8, 2, 41);
  const auto plan = plan_sibling_exchange(h, 0);
  EXPECT_FALSE(plan.empty());
  // Total transferred cells per destination tile must cover its whole ghost
  // shell (ghost cells may be covered multiple times by periodic images,
  // never zero).
  for (const mesh::Grid* g : h.grids(0)) {
    std::int64_t ghost_cells = 1;
    for (int d = 0; d < 3; ++d) ghost_cells *= g->nt(d);
    ghost_cells -= g->box().volume();
    std::int64_t covered = 0;
    for (const auto& b : plan)
      if (b.dst_id == g->id()) covered += b.region.volume();
    EXPECT_GE(covered, ghost_cells);
  }
}

TEST(DistributedHierarchy, ExchangeMatchesSerialBitForBit) {
  // Reference: the serial boundary pass on an identical hierarchy.
  mesh::Hierarchy serial = tiled_random_level(8, 2, 42);
  mesh::Hierarchy dist = tiled_random_level(8, 2, 42);
  mesh::set_boundary_values(serial, 0);

  std::vector<int> owner;
  for (std::size_t i = 0; i < dist.grids(0).size(); ++i)
    owner.push_back(static_cast<int>(i) % 4);
  const CommStats stats = distributed_sibling_exchange(dist, 0, owner, 4);

  const auto gs = serial.grids(0);
  const auto gd = dist.grids(0);
  ASSERT_EQ(gs.size(), gd.size());
  for (std::size_t n = 0; n < gs.size(); ++n)
    for (mesh::Field f : gs[n]->field_list()) {
      const auto& a = gs[n]->field(f);
      const auto& b = gd[n]->field(f);
      for (std::size_t c = 0; c < a.size(); ++c)
        ASSERT_EQ(a.data()[c], b.data()[c])
            << field_name(f) << " grid " << n << " cell " << c;
    }
  // §3.4: sterile metadata → direct sends only, zero probes.
  EXPECT_EQ(stats.probes, 0u);
  EXPECT_GT(stats.sends, 0u);
  EXPECT_EQ(stats.sends, stats.receives);
}

TEST(DistributedHierarchy, SingleRankOwnsEverything) {
  mesh::Hierarchy serial = tiled_random_level(8, 2, 43);
  mesh::Hierarchy dist = tiled_random_level(8, 2, 43);
  mesh::set_boundary_values(serial, 0);
  std::vector<int> owner(dist.grids(0).size(), 0);
  distributed_sibling_exchange(dist, 0, owner, 1);
  const auto gs = serial.grids(0);
  const auto gd = dist.grids(0);
  for (std::size_t n = 0; n < gs.size(); ++n) {
    const auto& a = gs[n]->field(mesh::Field::kDensity);
    const auto& b = gd[n]->field(mesh::Field::kDensity);
    for (std::size_t c = 0; c < a.size(); ++c)
      ASSERT_EQ(a.data()[c], b.data()[c]);
  }
}

// ---- dynamic load balancing (ref [22]) ---------------------------------------

#include "parallel/dynamic_balance.hpp"

TEST(DynamicBalance, KeepsSurvivorsInPlaceWhenBalanced) {
  DynamicBalancer bal(4, 0.5);
  std::vector<GridLoad> grids;
  for (std::uint64_t i = 0; i < 8; ++i) grids.push_back({i, 1.0, 100.0});
  const auto r1 = bal.rebalance(grids);
  EXPECT_LE(r1.imbalance, 0.01);
  EXPECT_EQ(r1.migrated_bytes, 0.0);  // first placement migrates nothing
  // Same grids again: identical assignment, zero migration.
  const auto r2 = bal.rebalance(grids);
  EXPECT_EQ(r2.migrations, 0);
  for (const auto& [id, rank] : r2.owner)
    EXPECT_EQ(rank, r1.owner.at(id));
}

TEST(DynamicBalance, NewGridsGoToLeastLoadedRanks) {
  DynamicBalancer bal(2, 0.5);
  // Rank imbalance seeded by two old heavy grids on (arbitrary) ranks.
  std::vector<GridLoad> first = {{1, 10.0, 1e6}, {2, 10.0, 1e6}};
  bal.rebalance(first);
  // Add light newcomers: they must spread, not pile onto one rank.
  std::vector<GridLoad> second = first;
  for (std::uint64_t i = 10; i < 18; ++i) second.push_back({i, 1.0, 1e4});
  const auto r = bal.rebalance(second);
  EXPECT_LE(r.imbalance, 0.15);
  EXPECT_EQ(r.migrations, 0);  // balance achievable without moving old data
}

TEST(DynamicBalance, MigratesOnlyWhenThresholdExceeded) {
  DynamicBalancer bal(2, 0.15);
  // Step 1: balanced.
  std::vector<GridLoad> grids;
  for (std::uint64_t i = 0; i < 4; ++i) grids.push_back({i, 5.0, 1e5});
  auto r = bal.rebalance(grids);
  const auto owner0 = r.owner;
  // Step 2: the grids on one rank grow heavy (deep refinement region).
  std::vector<GridLoad> grown;
  for (std::uint64_t i = 0; i < 4; ++i) {
    const double w = owner0.at(i) == 0 ? 20.0 : 5.0;
    grown.push_back({i, w, 1e5});
  }
  r = bal.rebalance(grown);
  EXPECT_GT(r.migrations, 0);          // had to move something
  EXPECT_GT(r.migrated_bytes, 0.0);
  EXPECT_LT(r.imbalance, 0.6);         // materially improved vs ~1.0 static
  EXPECT_GT(bal.total_migrated_bytes(), 0.0);
}

TEST(DynamicBalance, MonolithicGridHitsFloorWithoutThrashing) {
  DynamicBalancer bal(4, 0.1);
  // One grid dominates: no migration can fix it; the balancer must not spin.
  std::vector<GridLoad> grids = {{1, 100.0, 1e6}};
  for (std::uint64_t i = 2; i < 10; ++i) grids.push_back({i, 1.0, 1e4});
  const auto r1 = bal.rebalance(grids);
  const auto r2 = bal.rebalance(grids);
  EXPECT_EQ(r2.migrations, 0);  // stable assignment on repeat
  EXPECT_GT(r2.imbalance, 1.0);  // the documented §3.4 floor
  (void)r1;
}
