// Storage-arena tests: block pooling semantics (size classes, alignment,
// AllocStats accounting, blocks outliving their arena), Buffer3/particle-
// vector recycling, the regrid-storm stress contract (§5: steady-state heap
// allocations per rebuild drop to ~0 with the arena on), the
// incremental-regrid keep path, and a checkpoint round trip across storage
// modes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/auditor.hpp"
#include "core/parameter_file.hpp"
#include "core/simulation.hpp"
#include "io/checkpoint.hpp"
#include "mesh/field_storage.hpp"
#include "mesh/hierarchy.hpp"
#include "perf/metrics.hpp"
#include "util/alloc_stats.hpp"
#include "util/arena.hpp"
#include "util/array3.hpp"

using namespace enzo;
using mesh::Field;
using mesh::Grid;
using mesh::Hierarchy;
using mesh::HierarchyParams;
using mesh::Index3;

// ---- util::Arena ---------------------------------------------------------------

TEST(Arena, RoundsUpToGranularityAndAligns) {
  util::ArenaConfig cfg;
  cfg.granularity = 512;
  util::Arena a(cfg);
  util::ArenaBlock b = a.acquire(10);
  ASSERT_NE(b.ptr, nullptr);
  EXPECT_GE(b.capacity, 10u);
  EXPECT_EQ(b.capacity % 512, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.ptr) % 64, 0u);
  a.release(std::move(b));
  a.trim();
  EXPECT_EQ(a.bytes_pooled(), 0u);
}

TEST(Arena, PoolRecyclesBlocksWithoutTouchingTheHeap) {
  util::Arena a;
  const std::uint64_t heap0 = util::AllocStats::global().allocations();
  util::ArenaBlock b1 = a.acquire(100);
  double* first = b1.ptr;
  EXPECT_EQ(util::AllocStats::global().allocations(), heap0 + 1);
  a.release(std::move(b1));
  EXPECT_GT(a.bytes_pooled(), 0u);
  // Same size class (both round up to one granularity quantum): the pooled
  // block comes back and AllocStats sees no new heap event.
  util::ArenaBlock b2 = a.acquire(200);
  EXPECT_EQ(b2.ptr, first);
  EXPECT_EQ(util::AllocStats::global().allocations(), heap0 + 1);
  a.release(std::move(b2));
  a.trim();
  EXPECT_EQ(a.bytes_pooled(), 0u);
}

TEST(Arena, PoolOffIsAHeapPassthrough) {
  util::ArenaConfig cfg;
  cfg.pool = false;
  util::Arena a(cfg);
  const std::uint64_t frees0 = util::AllocStats::global().frees();
  util::ArenaBlock b = a.acquire(10);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.ptr) % 64, 0u);
  a.release(std::move(b));
  EXPECT_EQ(util::AllocStats::global().frees(), frees0 + 1);
  EXPECT_EQ(a.bytes_pooled(), 0u);
}

TEST(Arena, TrimmedBlocksServeTheNextArena) {
  double* parked = nullptr;
  {
    util::Arena a;
    util::ArenaBlock b = a.acquire(100);
    parked = b.ptr;
    a.release(std::move(b));
  }  // the destructor trims the block into the process-wide spare list
  util::Arena next;
  const std::uint64_t allocs0 = util::AllocStats::global().allocations();
  const std::uint64_t frees0 = util::AllocStats::global().frees();
  util::ArenaBlock b = next.acquire(100);
  EXPECT_EQ(b.ptr, parked);
  EXPECT_EQ(util::AllocStats::global().allocations(), allocs0 + 1);
  next.release(std::move(b));
  next.trim();
  EXPECT_EQ(util::AllocStats::global().frees(), frees0 + 1);
}

TEST(Arena, HeapFallbackMatchesAlignmentContract) {
  // Several live blocks, so the plain allocations behind them start at
  // different offsets from a 64-byte boundary.
  const std::size_t sizes[] = {0, 1, 7, 77, 1000, 4099, 262144};
  std::vector<util::ArenaBlock> blocks;
  for (std::size_t n : sizes) {
    util::ArenaBlock b = util::Arena::heap_acquire(n);
    ASSERT_NE(b.ptr, nullptr);
    EXPECT_GE(b.capacity, std::max<std::size_t>(n, 1));
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.ptr) % 64, 0u);
    std::fill(b.ptr, b.ptr + b.capacity, 1.0);  // the whole block is usable
    blocks.push_back(b);
  }
  for (util::ArenaBlock& b : blocks) util::Arena::heap_release(std::move(b));
}

// ---- util::Buffer3 / mesh::StorageArena ----------------------------------------

TEST(Buffer3, ResizeFillsEveryElementAndRecyclesThroughArena) {
  util::Arena a;
  const double* recycled = nullptr;
  {
    util::Buffer3 b;
    b.set_arena(&a);
    b.resize(4, 5, 6, 3.5);
    EXPECT_EQ(b.size(), 4u * 5u * 6u);
    for (double v : b.view()) EXPECT_EQ(v, 3.5);
    recycled = b.data();
  }  // released back to the pool
  util::Buffer3 c;
  c.set_arena(&a);
  c.resize(6, 5, 4, 0.0);  // same size class: must reuse the pooled block
  EXPECT_EQ(c.data(), recycled);
  // resize always overwrites, so a recycled block is indistinguishable from
  // a fresh one.
  for (double v : c.view()) EXPECT_EQ(v, 0.0);
}

TEST(StorageArena, ParticleVectorsRecycleWithCapacityIntact) {
  mesh::StorageArena sa;
  std::vector<mesh::Particle> v = sa.acquire_particles();
  EXPECT_TRUE(v.empty());
  v.reserve(1000);
  const std::size_t cap = v.capacity();
  v.push_back(mesh::Particle{});
  sa.release_particles(std::move(v));
  std::vector<mesh::Particle> w = sa.acquire_particles();
  EXPECT_TRUE(w.empty());
  EXPECT_GE(w.capacity(), cap);
}

// ---- regrid storm ---------------------------------------------------------------

namespace {

/// Flag a fixed global sphere of parent cells (position-based, so the same
/// boxes come back on every rebuild — the steady state of a long run).
Hierarchy::FlagFn sphere_flagger() {
  return [](const Grid& g, std::vector<Index3>& flags) {
    const Index3 dims = g.spec().level_dims;
    for (std::int64_t k = g.box().lo[2]; k < g.box().hi[2]; ++k)
      for (std::int64_t j = g.box().lo[1]; j < g.box().hi[1]; ++j)
        for (std::int64_t i = g.box().lo[0]; i < g.box().hi[0]; ++i) {
          const double x = (static_cast<double>(i) + 0.5) / dims[0] - 0.5;
          const double y = (static_cast<double>(j) + 0.5) / dims[1] - 0.5;
          const double z = (static_cast<double>(k) + 0.5) / dims[2] - 0.5;
          if (x * x + y * y + z * z < 0.2 * 0.2) flags.push_back({i, j, k});
        }
  };
}

Hierarchy storm_hierarchy(const mesh::ArenaOptions& opt) {
  HierarchyParams p;
  p.root_dims = {16, 16, 16};
  p.max_level = 2;
  p.arena = opt;
  Hierarchy h(p);
  h.build_root();
  for (Grid* g : h.grids(0)) {
    for (Field f : g->field_list()) g->field(f).fill(1.0);
    g->store_old_fields();
  }
  return h;
}

/// Heap allocations recorded by AllocStats over `reps` steady-state rebuilds
/// (pools primed by a few warm-up rebuilds first).
std::uint64_t heap_allocs_for_rebuilds(const mesh::ArenaOptions& opt,
                                       int reps) {
  Hierarchy h = storm_hierarchy(opt);
  const Hierarchy::FlagFn flag = sphere_flagger();
  for (int i = 0; i < 3; ++i) h.rebuild(1, flag);
  EXPECT_GE(h.deepest_level(), 1);
  const std::uint64_t a0 = util::AllocStats::global().allocations();
  for (int i = 0; i < reps; ++i) h.rebuild(1, flag);
  h.check_invariants();
  return util::AllocStats::global().allocations() - a0;
}

}  // namespace

TEST(RegridStorm, ArenaDropsSteadyStateHeapAllocsTenfold) {
  constexpr int kReps = 8;
  mesh::ArenaOptions off;
  off.pool = false;
  off.incremental = false;
  const std::uint64_t heap_off = heap_allocs_for_rebuilds(off, kReps);
  EXPECT_GT(heap_off, 0u);  // every rebuild re-allocates every subgrid

  // Production configuration: pooled blocks + incremental keep.  Identical
  // flags mean every grid is kept alive, so the storm touches the heap not
  // at all.
  const std::uint64_t heap_on =
      heap_allocs_for_rebuilds(mesh::ArenaOptions{}, kReps);
  EXPECT_EQ(heap_on / kReps, 0u);
  EXPECT_GE(heap_off, 10 * std::max<std::uint64_t>(heap_on, 1));

  // Pooling alone (full rebuild each time) must also absorb the storm: new
  // grids draw recycled blocks from the generation they replace.
  mesh::ArenaOptions pool_only;
  pool_only.incremental = false;
  const std::uint64_t heap_pool = heap_allocs_for_rebuilds(pool_only, kReps);
  EXPECT_GE(heap_off, 10 * std::max<std::uint64_t>(heap_pool, 1));
}

TEST(RegridStorm, IncrementalRebuildKeepsUnchangedGrids) {
  Hierarchy h = storm_hierarchy(mesh::ArenaOptions{});
  const Hierarchy::FlagFn flag = sphere_flagger();
  // Two rebuilds reach the steady state: the first creates level 2, whose
  // nesting footprint widens the level-1 flags on the second.
  h.rebuild(1, flag);
  h.rebuild(1, flag);
  ASSERT_GE(h.deepest_level(), 1);
  std::size_t refined = 0;
  for (int l = 1; l <= h.deepest_level(); ++l) refined += h.num_grids(l);
  ASSERT_GT(refined, 0u);
  static perf::Counter& kept =
      perf::Registry::global().counter("arena.regrid_kept_grids");
  const std::uint64_t kept0 = kept.value();
  h.rebuild(1, flag);  // identical boxes: every refined grid survives
  EXPECT_EQ(kept.value() - kept0, refined);
  h.check_invariants();
}

// ---- checkpoint round trip across storage modes --------------------------------

TEST(ArenaCheckpoint, RoundTripAcrossStorageModesIsBitwiseStable) {
  const std::string deck_path =
      std::string(ENZO_SOURCE_DIR) + "/decks/cosmology_box.enzo";
  const std::string ckpt = ::testing::TempDir() + "arena_roundtrip.ckpt";

  // Evolve on arena-backed storage (the default) far enough to refine, then
  // checkpoint.
  core::ParameterDeck deck = core::parse_parameter_file(deck_path);
  core::Simulation sim(deck.config);
  core::setup_from_deck(sim, deck);
  for (int s = 0; s < 2; ++s) sim.advance_root_step();
  const analysis::AuditReport before = sim.run_audit();
  io::write_checkpoint(sim, ckpt);

  // Restore into plain heap storage: the bytes in a checkpoint must not
  // depend on where the source grids kept them, and vice versa.
  core::ParameterDeck deck2 = core::parse_parameter_file(deck_path);
  deck2.config.hierarchy.arena.pool = false;
  deck2.config.hierarchy.arena.incremental = false;
  core::Simulation heap_sim(deck2.config);
  io::read_checkpoint(heap_sim, ckpt);
  const analysis::AuditReport after = heap_sim.run_audit();
  EXPECT_EQ(after.mass_total, before.mass_total);
  EXPECT_EQ(after.energy_total, before.energy_total);
  EXPECT_EQ(after.violations.size(), before.violations.size());

  // And back again into arena-backed storage.
  core::ParameterDeck deck3 = core::parse_parameter_file(deck_path);
  core::Simulation arena_sim(deck3.config);
  io::read_checkpoint(arena_sim, ckpt);
  const analysis::AuditReport again = arena_sim.run_audit();
  EXPECT_EQ(again.mass_total, before.mass_total);
  EXPECT_EQ(again.energy_total, before.energy_total);
  std::filesystem::remove(ckpt);
}
