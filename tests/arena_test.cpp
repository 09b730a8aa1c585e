// Storage-arena tests: block pooling semantics (size classes, alignment,
// `alloc.*` heap-block accounting, blocks outliving their arena),
// Buffer3/particle-vector recycling, the regrid-storm stress contract (§5:
// zero steady-state heap allocations per rebuild), the rebuild keep path
// checked bitwise against a new grid built for the same box, and a
// checkpoint round trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/auditor.hpp"
#include "core/parameter_file.hpp"
#include "core/simulation.hpp"
#include "io/checkpoint.hpp"
#include "mesh/field_storage.hpp"
#include "mesh/hierarchy.hpp"
#include "mesh/interpolate.hpp"
#include "perf/metrics.hpp"
#include "util/arena.hpp"
#include "util/array3.hpp"

using namespace enzo;
using mesh::Field;
using mesh::Grid;
using mesh::Hierarchy;
using mesh::HierarchyParams;
using mesh::Index3;

namespace {

/// Heap-block traffic of every arena so far (the `alloc.*` counters).
std::uint64_t heap_allocations() {
  return perf::Registry::global().counter("alloc.allocations").value();
}
std::uint64_t heap_frees() {
  return perf::Registry::global().counter("alloc.frees").value();
}

}  // namespace

// ---- util::Arena ---------------------------------------------------------------

TEST(Arena, RoundsUpToGranularityAndAligns) {
  constexpr std::size_t kG = util::Arena::kGranularity;
  util::Arena a;
  util::ArenaBlock b = a.acquire(10);
  util::ArenaBlock c = a.acquire(kG + 1);
  ASSERT_NE(b.ptr, nullptr);
  ASSERT_NE(c.ptr, nullptr);
  EXPECT_EQ(b.capacity, kG);
  EXPECT_EQ(c.capacity, 2 * kG);
  EXPECT_EQ(util::Arena::capacity_for(0), kG);
  EXPECT_EQ(util::Arena::capacity_for(kG), kG);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.ptr) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c.ptr) % 64, 0u);
  a.release(std::move(b));
  a.release(std::move(c));
  a.trim();
  EXPECT_EQ(a.bytes_pooled(), 0u);
}

TEST(Arena, PoolRecyclesBlocksWithoutTouchingTheHeap) {
  util::Arena a;
  const std::uint64_t heap0 = heap_allocations();
  util::ArenaBlock b1 = a.acquire(100);
  double* first = b1.ptr;
  EXPECT_EQ(heap_allocations(), heap0 + 1);
  a.release(std::move(b1));
  EXPECT_GT(a.bytes_pooled(), 0u);
  // Same size class (both round up to one granularity quantum): the pooled
  // block comes back and `alloc.allocations` sees no new heap event.
  util::ArenaBlock b2 = a.acquire(200);
  EXPECT_EQ(b2.ptr, first);
  EXPECT_EQ(heap_allocations(), heap0 + 1);
  a.release(std::move(b2));
  a.trim();
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
  const std::uint64_t allocs0 = heap_allocations();
  const std::uint64_t frees0 = heap_frees();
  util::ArenaBlock b = next.acquire(100);
  EXPECT_EQ(b.ptr, parked);
  EXPECT_EQ(heap_allocations(), allocs0 + 1);
  next.release(std::move(b));
  next.trim();
  EXPECT_EQ(heap_frees(), frees0 + 1);
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

struct Sphere {
  double x, y, z, r;
};

/// Flag the parent cells inside fixed spheres (position-based, so a fixed
/// set of spheres brings the same boxes back on every rebuild — the steady
/// state of a long run).
Hierarchy::FlagFn sphere_flagger(std::vector<Sphere> spheres) {
  return [spheres = std::move(spheres)](const Grid& g,
                                        std::vector<Index3>& flags) {
    const Index3 dims = g.spec().level_dims;
    for (std::int64_t k = g.box().lo[2]; k < g.box().hi[2]; ++k)
      for (std::int64_t j = g.box().lo[1]; j < g.box().hi[1]; ++j)
        for (std::int64_t i = g.box().lo[0]; i < g.box().hi[0]; ++i)
          for (const Sphere& s : spheres) {
            const double x = (static_cast<double>(i) + 0.5) / dims[0] - s.x;
            const double y = (static_cast<double>(j) + 0.5) / dims[1] - s.y;
            const double z = (static_cast<double>(k) + 0.5) / dims[2] - s.z;
            if (x * x + y * y + z * z < s.r * s.r) {
              flags.push_back({i, j, k});
              break;
            }
          }
  };
}

Hierarchy storm_hierarchy() {
  HierarchyParams p;
  p.root_dims = {16, 16, 16};
  p.max_level = 2;
  Hierarchy h(p);
  h.build_root();
  for (Grid* g : h.grids(0)) {
    for (Field f : g->field_list()) g->field(f).fill(1.0);
    g->store_old_fields();
  }
  return h;
}

perf::Counter& kept_counter() {
  return perf::Registry::global().counter("arena.regrid_kept_grids");
}
perf::Counter& new_counter() {
  return perf::Registry::global().counter("arena.regrid_new_grids");
}

struct StormCounts {
  std::uint64_t heap_allocs = 0;
  std::uint64_t kept = 0;
  std::uint64_t created = 0;
};

/// Heap allocations (`alloc.allocations`) and kept/new grid counts over
/// `reps` passes through `cycle`, after three warm-up passes (the first
/// creates level 2, whose nesting footprint widens the level-1 flags on the
/// next; the rest prime the pool).
StormCounts storm(const std::vector<Hierarchy::FlagFn>& cycle, int reps) {
  Hierarchy h = storm_hierarchy();
  for (int w = 0; w < 3; ++w)
    for (const Hierarchy::FlagFn& f : cycle) h.rebuild(1, f);
  EXPECT_EQ(h.deepest_level(), 2);
  const std::uint64_t a0 = heap_allocations();
  const std::uint64_t k0 = kept_counter().value();
  const std::uint64_t n0 = new_counter().value();
  for (int i = 0; i < reps; ++i)
    for (const Hierarchy::FlagFn& f : cycle) h.rebuild(1, f);
  h.check_invariants();
  return {heap_allocations() - a0,
          kept_counter().value() - k0, new_counter().value() - n0};
}

}  // namespace

TEST(RegridStorm, SteadyStateRebuildsTouchNoHeap) {
  // Fixed flags: every refined grid is kept, storage and all.
  const StormCounts keep = storm({sphere_flagger({{0.5, 0.5, 0.5, 0.2}})}, 8);
  EXPECT_GT(keep.kept, 0u);
  EXPECT_EQ(keep.created, 0u);
  EXPECT_EQ(keep.heap_allocs, 0u);

  // Two disjoint flag patterns in turn: every rebuild creates grids, each
  // on a block the pattern before last freed.
  const StormCounts swap = storm({sphere_flagger({{0.3, 0.3, 0.3, 0.15}}),
                                  sphere_flagger({{0.7, 0.7, 0.7, 0.15}})},
                                 4);
  EXPECT_GT(swap.created, 0u);
  EXPECT_EQ(swap.heap_allocs, 0u);
}

TEST(RegridStorm, IncrementalRebuildKeepsUnchangedGrids) {
  Hierarchy h = storm_hierarchy();
  const Hierarchy::FlagFn flag = sphere_flagger({{0.5, 0.5, 0.5, 0.2}});
  // Two rebuilds reach the steady state: the first creates level 2, whose
  // nesting footprint widens the level-1 flags on the second.
  h.rebuild(1, flag);
  h.rebuild(1, flag);
  ASSERT_GE(h.deepest_level(), 1);
  std::size_t refined = 0;
  for (int l = 1; l <= h.deepest_level(); ++l) refined += h.num_grids(l);
  ASSERT_GT(refined, 0u);
  const std::uint64_t kept0 = kept_counter().value();
  h.rebuild(1, flag);  // identical boxes: every refined grid survives
  EXPECT_EQ(kept_counter().value() - kept0, refined);
  h.check_invariants();
}

namespace {

/// Overwrite every stored value of every field, ghosts included, with
/// values distinct per field and cell (offset by `salt`), so a stale or
/// misplaced byte cannot go unnoticed.
void scribble(Grid& g, double salt) {
  for (Field f : g.field_list()) {
    const mesh::FieldView v = g.field(f);
    double x = salt + static_cast<double>(mesh::field_index(f));
    for (double& c : v) c = (x += 0.001);
  }
}

bool same_bytes(mesh::ConstFieldView a, mesh::ConstFieldView b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

// A kept grid must be bitwise the grid a rebuild would otherwise build for
// the same box.  The oracle here is that new grid, built with the public
// steps the rebuild uses for one: make_grid, parent and time, parent
// interpolation of the cells no old grid covers, copies from the old grids,
// and the old-field snapshot.  (Particle staging does not branch on kept vs
// new.)
TEST(RegridStorm, KeptGridsMatchAFreshBuildBitwise) {
  Hierarchy h = storm_hierarchy();
  Grid& root = *h.grids(0)[0];
  scribble(root, 1.0);
  root.store_old_fields();
  root.set_time(ext::pos_t(0.25));
  // One blob stays put and one moves, so one rebuild both keeps and creates
  // grids.
  auto blobs = [](double moving_x) {
    return sphere_flagger({{0.3, 0.3, 0.3, 0.12}, {moving_x, 0.7, 0.7, 0.12}});
  };
  h.rebuild(1, blobs(0.7));
  h.rebuild(1, blobs(0.7));
  ASSERT_EQ(h.deepest_level(), 2);

  // Dirty every refined grid the way a step leaves it: ghosts written, old
  // fields unlike the current ones, fluxes and gravity allocated, its own
  // time.  Keep a copy of each one's active cells, as the rebuild's old-grid
  // copies read them.
  std::vector<std::vector<std::unique_ptr<Grid>>> before(3);
  std::set<std::uint64_t> old_ids;
  for (int l = 1; l <= 2; ++l)
    for (Grid* g : h.grids(l)) {
      scribble(*g, 10.0 * static_cast<double>(g->id()));
      g->store_old_fields();
      scribble(*g, 10.0 * static_cast<double>(g->id()) + 5.0);
      g->reset_fluxes();
      g->reset_boundary_fluxes();
      g->allocate_gravity();
      g->potential().fill(3.0);
      g->set_time(ext::pos_t(0.5));
      auto copy = h.make_grid(l, g->box());
      copy->copy_active_from(*g, {0, 0, 0});
      before[l].push_back(std::move(copy));
      old_ids.insert(g->id());
    }

  const std::uint64_t kept0 = kept_counter().value();
  const std::uint64_t new0 = new_counter().value();
  h.rebuild(1, blobs(0.7 + 1.0 / 16.0));
  const std::uint64_t kept = kept_counter().value() - kept0;
  ASSERT_GT(kept, 0u);
  ASSERT_GT(new_counter().value() - new0, 0u);

  std::uint64_t checked = 0;
  for (int l = 1; l <= h.deepest_level(); ++l)
    for (const Grid* g : h.grids(l)) {
      if (old_ids.count(g->id()) == 0) continue;
      ++checked;
      Grid* parent = g->parent();
      auto oracle = h.make_grid(l, g->box());
      oracle->set_parent(parent);
      oracle->set_time(parent->time());
      oracle->set_old_time(parent->time());
      std::vector<mesh::IndexBox> covered;
      for (const auto& old : before[l]) {
        const mesh::IndexBox o = g->box().intersect(old->box());
        if (!o.empty()) covered.push_back(o);
      }
      mesh::fill_active_from_parent(*oracle, *parent, covered);
      for (const auto& old : before[l])
        oracle->copy_active_from(*old, {0, 0, 0});
      oracle->store_old_fields();

      const std::string where = "level " + std::to_string(l) + " " +
                                g->box().str();
      for (Field f : g->field_list()) {
        EXPECT_TRUE(same_bytes(g->field(f), oracle->field(f)))
            << where << " field " << mesh::field_name(f);
        EXPECT_TRUE(same_bytes(g->old_field(f), oracle->old_field(f)))
            << where << " old field " << mesh::field_name(f);
      }
      EXPECT_EQ(g->has_fluxes(), oracle->has_fluxes()) << where;
      EXPECT_EQ(g->has_boundary_fluxes(), oracle->has_boundary_fluxes())
          << where;
      EXPECT_EQ(g->has_gravity(), oracle->has_gravity()) << where;
      EXPECT_EQ(g->time(), oracle->time()) << where;
      EXPECT_EQ(g->old_time(), oracle->old_time()) << where;
    }
  EXPECT_EQ(checked, kept);
  h.check_invariants();
}

// ---- checkpoint round trip ------------------------------------------------------

TEST(ArenaCheckpoint, RoundTripAcrossStorageModesIsBitwiseStable) {
  const std::string deck_path =
      std::string(ENZO_SOURCE_DIR) + "/decks/cosmology_box.enzo";
  const std::string ckpt = ::testing::TempDir() + "arena_roundtrip.ckpt";

  // Evolve far enough to refine, then checkpoint.
  core::ParameterDeck deck = core::parse_parameter_file(deck_path);
  core::Simulation sim(deck.config);
  core::setup_from_deck(sim, deck);
  for (int s = 0; s < 2; ++s) sim.advance_root_step();
  const analysis::AuditReport before = sim.run_audit();
  io::write_checkpoint(sim, ckpt);

  // The bytes in a checkpoint must not depend on where the grids kept
  // them: restore once onto new blocks, then again, after that restore is
  // gone, onto the used blocks its arena handed to the spare list.
  for (int pass = 0; pass < 2; ++pass) {
    core::ParameterDeck d = core::parse_parameter_file(deck_path);
    core::Simulation restored(d.config);
    io::read_checkpoint(restored, ckpt);
    const analysis::AuditReport after = restored.run_audit();
    EXPECT_EQ(after.mass_total, before.mass_total) << "pass " << pass;
    EXPECT_EQ(after.energy_total, before.energy_total) << "pass " << pass;
    EXPECT_EQ(after.violations.size(), before.violations.size())
        << "pass " << pass;
  }
  std::filesystem::remove(ckpt);
}
