#pragma once
// Arena: pooled, 64-byte-aligned block storage for grid field data.
//
// §5 of the paper calls out that the hierarchy is rebuilt thousands of times
// per run, producing "an extremely large number of memory allocations and
// frees".  Rebuilds destroy and recreate whole levels whose grids are the
// same handful of shapes over and over, so freed blocks are recycled through
// size-class free lists instead of returned to the heap (Athena++'s
// fixed-size MeshBlock pools are the exemplar).  Capacities are rounded up
// to a configurable granularity so near-miss shapes share a size class, and
// every block is 64-byte aligned so field arrays are SIMD/cache-line clean.
//
// Pooled blocks also outlive their arena: trim() hands them to a
// process-wide spare list, which later misses of any pooling arena drain
// before the heap.  A simulation set up after another one thus reuses its
// memory.  Freed to the heap all at once, the old hierarchy would let glibc
// return the top of the heap to the kernel, and the new set-up would fault
// every page of it back in.
//
// Accounting contract: util::AllocStats records only blocks entering or
// leaving the pools (a miss served by the spare list or the heap, a trim
// into the spare list) — a pool hit is invisible to it (that is the point:
// the regrid-storm stress test asserts steady-state allocations per rebuild
// drop to ~0).  Pool traffic is published separately through the perf
// registry as `arena.*` metrics (pool_hits / pool_misses / recycled blocks,
// bytes live / pooled).
//
// Blocks are doubles because every consumer (fields, fluxes, gravity,
// solver scratch) stores doubles; particle-vector recycling is layered on
// top in mesh::StorageArena, which owns one Arena per hierarchy level.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace enzo::util {

struct ArenaConfig {
  /// Recycle released blocks through the free lists.  Off = every acquire
  /// is a heap allocation and every release a heap free (the pre-arena
  /// behaviour, kept selectable for the determinism/benchmark comparisons).
  bool pool = true;
  /// Capacity quantum in doubles: requested sizes are rounded up to a
  /// multiple of this, so grids whose shapes differ slightly still hit the
  /// same size class (deck key BlockGranularity).
  std::int64_t granularity = 2048;
};

/// One storage block on loan from an Arena (or from the heap via the
/// static fallback).  `capacity` is the rounded size in doubles; contents
/// are unspecified on acquire — owners always overwrite (Buffer3 fills).
struct ArenaBlock {
  double* ptr = nullptr;
  std::size_t capacity = 0;
};

class Arena {
 public:
  explicit Arena(ArenaConfig cfg = {});
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// A block with capacity >= `doubles` (rounded up to the granularity),
  /// from the matching free list when possible, else from the spare list
  /// or the heap (reported to AllocStats).  Contents are unspecified.
  [[nodiscard]] ArenaBlock acquire(std::size_t doubles);

  /// Return a block.  Pooling on: it joins its size-class free list for the
  /// next regrid.  Pooling off: freed immediately (reported to AllocStats).
  void release(ArenaBlock&& b);

  /// Hand every pooled block to the process-wide spare list (reported to
  /// AllocStats as freed).  The destructor trims.
  void trim();

  [[nodiscard]] const ArenaConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t bytes_pooled() const;

  // Heap fallback used by buffers not attached to any arena (the initial
  // conditions, analysis maps, directly constructed grids in tests): same
  // alignment and AllocStats reporting, never pooled.
  [[nodiscard]] static ArenaBlock heap_acquire(std::size_t doubles);
  static void heap_release(ArenaBlock&& b);

  /// Process-wide arena for solver scratch (ZEUS viscous-pressure arrays);
  /// thread-local buffers attach here so scratch blocks recycle across
  /// grids and threads instead of churning the heap.
  static Arena& scratch();

 private:
  [[nodiscard]] std::size_t round_up(std::size_t doubles) const;

  ArenaConfig cfg_;
  mutable std::mutex mu_;
  // Size-class free lists keyed by rounded capacity.  Lookup/insert only —
  // never iterated — so pool order cannot leak into observable behaviour.
  std::unordered_map<std::size_t, std::vector<double*>> pool_;
  std::size_t bytes_pooled_ = 0;
};

}  // namespace enzo::util
