#pragma once
// Arena: pooled, 64-byte-aligned block storage for grid field data.
//
// §5 of the paper calls out that the hierarchy is rebuilt thousands of times
// per run, producing "an extremely large number of memory allocations and
// frees".  Rebuilds destroy and recreate whole levels whose grids are the
// same handful of shapes over and over, so freed blocks are recycled through
// size-class free lists instead of returned to the heap (Athena++'s
// fixed-size MeshBlock pools are the exemplar).  Capacities are rounded up
// to a fixed quantum (kGranularity) so near-miss shapes share a size class,
// and every block is 64-byte aligned so field arrays are SIMD/cache-line
// clean.
//
// Pooled blocks also outlive their arena: trim() hands them to a
// process-wide spare list, which later misses of any arena drain before the
// heap.  A simulation set up after another one thus reuses its memory.
// Freed to the heap all at once, the old hierarchy would let glibc return
// the top of the heap to the kernel, and the new set-up would fault every
// page of it back in.  No block ever goes back to the heap, so a miss the
// spare list cannot serve takes the same hand-aligned allocation as the
// heap fallback.
//
// Accounting contract: the perf registry's `alloc.*` instruments record
// only blocks entering or leaving the pools (a miss served by the spare
// list or the heap, a trim into the spare list): counters
// `alloc.{allocations, frees, total_bytes}` and gauges
// `alloc.{live_bytes, peak_bytes}`.  A pool hit is invisible to them (that
// is the point: the regrid-storm stress tests assert zero steady-state
// allocations per rebuild).  Pool traffic has its own `arena.*` rows
// (pool_hits / pool_misses / recycled_blocks counters, bytes_live /
// bytes_pooled gauges).
//
// Blocks are doubles because every consumer (fields, fluxes, gravity,
// solver scratch) stores doubles; particle-vector recycling is layered on
// top in mesh::StorageArena, of which each Hierarchy owns one.

#include <cstddef>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace enzo::util {

/// One storage block on loan from an Arena (or from the heap via the
/// static fallback).  `capacity` is the rounded size in doubles; contents
/// are unspecified on acquire — owners always overwrite (Buffer3 fills).
struct ArenaBlock {
  double* ptr = nullptr;
  std::size_t capacity = 0;
};

class Arena {
 public:
  /// Capacity quantum in doubles: requested sizes are rounded up to a
  /// multiple of this, so grids whose shapes differ slightly still hit the
  /// same size class.
  static constexpr std::size_t kGranularity = 2048;

  Arena() = default;
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// The capacity a request for `doubles` is served with: a multiple of
  /// kGranularity, at least one quantum.
  [[nodiscard]] static constexpr std::size_t capacity_for(
      std::size_t doubles) {
    return doubles == 0
               ? kGranularity
               : (doubles + kGranularity - 1) / kGranularity * kGranularity;
  }

  /// A block of capacity_for(doubles), from the matching free list when
  /// possible, else from the spare list or the heap (counted in
  /// `alloc.*`).  Contents are unspecified.
  [[nodiscard]] ArenaBlock acquire(std::size_t doubles);

  /// Return a block: it joins its size-class free list for the next regrid.
  void release(ArenaBlock&& b);

  /// Hand every pooled block to the process-wide spare list (counted in
  /// `alloc.*` as freed).  The destructor trims.
  void trim();

  [[nodiscard]] std::size_t bytes_pooled() const;

  // Heap fallback used by buffers not attached to any arena (the initial
  // conditions, analysis maps, directly constructed grids in tests): same
  // alignment and `alloc.*` accounting, never pooled.
  [[nodiscard]] static ArenaBlock heap_acquire(std::size_t doubles);
  static void heap_release(ArenaBlock&& b);

  /// Process-wide arena for solver scratch (ZEUS viscous-pressure arrays);
  /// thread-local buffers attach here so scratch blocks recycle across
  /// grids and threads instead of churning the heap.
  static Arena& scratch();

 private:
  mutable std::mutex mu_;
  // Size-class free lists keyed by rounded capacity.  Lookup/insert only —
  // never iterated — so pool order cannot leak into observable behaviour.
  std::unordered_map<std::size_t, std::vector<double*>> pool_;
  std::size_t bytes_pooled_ = 0;
};

}  // namespace enzo::util
