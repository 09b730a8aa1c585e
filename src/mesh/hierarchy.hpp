#pragma once
// The adaptive grid hierarchy (§3.1–3.2.2).
//
// A Hierarchy owns the tree of grids: a root level tiled by one or more
// grids, and an unbounded stack of refined levels ("no limit on the depth or
// complexity of the adaptive grid hierarchy").  RebuildHierarchy implements
// §3.2.2: flag cells on the parent level, cluster them with
// Berger–Rigoutsos, keep every old grid whose box comes back unchanged,
// create the new grids (copying from overlapping old grids of the same level
// where possible, interpolating from parents otherwise), redistribute
// particles, and delete the old grids that were not kept.  All grids draw
// their storage from one pooled arena per hierarchy.
//
// The paper's "sterile objects" (§3.4), metadata-only GridDescriptors that
// every rank can hold so neighbour lookups never require probing other
// ranks, are not cached here: parallel::SterileStore::mirror builds them from
// the per-level grid lists when it needs them.

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "mesh/berger_rigoutsos.hpp"
#include "mesh/grid.hpp"

namespace enzo::mesh {

class OverlapTopology;  // mesh/topology.hpp

struct HierarchyParams {
  Index3 root_dims{32, 32, 32};
  int refine_factor = 2;
  /// 4 ghost zones: PPM's reconstruction needs 3, and its shock-flattening
  /// stencil one more for exact flux symmetry at periodic wraps.
  int nghost = 4;
  int max_level = 16;
  std::vector<Field> fields = hydro_field_list();
  bool periodic = true;  ///< root boundary: periodic, else outflow
  ClusterParams cluster;
  int flag_buffer = 1;   ///< cells of padding around flagged regions
  std::int64_t min_grid_cells = 8;  ///< discard degenerate slivers
};

/// Sterile object: everything a remote rank needs to know about a grid in
/// order to address it, without holding its data (§3.4).
struct GridDescriptor {
  std::uint64_t id = 0;
  int level = 0;
  IndexBox box;
  int owner_rank = 0;
};

class Hierarchy {
 public:
  explicit Hierarchy(HierarchyParams params);
  ~Hierarchy();
  Hierarchy(Hierarchy&& other) noexcept;
  Hierarchy& operator=(Hierarchy&& other) noexcept;

  const HierarchyParams& params() const { return params_; }

  /// Create the root level as tiles_per_axis³ equal tiles (1 = single grid).
  void build_root(int tiles_per_axis = 1);

  /// Domain size in cells of the given level (degenerate axes stay 1).
  Index3 level_dims(int level) const;

  /// Deepest level that currently has grids.
  int deepest_level() const { return static_cast<int>(levels_.size()) - 1; }

  std::vector<Grid*> grids(int level);
  std::vector<const Grid*> grids(int level) const;
  std::size_t num_grids(int level) const;
  std::size_t total_grids() const;
  std::int64_t total_cells() const;

  /// Insert a grid at the given level (used by rebuild and by tests /
  /// static-refinement setup).  The grid's parent must already be set for
  /// level > 0.
  Grid* insert_grid(std::unique_ptr<Grid> g);

  /// Construct a grid backed by the hierarchy's storage arena (the factory
  /// the rebuild, problem setup, and checkpoint-read paths all share, so
  /// every grid in a hierarchy draws from the same recycled pools).  The
  /// caller still sets parent/time and hands the grid to insert_grid.
  [[nodiscard]] std::unique_ptr<Grid> make_grid(int level,
                                                const IndexBox& box);

  /// The storage arena every grid of every level draws from.
  [[nodiscard]] StorageArena& arena() { return *arena_; }

  /// Every overlap consumer reads topology(); there is no other path.  Kept
  /// as a constant because perfbench/src/replay.cpp:284, its one caller,
  /// compiles against it.
  [[nodiscard]] static constexpr bool use_topology() { return true; }

  /// Flag callback: append the *global* (level index space) indices of the
  /// grid's active cells that require refinement.
  using FlagFn = std::function<void(const Grid&, std::vector<Index3>&)>;

  /// §3.2.2 RebuildHierarchy: rebuild the given level and all deeper ones.
  /// level must be >= 1 (the root is never rebuilt).  A grid whose box
  /// comes back unchanged is kept, storage and all; only new boxes get new
  /// grids.
  void rebuild(int level, const FlagFn& flag);

  /// Verify structural invariants (containment, alignment, non-overlap,
  /// particle ownership); throws enzo::Error with a description on failure.
  void check_invariants() const;

  /// Count of grids per level (Fig. 5 bottom-left panel).
  std::vector<std::size_t> grids_per_level() const;

  /// Estimate of computational work per level: cells × timestep ratio r^l
  /// (Fig. 5 bottom-right panel).
  std::vector<double> work_per_level() const;

  /// Convenience for building aligned subgrid specs.
  GridSpec make_spec(int level, const IndexBox& box) const;

  /// Monotonically increasing structure version, bumped by build_root,
  /// insert_grid, and rebuild.  Executor phases capture it alongside their
  /// grid-list snapshot and assert it unchanged afterwards, enforcing the
  /// invalidation contract: Grid* lists obtained before a phase stay valid
  /// throughout it, and the hierarchy is never mutated from inside one.
  std::uint64_t generation() const { return generation_; }

  /// The overlap-topology cache for the current structure generation,
  /// (re)built lazily on the first query after a mutation — i.e. once per
  /// rebuild.  Consumers fetch it *before* entering an executor phase (the
  /// hierarchy is frozen inside one, so the reference stays valid for the
  /// whole phase); the returned lists follow the same lifetime rule as any
  /// pre-phase Grid* snapshot.
  const OverlapTopology& topology() const;

  /// Generation the cached topology was built for, without (re)building it;
  /// nullopt when no topology has ever been built.  A value differing from
  /// generation() means the cache is stale — the auditor reports that as a
  /// hierarchy violation, since a consumer holding such a topology would
  /// read dead neighbor lists.
  std::optional<std::uint64_t> topology_cache_generation() const;

 private:
  HierarchyParams params_;
  /// One storage pool for all levels: levels never step concurrently, so
  /// its mutex sees no more contention than a per-level pool would, and a
  /// block one level frees can serve another.  Grids hold a shared_ptr to
  /// it, so the member order relative to levels_ is not a lifetime hazard.
  std::shared_ptr<StorageArena> arena_ = std::make_shared<StorageArena>();
  std::vector<std::vector<std::unique_ptr<Grid>>> levels_;
  std::uint64_t generation_ = 0;
  static constexpr std::uint64_t kNoTopology = ~std::uint64_t{0};
  mutable std::mutex topology_mu_;
  mutable std::unique_ptr<OverlapTopology> topology_;
  mutable std::atomic<std::uint64_t> topology_generation_{kNoTopology};
};

}  // namespace enzo::mesh
