#pragma once
// Regrid-cached overlap topology (§3.2, §3.4).
//
// Every SAMR sweep that touches neighbours — sibling ghost exchange,
// potential boundary exchange, particle re-homing, the auditor's ghost
// agreement pass, the distributed exchange planner — needs the same
// overlaps, and scanning for them costs O(grids² × 27 periodic shifts) per
// call.  The hierarchy only changes at RebuildHierarchy, so the overlap
// structure is a pure function of the structure generation: compute it once
// per rebuild and let every consumer read the cached lists.  This cache is
// the only neighbour path; tests/mesh_test.cpp keeps the all-pairs scans as
// the reference for every query it answers.
//
// Per level the cache holds:
//   (a) sibling neighbour lists — for each grid, the (source ordinal,
//       periodic-image shift) pairs with a nonempty intersection against the
//       grid's ghost-grown box, with that intersection precomputed.  Link
//       order is the all-pairs scan order (sources in level order, shifts
//       enumerated {0, +dims, -dims} nested kz/ky/kx), which fixes the order
//       in which a consumer's overlapping copies land and so keeps results
//       byte-identical across thread counts.
//   (b) parent↔child overlap pair lists grouped by parent, in first-seen
//       child order (the grouping flux projection and mass restriction
//       run their per-parent tasks over).
//   (c) a uniform-bin spatial index over the level's bounding box supporting
//       point → finest-containing-grid queries (particle re-homing, ghost
//       owner lookup) without walking every grid of every level.
//
// Invalidation contract: a topology is valid for exactly one value of
// Hierarchy::generation().  Hierarchy::topology() rebuilds lazily on the
// first query after a mutation; the auditor flags a cache left stale at
// audit time as a hierarchy violation.  Grid* stored here follow the same
// lifetime rule as any pre-phase grid-list snapshot: valid until the next
// structure mutation.

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "ext/position.hpp"
#include "mesh/box.hpp"

namespace enzo::mesh {

class Grid;
class Hierarchy;

/// The periodic-image shifts to enumerate per axis when intersecting boxes
/// of the same level: {0}, plus ±dims[d] on axes where the domain is
/// periodic and wider than one cell.  This is THE guard — degenerate axes
/// (dims == 1) alias every image onto the same cell and must not be
/// shifted, and non-periodic domains have no images at all.  Historical
/// copies of this enumeration had drifted (grid.cpp's wrap_own_ghosts
/// guarded on `ng > 0`, which only coincides with `dims > 1` while nghost
/// is positive); with nghost == 0 both forms degenerate to no-op copies, so
/// unifying on this guard is behaviour-preserving.  The enumeration order
/// {0, +dims, -dims} is part of the determinism contract: consumers copy
/// overlaps in shift order and later copies overwrite earlier ones.
[[nodiscard]] std::array<std::vector<std::int64_t>, 3> periodic_image_shifts(
    const Index3& dims, bool periodic);

/// One cached sibling overlap: grid `src` (ordinal into the level's grid
/// list), shifted by `shift`, intersects the destination grid's
/// ghost-grown box in `overlap` (global, destination-frame indices).
/// `overlap` can be empty only when nghost == 0 (the link then exists for
/// the 1-cell potential ghost exchange, whose intersection consumers
/// compute against their own ghost width).
struct SiblingLink {
  std::uint32_t src = 0;
  Index3 shift{0, 0, 0};
  IndexBox overlap;
};

/// Children of one parent, in first-seen child order.
using ParentGroup = std::pair<Grid*, std::vector<Grid*>>;

class OverlapTopology {
 public:
  /// Build for the hierarchy's current structure (records generation()).
  explicit OverlapTopology(const Hierarchy& h);

  /// Hierarchy::generation() value this topology was built for.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  [[nodiscard]] int num_levels() const {
    return static_cast<int>(levels_.size());
  }

  /// The level's grids in hierarchy order (the ordinal space of SiblingLink
  /// and of siblings()).  Empty for out-of-range levels.
  [[nodiscard]] const std::vector<Grid*>& level_grids(int level) const;

  /// Iterable view over one grid's sibling links.
  struct SiblingRange {
    const SiblingLink* first;
    const SiblingLink* last;
    const SiblingLink* begin() const { return first; }
    const SiblingLink* end() const { return last; }
    std::size_t size() const { return static_cast<std::size_t>(last - first); }
  };
  [[nodiscard]] SiblingRange siblings(int level, std::size_t ordinal) const;

  /// This level's grids grouped by their parent (empty for level 0 and
  /// out-of-range levels).  A corrupt hierarchy may yield a nullptr parent
  /// group; consumers that require parents keep their own checks.
  [[nodiscard]] const std::vector<ParentGroup>& children_by_parent(
      int level) const;

  /// The grid of `level` whose active box contains global index p (already
  /// periodic-wrapped into the domain), or nullptr.  Grids of a level are
  /// disjoint, so the owner is unique; on a corrupt (overlapping) hierarchy
  /// this returns the first owner in grid order, matching a linear scan.
  [[nodiscard]] Grid* grid_at(int level, const Index3& p) const;

  /// The deepest grid of any level containing position x, or nullptr when x
  /// lies outside every grid (matches the deepest-first linear search used
  /// by particle re-homing, via the same index arithmetic as
  /// Grid::contains_position).
  [[nodiscard]] Grid* finest_owner(const ext::PosVec& x) const;

  /// Total sibling links cached across all levels.
  [[nodiscard]] std::size_t total_links() const;
  /// Wall seconds the build took (also published as a topology.* gauge).
  [[nodiscard]] double build_seconds() const { return build_seconds_; }

 private:
  struct LevelTopology {
    std::vector<Grid*> grids;
    Index3 dims{1, 1, 1};
    // (a) sibling links, CSR over grid ordinal.
    std::vector<std::size_t> link_begin;
    std::vector<SiblingLink> links;
    // (b) children grouped by parent.
    std::vector<ParentGroup> by_parent;
    // (c) uniform-bin point index over the grids' bounding box.
    IndexBox bbox;
    Index3 bins{1, 1, 1};
    std::vector<std::uint32_t> bin_begin;
    std::vector<std::uint32_t> bin_grid;
  };

  void build(const Hierarchy& h);
  void build_point_index(LevelTopology& L);
  void build_sibling_links(LevelTopology& L, bool periodic);
  static void build_parent_groups(LevelTopology& L, int level);

  std::uint64_t generation_ = 0;
  double build_seconds_ = 0.0;
  std::vector<LevelTopology> levels_;
};

}  // namespace enzo::mesh
