#pragma once
// Internal to the analysis library: the one walk over the hierarchy's leaf
// cells (active cells no child grid covers) that every composite reduction
// shares, and the minimum-image separation they measure radii with.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ext/position.hpp"
#include "mesh/hierarchy.hpp"
#include "mesh/topology.hpp"

namespace enzo::analysis::detail {

/// Minimum-image separation along one axis (code units).
inline double sep(ext::pos_t x, ext::pos_t c, bool periodic) {
  double d = ext::pos_to_double(x - c);
  if (periodic) {
    if (d > 0.5) d -= 1.0;
    if (d < -0.5) d += 1.0;
  }
  return d;
}

/// Visit every leaf cell once: fn(grid, i, j, k, cell volume) with active
/// indices.  The order is fixed (levels, grids, k, j, i), so sums, ties and
/// profiles over the visits are bitwise reproducible.  A grid's children
/// come from the overlap topology's parent groups.
template <typename F>
void for_each_leaf_cell(const mesh::Hierarchy& h, F&& fn) {
  const mesh::OverlapTopology& topo = h.topology();
  for (int l = 0; l <= h.deepest_level(); ++l) {
    const std::vector<mesh::ParentGroup>& families =
        topo.children_by_parent(l + 1);
    for (const mesh::Grid* g : h.grids(l)) {
      // The children's boxes in this grid's index space.
      std::vector<mesh::IndexBox> feet;
      for (const auto& [parent, children] : families) {
        if (parent != g) continue;
        for (const mesh::Grid* c : children) {
          mesh::IndexBox foot;
          for (int d = 0; d < 3; ++d) {
            const std::int64_t rd =
                c->spec().level_dims[d] / g->spec().level_dims[d];
            foot.lo[d] = c->box().lo[d] / rd;
            foot.hi[d] = c->box().hi[d] / rd;
          }
          feet.push_back(foot);
        }
      }
      double vol = 1.0;
      for (int d = 0; d < 3; ++d)
        vol *= 1.0 / static_cast<double>(g->spec().level_dims[d]);
      for (int k = 0; k < g->nx(2); ++k)
        for (int j = 0; j < g->nx(1); ++j)
          for (int i = 0; i < g->nx(0); ++i) {
            const mesh::Index3 p{g->box().lo[0] + i, g->box().lo[1] + j,
                                 g->box().lo[2] + k};
            if (std::none_of(feet.begin(), feet.end(),
                             [&](const mesh::IndexBox& b) {
                               return b.contains(p);
                             }))
              fn(*g, i, j, k, vol);
          }
    }
  }
}

}  // namespace enzo::analysis::detail
