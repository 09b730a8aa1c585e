#include "mesh/boundary.hpp"

#include <vector>

#include "exec/executor.hpp"
#include "mesh/interpolate.hpp"
#include "mesh/topology.hpp"
#include "perf/metrics.hpp"
#include "perf/trace.hpp"
#include "util/error.hpp"

namespace enzo::mesh {

void fill_outflow_ghosts(Grid& g) {
  for (Field f : g.field_list()) {
    const FieldView a = g.field(f);
    // Clamp each axis in turn; later axes see already-filled earlier ghosts.
    for (int d = 0; d < 3; ++d) {
      if (g.ng(d) == 0) continue;
      const int lo = g.ng(d), hi = g.ng(d) + g.nx(d) - 1;
      for (int k = 0; k < g.nt(2); ++k)
        for (int j = 0; j < g.nt(1); ++j)
          for (int i = 0; i < g.nt(0); ++i) {
            int idx[3] = {i, j, k};
            if (idx[d] >= lo && idx[d] <= hi) continue;
            int src[3] = {i, j, k};
            src[d] = idx[d] < lo ? lo : hi;
            a(i, j, k) = a(src[0], src[1], src[2]);
          }
    }
  }
}

void set_boundary_values(Hierarchy& h, int level, exec::LevelExecutor* ex) {
  static perf::Counter& ghost_cells =
      perf::Registry::global().counter("boundary.ghost_cells_filled");
  static perf::Counter& interpolated =
      perf::Registry::global().counter("boundary.ghost_cells_interpolated");
  auto level_grids = h.grids(level);
  const Index3 dims = h.level_dims(level);
  const bool periodic = h.params().periodic;

  // Fetch the cached neighbor lists *before* entering the phase: the
  // hierarchy is frozen inside it, so the reference stays valid throughout.
  const OverlapTopology* topo =
      (h.use_topology() && !level_grids.empty()) ? &h.topology() : nullptr;

  // Grids fill independently: a task writes only its own ghost cells (its
  // interior is disjoint from every sibling's total region, shifted images
  // included) and reads parent/sibling active cells, which no task writes.
  exec::fallback(ex).for_each(
      {"set_boundary_values", perf::component::kBoundary, level},
      level_grids.size(),
      [&](std::size_t n) {
        Grid* g = level_grids[n];
        const std::uint64_t total =
            static_cast<std::uint64_t>(g->nt(0)) * g->nt(1) * g->nt(2);
        const std::uint64_t active =
            static_cast<std::uint64_t>(g->nx(0)) * g->nx(1) * g->nx(2);
        ghost_cells.add(total - active);
        // Step 1: parent interpolation (root has no parent).  With the
        // cached links, the ghost cells inside a sibling overlap are left
        // out: step 2 overwrites exactly those.
        if (level > 0) {
          ENZO_REQUIRE(g->parent() != nullptr, "subgrid without parent in BC");
          thread_local std::vector<IndexBox> covered;
          covered.clear();
          if (topo != nullptr)
            for (const SiblingLink& ln : topo->siblings(level, n))
              if (!ln.overlap.empty()) covered.push_back(ln.overlap);
          interpolated.add(static_cast<std::uint64_t>(
              fill_ghosts_from_parent(*g, *g->parent(), covered)));
        } else if (!periodic) {
          fill_outflow_ghosts(*g);
        }
        // Step 2: sibling copies (highest-resolution data wins), including
        // periodic images.  For a single periodic root grid the self-copy
        // with nonzero shift implements the wrap.  The cached links replay
        // the all-pairs scan order exactly (sources ascending, shifts in
        // canonical nesting), so both branches fill bytes identically.
        if (topo != nullptr) {
          for (const SiblingLink& ln : topo->siblings(level, n)) {
            if (ln.overlap.empty()) continue;
            g->copy_from_sibling(*level_grids[ln.src], ln.shift);
          }
        } else {
          const auto shifts = periodic_image_shifts(dims, periodic);
          // enzo-lint: allow(topology-allpairs) reference cross-check path
          for (Grid* s : level_grids) {
            for (std::int64_t kz : shifts[2])
              for (std::int64_t ky : shifts[1])
                for (std::int64_t kx : shifts[0]) {
                  if (s == g && kx == 0 && ky == 0 && kz == 0) continue;
                  g->copy_from_sibling(*s, {kx, ky, kz});
                }
          }
        }
      },
      [&](std::size_t n) {
        const Grid* g = level_grids[n];
        return static_cast<std::uint64_t>(g->nt(0)) * g->nt(1) * g->nt(2);
      });
}

}  // namespace enzo::mesh
