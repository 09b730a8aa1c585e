#include "mesh/topology.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "mesh/grid.hpp"
#include "mesh/hierarchy.hpp"
#include "perf/metrics.hpp"
#include "perf/trace.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace enzo::mesh {

namespace {

/// Proportional bin of coordinate v within [lo, lo+extent) split into nbins.
std::int64_t bin_axis(std::int64_t v, std::int64_t lo, std::int64_t extent,
                      std::int64_t nbins) {
  return ((v - lo) * nbins) / extent;
}

}  // namespace

std::array<std::vector<std::int64_t>, 3> periodic_image_shifts(
    const Index3& dims, bool periodic) {
  std::array<std::vector<std::int64_t>, 3> shifts;
  for (int d = 0; d < 3; ++d) {
    shifts[d] = {0};
    if (periodic && dims[d] > 1) {
      shifts[d].push_back(dims[d]);
      shifts[d].push_back(-dims[d]);
    }
  }
  return shifts;
}

OverlapTopology::OverlapTopology(const Hierarchy& h) { build(h); }

void OverlapTopology::build(const Hierarchy& h) {
  perf::TraceScope scope("topology/build", perf::component::kRebuild);
  static perf::Counter& builds =
      perf::Registry::global().counter("topology.builds");
  static perf::Counter& links_total =
      perf::Registry::global().counter("topology.links_cached");
  static perf::Gauge& links_gauge =
      perf::Registry::global().gauge("topology.sibling_links");
  static perf::Gauge& secs_gauge =
      perf::Registry::global().gauge("topology.last_build_seconds");
  util::Stopwatch wall;

  generation_ = h.generation();
  // Grid pointers only; the topology never mutates the hierarchy.
  Hierarchy& hh = const_cast<Hierarchy&>(h);
  const bool periodic = h.params().periodic;
  levels_.clear();
  levels_.resize(static_cast<std::size_t>(h.deepest_level() + 1));
  for (int l = 0; l < num_levels(); ++l) {
    LevelTopology& L = levels_[static_cast<std::size_t>(l)];
    L.grids = hh.grids(l);
    L.dims = h.level_dims(l);
    build_point_index(L);
    build_sibling_links(L, periodic);
    build_parent_groups(L, l);
  }

  build_seconds_ = wall.seconds();
  builds.add(1);
  links_total.add(total_links());
  links_gauge.set(static_cast<double>(total_links()));
  secs_gauge.set(build_seconds_);
}

void OverlapTopology::build_point_index(LevelTopology& L) {
  const std::size_t n = L.grids.size();
  L.bins = {1, 1, 1};
  L.bin_begin.assign(2, 0);
  L.bin_grid.clear();
  if (n == 0) {
    L.bbox = IndexBox{};
    return;
  }
  L.bbox = L.grids[0]->box();
  for (const Grid* g : L.grids)
    for (int d = 0; d < 3; ++d) {
      L.bbox.lo[d] = std::min(L.bbox.lo[d], g->box().lo[d]);
      L.bbox.hi[d] = std::max(L.bbox.hi[d], g->box().hi[d]);
    }
  // Cube-root sizing keeps a handful of grids per bin; bins cover the
  // *bounding box of the level's grids* (not the whole domain) so deep zoom
  // levels — tiny refined islands in a huge index space — still bin finely.
  const auto target =
      static_cast<std::int64_t>(std::cbrt(static_cast<double>(n))) + 1;
  for (int d = 0; d < 3; ++d)
    L.bins[d] = std::clamp<std::int64_t>(target, 1, L.bbox.extent(d));
  const std::size_t nbins =
      static_cast<std::size_t>(L.bins[0] * L.bins[1] * L.bins[2]);

  const auto bins_of_box = [&](const IndexBox& b, Index3& blo, Index3& bhi) {
    for (int d = 0; d < 3; ++d) {
      blo[d] = bin_axis(b.lo[d], L.bbox.lo[d], L.bbox.extent(d), L.bins[d]);
      bhi[d] = bin_axis(b.hi[d] - 1, L.bbox.lo[d], L.bbox.extent(d),
                        L.bins[d]);
    }
  };
  std::vector<std::uint32_t> count(nbins, 0);
  for (const Grid* g : L.grids) {
    Index3 blo, bhi;
    bins_of_box(g->box(), blo, bhi);
    for (std::int64_t bz = blo[2]; bz <= bhi[2]; ++bz)
      for (std::int64_t by = blo[1]; by <= bhi[1]; ++by)
        for (std::int64_t bx = blo[0]; bx <= bhi[0]; ++bx)
          ++count[static_cast<std::size_t>((bz * L.bins[1] + by) * L.bins[0] +
                                           bx)];
  }
  L.bin_begin.assign(nbins + 1, 0);
  for (std::size_t b = 0; b < nbins; ++b)
    L.bin_begin[b + 1] = L.bin_begin[b] + count[b];
  L.bin_grid.resize(L.bin_begin[nbins]);
  std::vector<std::uint32_t> cursor(nbins, 0);
  // Grids appended in level order, so each bin's candidate list preserves
  // grid order (point queries on corrupt, overlapping hierarchies then
  // match a first-hit linear scan).
  for (std::uint32_t i = 0; i < n; ++i) {
    Index3 blo, bhi;
    bins_of_box(L.grids[i]->box(), blo, bhi);
    for (std::int64_t bz = blo[2]; bz <= bhi[2]; ++bz)
      for (std::int64_t by = blo[1]; by <= bhi[1]; ++by)
        for (std::int64_t bx = blo[0]; bx <= bhi[0]; ++bx) {
          const auto b = static_cast<std::size_t>(
              (bz * L.bins[1] + by) * L.bins[0] + bx);
          L.bin_grid[L.bin_begin[b] + cursor[b]++] = i;
        }
  }
}

void OverlapTopology::build_sibling_links(LevelTopology& L, bool periodic) {
  const std::size_t n = L.grids.size();
  L.link_begin.assign(n + 1, 0);
  L.links.clear();
  if (n == 0) return;
  const auto shifts = periodic_image_shifts(L.dims, periodic);

  std::vector<std::uint32_t> stamp(n, 0);
  std::uint32_t epoch = 0;
  std::vector<std::uint32_t> cands;
  for (std::uint32_t i = 0; i < n; ++i) {
    const Grid* g = L.grids[i];
    // ghost: the nghost-grown box the boundary fill / exchange plan
    // intersect against.  wide: grown by at least one cell per
    // non-degenerate axis, so the links also cover the gravity potential
    // exchange (1-cell ghost layer) when nghost is zero; with the usual
    // nghost >= 1 the two boxes coincide.
    IndexBox ghost = g->box(), wide = g->box();
    for (int d = 0; d < 3; ++d) {
      const std::int64_t ng = g->ng(d);
      const std::int64_t w = std::max<std::int64_t>(
          ng, L.dims[d] > 1 ? 1 : 0);
      ghost.lo[d] -= ng;
      ghost.hi[d] += ng;
      wide.lo[d] -= w;
      wide.hi[d] += w;
    }
    // Gather candidate sources from the bins each shifted probe touches;
    // bin-level false positives are filtered by the exact intersection.
    ++epoch;
    cands.clear();
    for (std::int64_t kz : shifts[2])
      for (std::int64_t ky : shifts[1])
        for (std::int64_t kx : shifts[0]) {
          // src.shifted(s) meets wide  ⇔  src meets wide.shifted(-s)
          const IndexBox probe =
              wide.shifted({-kx, -ky, -kz}).intersect(L.bbox);
          if (probe.empty()) continue;
          Index3 blo, bhi;
          for (int d = 0; d < 3; ++d) {
            blo[d] = bin_axis(probe.lo[d], L.bbox.lo[d], L.bbox.extent(d),
                              L.bins[d]);
            bhi[d] = bin_axis(probe.hi[d] - 1, L.bbox.lo[d],
                              L.bbox.extent(d), L.bins[d]);
          }
          for (std::int64_t bz = blo[2]; bz <= bhi[2]; ++bz)
            for (std::int64_t by = blo[1]; by <= bhi[1]; ++by)
              for (std::int64_t bx = blo[0]; bx <= bhi[0]; ++bx) {
                const auto b = static_cast<std::size_t>(
                    (bz * L.bins[1] + by) * L.bins[0] + bx);
                for (std::size_t c = L.bin_begin[b]; c < L.bin_begin[b + 1];
                     ++c) {
                  const std::uint32_t j = L.bin_grid[c];
                  if (stamp[j] != epoch) {
                    stamp[j] = epoch;
                    cands.push_back(j);
                  }
                }
              }
        }
    std::sort(cands.begin(), cands.end());
    // Emit links in the historical all-pairs order: sources ascending in
    // level order, shifts {0,+D,-D} nested kz/ky/kx, self-zero skipped.
    for (const std::uint32_t j : cands) {
      const Grid* s = L.grids[j];
      for (std::int64_t kz : shifts[2])
        for (std::int64_t ky : shifts[1])
          for (std::int64_t kx : shifts[0]) {
            if (j == i && kx == 0 && ky == 0 && kz == 0) continue;
            const IndexBox sb = s->box().shifted({kx, ky, kz});
            if (wide.intersect(sb).empty()) continue;
            L.links.push_back({j, {kx, ky, kz}, ghost.intersect(sb)});
          }
    }
    L.link_begin[i + 1] = L.links.size();
  }
}

void OverlapTopology::build_parent_groups(LevelTopology& L, int level) {
  if (level == 0) return;
  // First-seen order, exactly the grouping the find_if consumers built.
  for (Grid* c : L.grids) {
    Grid* parent = c->parent();
    auto it = std::find_if(
        L.by_parent.begin(), L.by_parent.end(),
        [&](const ParentGroup& g) { return g.first == parent; });
    if (it == L.by_parent.end())
      L.by_parent.emplace_back(parent, std::vector<Grid*>{c});
    else
      it->second.push_back(c);
  }
}

const std::vector<Grid*>& OverlapTopology::level_grids(int level) const {
  static const std::vector<Grid*> empty;
  if (level < 0 || level >= num_levels()) return empty;
  return levels_[static_cast<std::size_t>(level)].grids;
}

OverlapTopology::SiblingRange OverlapTopology::siblings(
    int level, std::size_t ordinal) const {
  if (level < 0 || level >= num_levels()) return {nullptr, nullptr};
  const LevelTopology& L = levels_[static_cast<std::size_t>(level)];
  ENZO_REQUIRE(ordinal < L.grids.size(), "sibling query out of range");
  return {L.links.data() + L.link_begin[ordinal],
          L.links.data() + L.link_begin[ordinal + 1]};
}

const std::vector<ParentGroup>& OverlapTopology::children_by_parent(
    int level) const {
  static const std::vector<ParentGroup> empty;
  if (level < 0 || level >= num_levels()) return empty;
  return levels_[static_cast<std::size_t>(level)].by_parent;
}

Grid* OverlapTopology::grid_at(int level, const Index3& p) const {
  if (level < 0 || level >= num_levels()) return nullptr;
  const LevelTopology& L = levels_[static_cast<std::size_t>(level)];
  if (L.grids.empty() || !L.bbox.contains(p)) return nullptr;
  Index3 b;
  for (int d = 0; d < 3; ++d)
    b[d] = bin_axis(p[d], L.bbox.lo[d], L.bbox.extent(d), L.bins[d]);
  const auto bin =
      static_cast<std::size_t>((b[2] * L.bins[1] + b[1]) * L.bins[0] + b[0]);
  for (std::size_t c = L.bin_begin[bin]; c < L.bin_begin[bin + 1]; ++c) {
    Grid* g = L.grids[L.bin_grid[c]];
    if (g->box().contains(p)) return g;
  }
  return nullptr;
}

Grid* OverlapTopology::finest_owner(const ext::PosVec& x) const {
  for (int l = num_levels() - 1; l >= 0; --l) {
    const LevelTopology& L = levels_[static_cast<std::size_t>(l)];
    if (L.grids.empty()) continue;
    Index3 p;
    for (int d = 0; d < 3; ++d) p[d] = global_cell_index(x[d], L.dims[d]);
    if (Grid* g = grid_at(l, p)) return g;
  }
  return nullptr;
}

std::size_t OverlapTopology::total_links() const {
  std::size_t n = 0;
  for (const LevelTopology& L : levels_) n += L.links.size();
  return n;
}

}  // namespace enzo::mesh
