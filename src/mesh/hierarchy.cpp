#include "mesh/hierarchy.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "exec/executor.hpp"
#include "mesh/interpolate.hpp"
#include "mesh/topology.hpp"
#include "perf/metrics.hpp"
#include "perf/trace.hpp"
#include "util/error.hpp"

namespace enzo::mesh {

namespace {
/// Hash of a cell index.  The containers keyed by it compare whole
/// indices, so cells any distance apart stay distinct keys.
struct Index3Hash {
  std::size_t operator()(const Index3& p) const noexcept {
    constexpr std::uint64_t k = 0x9E3779B97F4A7C15ULL;
    std::uint64_t h = static_cast<std::uint64_t>(p[0]);
    h = (h * k) ^ static_cast<std::uint64_t>(p[1]);
    h = (h * k) ^ static_cast<std::uint64_t>(p[2]);
    return static_cast<std::size_t>(h);
  }
};
}  // namespace

Hierarchy::Hierarchy(HierarchyParams params) : params_(std::move(params)) {
  ENZO_REQUIRE(params_.refine_factor >= 2, "refine factor must be >= 2");
  for (int d = 0; d < 3; ++d)
    ENZO_REQUIRE(params_.root_dims[d] >= 1, "bad root dims");
  ENZO_REQUIRE(!params_.fields.empty(), "hierarchy needs a field list");
}

// Out of line because OverlapTopology is incomplete in the header; the move
// operations transfer the topology cache (grid addresses are stable across
// a move of the owning vectors) but each object keeps its own mutex.
Hierarchy::~Hierarchy() = default;

Hierarchy::Hierarchy(Hierarchy&& other) noexcept
    : params_(std::move(other.params_)),
      arena_(std::move(other.arena_)),
      levels_(std::move(other.levels_)),
      generation_(other.generation_),
      topology_(std::move(other.topology_)),
      topology_generation_(other.topology_generation_.load()) {
  other.topology_generation_.store(kNoTopology);
}

Hierarchy& Hierarchy::operator=(Hierarchy&& other) noexcept {
  if (this != &other) {
    params_ = std::move(other.params_);
    arena_ = std::move(other.arena_);
    levels_ = std::move(other.levels_);
    generation_ = other.generation_;
    topology_ = std::move(other.topology_);
    topology_generation_.store(other.topology_generation_.load());
    other.topology_generation_.store(kNoTopology);
  }
  return *this;
}

std::unique_ptr<Grid> Hierarchy::make_grid(int level, const IndexBox& box) {
  return std::make_unique<Grid>(make_spec(level, box), params_.fields,
                                arena_);
}

const OverlapTopology& Hierarchy::topology() const {
  // Fast path: the acquire pairs with the release below, so observing our
  // generation guarantees the built topology is visible.
  if (topology_generation_.load(std::memory_order_acquire) == generation_)
    return *topology_;
  std::lock_guard<std::mutex> lock(topology_mu_);
  if (topology_generation_.load(std::memory_order_relaxed) != generation_) {
    topology_ = std::make_unique<OverlapTopology>(*this);
    topology_generation_.store(generation_, std::memory_order_release);
  }
  return *topology_;
}

std::optional<std::uint64_t> Hierarchy::topology_cache_generation() const {
  const std::uint64_t g =
      topology_generation_.load(std::memory_order_acquire);
  if (g == kNoTopology) return std::nullopt;
  return g;
}

Index3 Hierarchy::level_dims(int level) const {
  Index3 dims;
  for (int d = 0; d < 3; ++d) {
    if (params_.root_dims[d] == 1) {
      dims[d] = 1;
    } else {
      std::int64_t n = params_.root_dims[d];
      for (int l = 0; l < level; ++l) n *= params_.refine_factor;
      dims[d] = n;
    }
  }
  return dims;
}

GridSpec Hierarchy::make_spec(int level, const IndexBox& box) const {
  GridSpec s;
  s.level = level;
  s.box = box;
  s.level_dims = level_dims(level);
  s.refine_factor = params_.refine_factor;
  s.nghost = params_.nghost;
  s.periodic = params_.periodic;
  return s;
}

void Hierarchy::build_root(int tiles_per_axis) {
  ENZO_REQUIRE(!exec::in_phase(),
               "hierarchy mutation inside an executor phase");
  ENZO_REQUIRE(levels_.empty(), "root already built");
  ENZO_REQUIRE(tiles_per_axis >= 1, "bad tile count");
  ++generation_;
  levels_.emplace_back();
  const Index3 dims = level_dims(0);
  for (int d = 0; d < 3; ++d)
    ENZO_REQUIRE(dims[d] == 1 || dims[d] % tiles_per_axis == 0,
                 "root dims not divisible into tiles");
  auto tiles_on = [&](int d) { return dims[d] == 1 ? 1 : tiles_per_axis; };
  for (int tk = 0; tk < tiles_on(2); ++tk)
    for (int tj = 0; tj < tiles_on(1); ++tj)
      for (int ti = 0; ti < tiles_on(0); ++ti) {
        IndexBox box;
        const int t[3] = {ti, tj, tk};
        for (int d = 0; d < 3; ++d) {
          const std::int64_t w = dims[d] / tiles_on(d);
          box.lo[d] = t[d] * w;
          box.hi[d] = box.lo[d] + w;
        }
        levels_[0].push_back(make_grid(0, box));
      }
}

std::vector<Grid*> Hierarchy::grids(int level) {
  std::vector<Grid*> out;
  if (level < 0 || level >= static_cast<int>(levels_.size())) return out;
  out.reserve(levels_[level].size());
  for (auto& g : levels_[level]) out.push_back(g.get());
  return out;
}

std::vector<const Grid*> Hierarchy::grids(int level) const {
  std::vector<const Grid*> out;
  if (level < 0 || level >= static_cast<int>(levels_.size())) return out;
  out.reserve(levels_[level].size());
  for (auto& g : levels_[level]) out.push_back(g.get());
  return out;
}

std::size_t Hierarchy::num_grids(int level) const {
  if (level < 0 || level >= static_cast<int>(levels_.size())) return 0;
  return levels_[level].size();
}

std::size_t Hierarchy::total_grids() const {
  std::size_t n = 0;
  for (auto& lv : levels_) n += lv.size();
  return n;
}

std::int64_t Hierarchy::total_cells() const {
  std::int64_t n = 0;
  for (auto& lv : levels_)
    for (auto& g : lv) n += g->box().volume();
  return n;
}

Grid* Hierarchy::insert_grid(std::unique_ptr<Grid> g) {
  ENZO_REQUIRE(!exec::in_phase(),
               "hierarchy mutation inside an executor phase");
  ++generation_;
  const int level = g->level();
  ENZO_REQUIRE(level >= 0, "negative level");
  ENZO_REQUIRE(level == 0 || g->parent() != nullptr,
               "refined grid inserted without parent");
  while (static_cast<int>(levels_.size()) <= level) levels_.emplace_back();
  levels_[level].push_back(std::move(g));
  return levels_[level].back().get();
}

void Hierarchy::rebuild(int level, const FlagFn& flag) {
  ENZO_REQUIRE(!exec::in_phase(),
               "hierarchy mutation inside an executor phase");
  ++generation_;
  ENZO_REQUIRE(level >= 1, "cannot rebuild the root level");
  ENZO_REQUIRE(level < static_cast<int>(levels_.size()) + 1,
               "rebuild level beyond deepest+1");
  perf::TraceScope scope("rebuild", perf::component::kRebuild, level);
  static perf::Counter& rebuilds =
      perf::Registry::global().counter("mesh.rebuilds");
  rebuilds.add(1);
  const std::size_t grids_before = total_grids();
  const int r = params_.refine_factor;

  for (int l = level; l <= params_.max_level; ++l) {
    // ---- 1. refinement test on the (possibly just-rebuilt) parent level ----
    std::vector<Index3> flags;
    for (Grid* parent : grids(l - 1)) flag(*parent, flags);

    // Nesting guarantee: any cell under a current level l+1 grid must stay
    // refined, so flag its (l-1)-level footprint with one cell of padding.
    for (const Grid* gc : grids(l + 1)) {
      IndexBox foot = gc->box();
      for (int rr = 0; rr < 2; ++rr) foot = foot.coarsened(r);
      foot = foot.grown(1);
      const Index3 pdims = level_dims(l - 1);
      for (std::int64_t k = foot.lo[2]; k < foot.hi[2]; ++k)
        for (std::int64_t j = foot.lo[1]; j < foot.hi[1]; ++j)
          for (std::int64_t i = foot.lo[0]; i < foot.hi[0]; ++i) {
            Index3 p{i, j, k};
            bool ok = true;
            for (int d = 0; d < 3; ++d) {
              if (pdims[d] == 1) {
                p[d] = 0;
              } else if (params_.periodic) {
                p[d] = ((p[d] % pdims[d]) + pdims[d]) % pdims[d];
              } else if (p[d] < 0 || p[d] >= pdims[d]) {
                ok = false;
              }
            }
            if (ok) flags.push_back(p);
          }
    }

    // ---- buffer + dedupe ----------------------------------------------------
    if (params_.flag_buffer > 0 && !flags.empty()) {
      const Index3 pdims = level_dims(l - 1);
      const int b = params_.flag_buffer;
      std::vector<Index3> grown;
      grown.reserve(flags.size() * 8);
      for (const Index3& p : flags)
        for (int dk = (pdims[2] > 1 ? -b : 0); dk <= (pdims[2] > 1 ? b : 0); ++dk)
          for (int dj = (pdims[1] > 1 ? -b : 0); dj <= (pdims[1] > 1 ? b : 0); ++dj)
            for (int di = (pdims[0] > 1 ? -b : 0); di <= (pdims[0] > 1 ? b : 0);
                 ++di) {
              Index3 q{p[0] + di, p[1] + dj, p[2] + dk};
              bool ok = true;
              for (int d = 0; d < 3; ++d) {
                if (pdims[d] == 1) continue;
                if (params_.periodic)
                  q[d] = ((q[d] % pdims[d]) + pdims[d]) % pdims[d];
                else if (q[d] < 0 || q[d] >= pdims[d])
                  ok = false;
              }
              if (ok) grown.push_back(q);
            }
      flags.swap(grown);
    }
    {
      std::unordered_set<Index3, Index3Hash> seen;  // lookup only
      seen.reserve(flags.size());
      std::vector<Index3> unique;
      unique.reserve(flags.size());
      for (const Index3& p : flags)
        if (seen.insert(p).second) unique.push_back(p);
      flags.swap(unique);
    }
    // Keep only flags actually covered by a parent grid (buffering can push
    // them off the refined region of level l-1).
    if (l - 1 > 0) {
      std::vector<Index3> covered;
      covered.reserve(flags.size());
      for (const Index3& p : flags)
        for (const Grid* parent : grids(l - 1))
          if (parent->box().contains(p)) {
            covered.push_back(p);
            break;
          }
      flags.swap(covered);
    }

    // ---- 2. cluster into rectangular regions --------------------------------
    std::vector<IndexBox> boxes = cluster_flags(flags, params_.cluster);

    // ---- 3. create the new grids, fill, and swap ----------------------------
    // Before building a grid for a canonical (cluster box × parent) piece,
    // look for a previous-generation grid with *exactly* that box — by its
    // low corner, which is unique since a level's grids are disjoint — and
    // keep it (and its storage) alive instead of reallocating and refilling.
    // A kept grid's active bytes equal what a new grid would get: a new
    // grid's same-box copy from the old grid restores its data verbatim,
    // disjoint same-level neighbours contribute nothing, and the parent
    // interpolation underneath is fully overwritten.  Only auxiliary state
    // needs resetting (Grid::reset_for_reuse).  RegridStorm's
    // KeptGridsMatchAFreshBuildBitwise builds that new grid as an oracle.
    std::vector<Grid*> old_raw;  // pre-rebuild level-l grids, in level order
    std::unordered_map<Index3, std::size_t, Index3Hash> old_by_lo;
    if (l < static_cast<int>(levels_.size())) {
      old_raw.reserve(levels_[l].size());
      for (std::size_t i = 0; i < levels_[l].size(); ++i) {
        old_raw.push_back(levels_[l][i].get());
        old_by_lo.emplace(levels_[l][i]->box().lo, i);
      }
    }
    std::vector<std::unique_ptr<Grid>> fresh;
    std::vector<char> fresh_kept;
    std::vector<IndexBox> covered;
    std::size_t kept_count = 0;
    {
      perf::TraceScope arena_scope("arena", perf::component::kRebuild, l);
      for (const IndexBox& b : boxes) {
        // Subgrids must be rectangular and completely contained within a
        // single parent (§3.1): split cluster boxes along parent boundaries.
        for (Grid* parent : grids(l - 1)) {
          const IndexBox piece = b.intersect(parent->box());
          if (piece.empty()) continue;
          // Refine to level-l index space (degenerate axes stay width 1).
          IndexBox fine;
          const Index3 cdims = level_dims(l);
          const Index3 pdims = level_dims(l - 1);
          for (int d = 0; d < 3; ++d) {
            const int rd = static_cast<int>(cdims[d] / pdims[d]);
            fine.lo[d] = piece.lo[d] * rd;
            fine.hi[d] = piece.hi[d] * rd;
          }
          if (fine.volume() < params_.min_grid_cells) {
            // Too small to be worth a grid — but nesting flags guarantee any
            // such sliver has no grandchildren, so dropping it is safe.
            continue;
          }
          const auto it = old_by_lo.find(fine.lo);
          if (it != old_by_lo.end() && old_raw[it->second]->box() == fine) {
            old_raw[it->second]->reset_for_reuse(parent);
            fresh.push_back(std::move(levels_[l][it->second]));
            fresh_kept.push_back(1);
            ++kept_count;
          } else {
            auto g = make_grid(l, fine);
            g->set_parent(parent);
            g->set_time(parent->time());
            g->set_old_time(parent->time());
            // The old-grid copies below overwrite every cell inside an old
            // grid's box; interpolate only the newly refined cells.
            covered.clear();
            for (const Grid* old : old_raw) {
              const IndexBox o = fine.intersect(old->box());
              if (!o.empty()) covered.push_back(o);
            }
            fill_active_from_parent(*g, *parent, covered);
            fresh.push_back(std::move(g));
            fresh_kept.push_back(0);
          }
        }
      }
    }
    static perf::Counter& kept_grids =
        perf::Registry::global().counter("arena.regrid_kept_grids");
    static perf::Counter& new_grids =
        perf::Registry::global().counter("arena.regrid_new_grids");
    kept_grids.add(kept_count);
    new_grids.add(fresh.size() - kept_count);

    // Copy overlapping data from the old grids of this level (better than
    // interpolated parent data), then migrate particles.  A kept grid
    // skips the copies (it *is* its own slice) but still serves as the
    // live source for any newly created neighbour.
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      if (fresh_kept[i] != 0) continue;
      for (Grid* old : old_raw) fresh[i]->copy_active_from(*old, {0, 0, 0});
    }

    // Particles: pull down from parents into new grids; push old-grid
    // particles either into the new grids or back up to the parent.  Pulls
    // are staged per destination and installed after both passes, so every
    // destination, kept or new, gets the same append order —
    // [parent pulls in parent order] + [old-grid particles in old order] —
    // even when it is itself one of the old grids.
    auto grid_ordinal_for = [&](const Particle& p) -> std::ptrdiff_t {
      for (std::size_t i = 0; i < fresh.size(); ++i)
        if (fresh[i]->contains_position(p.x))
          return static_cast<std::ptrdiff_t>(i);
      return -1;
    };
    std::vector<std::vector<Particle>> staged(fresh.size());
    for (Grid* parent : grids(l - 1)) {
      auto pp = parent->particles();
      std::vector<Particle> keep;
      keep.reserve(pp.size());
      for (Particle& p : pp) {
        const std::ptrdiff_t i = grid_ordinal_for(p);
        if (i >= 0)
          staged[static_cast<std::size_t>(i)].push_back(p);
        else
          keep.push_back(p);
      }
      pp.swap(keep);
    }
    for (Grid* old : old_raw) {
      for (Particle& p : old->particles()) {
        const std::ptrdiff_t i = grid_ordinal_for(p);
        if (i >= 0) {
          staged[static_cast<std::size_t>(i)].push_back(p);
        } else {
          // Region no longer refined: hand the particle to the parent that
          // contains it.
          Grid* dest = nullptr;
          for (Grid* parent : grids(l - 1))
            if (parent->contains_position(p.x)) {
              dest = parent;
              break;
            }
          ENZO_REQUIRE(dest != nullptr, "particle fell outside the hierarchy");
          dest->particles().push_back(p);
        }
      }
    }
    for (std::size_t i = 0; i < fresh.size(); ++i)
      fresh[i]->particles().swap(staged[i]);

    // New grids snapshot their state for their future children's boundary
    // time interpolation.
    for (auto& g : fresh) g->store_old_fields();

    // Swap in the new level.  Children of the old grids (level l+1) are
    // re-parented when their own rebuild iteration runs next; nothing
    // touches their parent pointers in between.
    if (static_cast<int>(levels_.size()) <= l) levels_.emplace_back();
    levels_[l].swap(fresh);
    fresh.clear();

    if (levels_[l].empty()) {
      // Nothing refined at this level: delete all deeper levels (their
      // particles must first be pushed up).
      for (int dl = static_cast<int>(levels_.size()) - 1; dl > l; --dl) {
        for (auto& g : levels_[dl])
          for (Particle& p : g->particles()) {
            Grid* dest = nullptr;
            for (Grid* parent : grids(l - 1))
              if (parent->contains_position(p.x)) {
                dest = parent;
                break;
              }
            ENZO_REQUIRE(dest != nullptr,
                         "particle fell outside the hierarchy");
            dest->particles().push_back(p);
          }
        levels_.pop_back();
      }
      levels_.pop_back();
      break;
    }
  }
  check_invariants();
  // Grid-churn statistics (§5: the hierarchy is rebuilt thousands of times).
  static perf::Gauge& grids_current =
      perf::Registry::global().gauge("mesh.grids_after_rebuild");
  static perf::Histogram& churn =
      perf::Registry::global().histogram("mesh.grids_per_rebuild");
  const std::size_t grids_after = total_grids();
  grids_current.set(static_cast<double>(grids_after));
  churn.observe(grids_after >= grids_before ? grids_after - grids_before
                                            : grids_before - grids_after);
}

void Hierarchy::for_each_invariant_violation(const InvariantFn& report) const {
  for (int l = 0; l < static_cast<int>(levels_.size()); ++l) {
    const Index3 dims = level_dims(l);
    const auto& lv = levels_[l];
    if (l > 0 && !lv.empty() && levels_[l - 1].empty())
      report("structure", l, 0, "level has grids but parent level is empty");
    for (std::size_t a = 0; a < lv.size(); ++a) {
      const Grid& g = *lv[a];
      const auto fail = [&](std::string detail) {
        report("structure", l, g.id(), std::move(detail));
      };
      if (g.level() != l)
        fail("grid level field says " + std::to_string(g.level()));
      for (int d = 0; d < 3; ++d)
        if (g.box().lo[d] < 0 || g.box().hi[d] > dims[d]) {
          fail("grid outside domain: " + g.box().str());
          break;
        }
      const Grid* parent = g.parent();
      if (l > 0 && parent == nullptr) fail("refined grid without parent");
      if (l > 0 && parent != nullptr) {
        // Aligned to, and contained in, a parent on the level above.
        const Index3 pdims = level_dims(l - 1);
        IndexBox in_parent;
        bool aligned = true;
        for (int d = 0; d < 3; ++d) {
          const std::int64_t rd = dims[d] / pdims[d];
          if (g.box().lo[d] % rd != 0 || g.box().hi[d] % rd != 0)
            aligned = false;
          in_parent.lo[d] = g.box().lo[d] / rd;
          in_parent.hi[d] = g.box().hi[d] / rd;
        }
        if (!aligned)
          fail("grid not aligned to parent cells: " + g.box().str());
        if (!parent->box().contains(in_parent))
          fail("grid " + g.box().str() + " not contained in parent " +
               parent->box().str());
        const auto& above = levels_[l - 1];
        if (std::none_of(above.begin(), above.end(),
                         [&](const auto& p) { return p.get() == parent; }))
          fail("stale parent pointer");
      }
      for (std::size_t b = a + 1; b < lv.size(); ++b)
        if (!g.box().intersect(lv[b]->box()).empty())
          fail("overlaps sibling " + lv[b]->box().str());
      for (const Particle& p : g.particles())
        if (!g.contains_position(p.x))
          report("particles", l, g.id(),
                 "particle " + std::to_string(p.id) +
                     " outside its owning grid " + g.box().str());
    }
  }
}

void Hierarchy::check_invariants() const {
  for_each_invariant_violation(
      [](const char*, int level, std::uint64_t, std::string detail) {
        throw Error("hierarchy invariant broken on level " +
                    std::to_string(level) + ": " + detail);
      });
}

std::vector<std::size_t> Hierarchy::grids_per_level() const {
  std::vector<std::size_t> out;
  for (auto& lv : levels_) out.push_back(lv.size());
  return out;
}

std::vector<double> Hierarchy::work_per_level() const {
  // Work ≈ cells × number of (sub)timesteps the level takes per root step.
  std::vector<double> out;
  double steps = 1.0;
  for (auto& lv : levels_) {
    std::int64_t cells = 0;
    for (auto& g : lv) cells += g->box().volume();
    out.push_back(static_cast<double>(cells) * steps);
    steps *= params_.refine_factor;
  }
  return out;
}

}  // namespace enzo::mesh
