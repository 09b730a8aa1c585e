// Gravitating-mass assembly, subgrid Poisson orchestration (parent BC
// interpolation + multigrid + sibling iteration), and force differencing.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "exec/executor.hpp"
#include "gravity/gravity.hpp"
#include "mesh/topology.hpp"
#include "perf/metrics.hpp"
#include "perf/trace.hpp"
#include "util/error.hpp"

namespace enzo::gravity {

using mesh::Grid;

namespace {

int pot_ghost(const Grid& g, int d) {
  return g.spec().level_dims[d] > 1 ? 1 : 0;
}

std::uint64_t cells_of(const Grid& g) {
  return static_cast<std::uint64_t>(g.nx(0)) *
         static_cast<std::uint64_t>(g.nx(1)) *
         static_cast<std::uint64_t>(g.nx(2));
}

/// The parent-potential taps of a subgrid's potential storage along one
/// axis: for each storage index, the parent storage indices of its two taps
/// and their trilinear weights.
struct AxisTaps {
  std::vector<int> i0, i1;
  std::vector<double> w0, w1;
};

/// Build g's taps along axis d on its parent.  The child index is
/// deliberately unwrapped, as in mesh::interpolate's build_axis: a ghost
/// beyond the periodic domain edge maps into the parent's own ghost layer,
/// which holds the periodic image (a wrapped index would land on the far
/// side, outside a parent that does not span the domain).  The window clamp
/// covers a child that reaches past its parent's ghost layer.  On an axis
/// the parent does not resolve, both taps are storage index 0.
void build_taps(AxisTaps& t, const Grid& child, const Grid& parent, int d) {
  const int gd = pot_ghost(child, d);
  const int n = child.nx(d) + 2 * gd;
  t.i0.resize(static_cast<std::size_t>(n));
  t.i1.resize(static_cast<std::size_t>(n));
  t.w0.resize(static_cast<std::size_t>(n));
  t.w1.resize(static_cast<std::size_t>(n));
  const std::int64_t cd = child.spec().level_dims[d];
  const std::int64_t pd = parent.spec().level_dims[d];
  for (int s = 0; s < n; ++s) {
    const auto e = static_cast<std::size_t>(s);
    if (pd == 1) {
      t.i0[e] = t.i1[e] = 0;
      t.w0[e] = 1.0;
      t.w1[e] = 0.0;
      continue;
    }
    const int rd = static_cast<int>(cd / pd);
    const std::int64_t g0 = child.box().lo[d] + (s - gd);
    // Parent-index coordinate of the child cell center.
    const double x = (static_cast<double>(g0) + 0.5) / rd - 0.5;
    const double fl = std::floor(x);
    double f = x - fl;
    // Parent storage index (1 ghost), clamped so that both taps lie in the
    // parent's [0, nx+1] window.
    std::int64_t s0 = static_cast<std::int64_t>(fl) - parent.box().lo[d] + 1;
    const std::int64_t smax = parent.nx(d);
    if (s0 < 0) {
      s0 = 0;
      f = 0.0;
    }
    if (s0 > smax) {
      s0 = smax;
      f = 1.0;
    }
    t.i0[e] = static_cast<int>(s0);
    t.i1[e] = static_cast<int>(s0) + 1;
    t.w0[e] = 1.0 - f;
    t.w1[e] = f;
  }
}

/// Trilinear interpolation of the parent's potential into every cell of g's
/// potential, ghosts included.  The 8 taps are summed in (dk, dj, di) order
/// with weights (wx·wy)·wz; a zero-weight tap adds +0.0 instead, which
/// leaves the sum unchanged (it starts at +0.0, so it is never −0.0) and
/// keeps a non-finite value there out of it.
void interpolate_parent_potential(Grid& g, const Grid& parent) {
  thread_local AxisTaps taps[3];
  for (int d = 0; d < 3; ++d) build_taps(taps[d], g, parent, d);
  const AxisTaps &tx = taps[0], &ty = taps[1], &tz = taps[2];
  const mesh::FieldView pot = g.potential();
  const mesh::ConstFieldView pp = parent.potential();
  const int n = pot.nx();
  const int* const ix[2] = {tx.i0.data(), tx.i1.data()};
  const double* const wx[2] = {tx.w0.data(), tx.w1.data()};
  for (int k = 0; k < pot.nz(); ++k)
    for (int j = 0; j < pot.ny(); ++j) {
      const auto jy = static_cast<std::size_t>(j);
      const auto kz = static_cast<std::size_t>(k);
      const int iy[2] = {ty.i0[jy], ty.i1[jy]}, iz[2] = {tz.i0[kz], tz.i1[kz]};
      const double wy[2] = {ty.w0[jy], ty.w1[jy]},
                   wz[2] = {tz.w0[kz], tz.w1[kz]};
      // The four parent rows a child row reads, in (dk, dj) order.
      const double* prow[2][2];
      for (int dk = 0; dk < 2; ++dk)
        for (int dj = 0; dj < 2; ++dj)
          prow[dk][dj] = pp.row(0, pp.nx(), iy[dj], iz[dk]);
      double* out = pot.row(0, n, j, k);
      for (int i = 0; i < n; ++i) {
        double v = 0.0;
        for (int dk = 0; dk < 2; ++dk)
          for (int dj = 0; dj < 2; ++dj)
            for (int di = 0; di < 2; ++di) {
              const double ww = wx[di][i] * wy[dj] * wz[dk];
              const double tap = ww * prow[dk][dj][ix[di][i]];
              v += ww == 0.0 ? 0.0 : tap;
            }
        out[i] = v;
      }
    }
}

/// Copy one sibling's interior potential into g's ghost layer over the
/// (already nonempty-tested) overlap `ov` at periodic shift (kx,ky,kz).
void copy_potential_overlap(Grid& g, const Grid& s, const mesh::IndexBox& ov,
                            std::int64_t kx, std::int64_t ky,
                            std::int64_t kz) {
  const mesh::FieldView pot = g.potential();
  const mesh::ConstFieldView spot = s.potential();
  const int gx = pot_ghost(g, 0), gy = pot_ghost(g, 1), gz = pot_ghost(g, 2);
  const int sgx = pot_ghost(s, 0), sgy = pot_ghost(s, 1),
            sgz = pot_ghost(s, 2);
  for (std::int64_t zk = ov.lo[2]; zk < ov.hi[2]; ++zk)
    for (std::int64_t zj = ov.lo[1]; zj < ov.hi[1]; ++zj)
      for (std::int64_t zi = ov.lo[0]; zi < ov.hi[0]; ++zi) {
        const int di = static_cast<int>(zi - g.box().lo[0]) + gx;
        const int dj = static_cast<int>(zj - g.box().lo[1]) + gy;
        const int dk = static_cast<int>(zk - g.box().lo[2]) + gz;
        const int si = static_cast<int>(zi - kx - s.box().lo[0]) + sgx;
        const int sj = static_cast<int>(zj - ky - s.box().lo[1]) + sgy;
        const int sk = static_cast<int>(zk - kz - s.box().lo[2]) + sgz;
        pot(di, dj, dk) = spot(si, sj, sk);
      }
}

/// Copy sibling interior potential into g's ghost layer where they overlap
/// (with periodic images), visiting only the cached neighbor links — this
/// runs every multigrid sweep.  The potential's one-cell ghost box is a
/// subset of the links' "wide" candidate box (max(nghost, 1) cells), so
/// every sibling with a nonempty potential overlap appears in the link list
/// (the exact 1-ghost intersection is recomputed per link).
void exchange_potential_with_siblings(Grid& g,
                                      const std::vector<Grid*>& level_grids,
                                      const mesh::OverlapTopology& topo,
                                      int level, std::size_t ordinal) {
  const int gx = pot_ghost(g, 0), gy = pot_ghost(g, 1), gz = pot_ghost(g, 2);
  mesh::IndexBox ghost_box = g.box();
  ghost_box.lo[0] -= gx;
  ghost_box.lo[1] -= gy;
  ghost_box.lo[2] -= gz;
  ghost_box.hi[0] += gx;
  ghost_box.hi[1] += gy;
  ghost_box.hi[2] += gz;
  for (const mesh::SiblingLink& ln : topo.siblings(level, ordinal)) {
    const Grid* s = level_grids[ln.src];
    const mesh::IndexBox ov = ghost_box.intersect(s->box().shifted(ln.shift));
    if (ov.empty()) continue;
    copy_potential_overlap(g, *s, ov, ln.shift[0], ln.shift[1], ln.shift[2]);
  }
}

/// Volume-average one child's gravitating mass into the parent cells under
/// its box (child boxes are aligned to parent cells, so siblings touch
/// disjoint parent cells).
void restrict_child_mass(const Grid& g, Grid& parent) {
  if (!parent.has_gravity() || !g.has_gravity()) return;
  int rd[3];
  for (int d = 0; d < 3; ++d)
    rd[d] = static_cast<int>(g.spec().level_dims[d] /
                             parent.spec().level_dims[d]);
  const int gx = pot_ghost(g, 0), gy = pot_ghost(g, 1), gz = pot_ghost(g, 2);
  const int pgx = pot_ghost(parent, 0), pgy = pot_ghost(parent, 1),
            pgz = pot_ghost(parent, 2);
  const mesh::FieldView pgm = parent.gravitating_mass();
  const mesh::ConstFieldView cgm = g.gravitating_mass();
  const double inv_nf = 1.0 / (static_cast<double>(rd[0]) * rd[1] * rd[2]);
  for (std::int64_t pk = g.box().lo[2] / rd[2]; pk < g.box().hi[2] / rd[2];
       ++pk)
    for (std::int64_t pj = g.box().lo[1] / rd[1]; pj < g.box().hi[1] / rd[1];
         ++pj)
      for (std::int64_t pi = g.box().lo[0] / rd[0]; pi < g.box().hi[0] / rd[0];
           ++pi) {
        double sum = 0.0;
        for (int ck = 0; ck < rd[2]; ++ck)
          for (int cj = 0; cj < rd[1]; ++cj)
            for (int ci = 0; ci < rd[0]; ++ci)
              sum += cgm(
                  static_cast<int>(pi * rd[0] - g.box().lo[0]) + ci + gx,
                  static_cast<int>(pj * rd[1] - g.box().lo[1]) + cj + gy,
                  static_cast<int>(pk * rd[2] - g.box().lo[2]) + ck + gz);
        pgm(static_cast<int>(pi - parent.box().lo[0]) + pgx,
            static_cast<int>(pj - parent.box().lo[1]) + pgy,
            static_cast<int>(pk - parent.box().lo[2]) + pgz) = sum * inv_nf;
      }
}

}  // namespace

void begin_gravitating_mass(mesh::Hierarchy& h, int level,
                            exec::LevelExecutor* ex) {
  const auto grids = h.grids(level);
  exec::fallback(ex).for_each(
      {"begin_gravitating_mass", perf::component::kGravity, level},
      grids.size(),
      [&](std::size_t n) {
        Grid* g = grids[n];
        g->allocate_gravity();
        const mesh::FieldView gm = g->gravitating_mass();
        gm.fill(0.0);
        const mesh::ConstFieldView rho = g->field(mesh::Field::kDensity);
        const int gx = pot_ghost(*g, 0), gy = pot_ghost(*g, 1),
                  gz = pot_ghost(*g, 2);
        for (int k = 0; k < g->nx(2); ++k)
          for (int j = 0; j < g->nx(1); ++j)
            for (int i = 0; i < g->nx(0); ++i)
              gm(i + gx, j + gy, k + gz) = rho(g->sx(i), g->sy(j), g->sz(k));
      },
      [&](std::size_t n) { return cells_of(*grids[n]); });
}

void restrict_gravitating_mass(mesh::Hierarchy& h, exec::LevelExecutor* ex,
                               int coarsest) {
  for (int l = h.deepest_level(); l > std::max(coarsest, 0); --l) {
    const auto children = h.grids(l);
    // Children write into their (possibly shared) parent's mass array:
    // group by parent so each parent is touched by exactly one task, which
    // preserves the serial per-parent write order exactly.  The topology
    // cache holds the first-seen-order grouping precomputed.
    const std::vector<mesh::ParentGroup> none;
    const std::vector<mesh::ParentGroup>& groups =
        children.empty() ? none : h.topology().children_by_parent(l);
    for (const mesh::ParentGroup& gp : groups)
      ENZO_REQUIRE(gp.first != nullptr, "gravity restriction without parent");
    exec::fallback(ex).for_each(
        {"restrict_gravitating_mass", perf::component::kGravity, l},
        groups.size(),
        [&](std::size_t n) {
          Grid* parent = groups[n].first;
          for (Grid* g : groups[n].second) restrict_child_mass(*g, *parent);
        },
        [&](std::size_t n) {
          std::uint64_t c = 0;
          for (const Grid* g : groups[n].second) c += cells_of(*g);
          return c;
        });
  }
}

void solve_subgrid_gravity(mesh::Hierarchy& h, int level,
                           const GravityParams& p, double a,
                           exec::LevelExecutor* ex) {
  ENZO_REQUIRE(level >= 1, "solve_subgrid_gravity on the root level");
  auto level_grids = h.grids(level);
  if (level_grids.empty()) return;
  perf::TraceScope scope("subgrid_multigrid", perf::component::kGravity,
                         level);
  exec::LevelExecutor& e = exec::fallback(ex);
  const auto grid_cost = [&](std::size_t n) {
    return cells_of(*level_grids[n]);
  };
  const double coef = p.grav_const_code / a;
  // Fetch the cached neighbor lists before the first phase (the hierarchy is
  // frozen inside phases, so the reference stays valid for all of them).
  const mesh::OverlapTopology& topo = h.topology();

  // Per-grid RHS and initial guess (interpolated parent potential
  // everywhere, which also sets the Dirichlet ghosts; the parent shell is
  // set here once per level solve).  Each task writes
  // only its own potential/RHS and reads its parent's solved potential,
  // which this phase never writes.  The RHS blocks come from the
  // hierarchy's storage arena, whose pool holds the grids' same-shaped
  // gravity fields, so they recycle with the grids instead of piling up by
  // shape.
  util::Arena& arena = h.arena().doubles();
  std::vector<util::Buffer3> rhs(level_grids.size());
  for (util::Buffer3& b : rhs) b.set_arena(&arena);
  e.for_each(
      {"subgrid_rhs", perf::component::kGravity, level}, level_grids.size(),
      [&](std::size_t n) {
        Grid* g = level_grids[n];
        g->allocate_gravity();
        Grid* parent = g->parent();
        ENZO_REQUIRE(parent && parent->has_gravity(),
                     "parent potential missing for subgrid gravity");
        interpolate_parent_potential(*g, *parent);
        const mesh::FieldView pot = g->potential();
        const int gx = pot_ghost(*g, 0), gy = pot_ghost(*g, 1),
                  gz = pot_ghost(*g, 2);
        rhs[n].resize(pot.nx(), pot.ny(), pot.nz(), 0.0);
        const mesh::FieldView f = rhs[n].view();
        const mesh::ConstFieldView gm = g->gravitating_mass();
        for (int k = 0; k < g->nx(2); ++k)
          for (int j = 0; j < g->nx(1); ++j)
            for (int i = 0; i < g->nx(0); ++i)
              f(i + gx, j + gy, k + gz) =
                  coef * (gm(i + gx, j + gy, k + gz) - p.mean_density);
      },
      grid_cost);

  // Solve, exchange boundaries with siblings, and solve again (§3.3).  The
  // two half-steps are separate phases: solving touches only the grid's own
  // arrays; exchanging writes only the grid's own ghost layer while reading
  // sibling interiors, which no exchange task writes.  The exchange copies
  // sibling cells only: a solve never changes a ghost and the parent's
  // potential is fixed during the level's solve, so a ghost no sibling
  // covers still holds its parent value, and a covered one is overwritten.
  static perf::Counter& unconverged =
      perf::Registry::global().counter("gravity.mg_unconverged");
  for (int pass = 0; pass <= p.sibling_iterations; ++pass) {
    e.for_each(
        {"multigrid_solve", perf::component::kGravity, level},
        level_grids.size(),
        [&](std::size_t n) {
          Grid* g = level_grids[n];
          const double rel = multigrid_solve(g->potential(), rhs[n].view(),
                                             g->cell_width_d(0), p);
          if (!std::isfinite(rel))
            throw Error("subgrid gravity: multigrid residual " +
                        std::to_string(rel) + " on level " +
                        std::to_string(level) + ", grid " + g->box().str() +
                        ", pass " + std::to_string(pass) + " of " +
                        std::to_string(p.sibling_iterations + 1) +
                        " (non-finite gravitating mass or potential)");
          if (rel >= p.mg_tolerance) unconverged.add(1);
        },
        grid_cost);
    if (pass < p.sibling_iterations) {
      e.for_each(
          {"sibling_exchange", perf::component::kGravity, level},
          level_grids.size(),
          [&](std::size_t n) {
            exchange_potential_with_siblings(*level_grids[n], level_grids,
                                             topo, level, n);
          },
          grid_cost);
    }
  }
}

void compute_accelerations(Grid& g, double a) {
  ENZO_REQUIRE(g.has_gravity(), "accelerations require a solved potential");
  const mesh::ConstFieldView pot = g.potential();
  const int gx = pot_ghost(g, 0), gy = pot_ghost(g, 1), gz = pot_ghost(g, 2);
  for (int d = 0; d < 3; ++d) {
    const mesh::FieldView acc = g.acceleration(d);
    if (g.spec().level_dims[d] == 1) {
      acc.fill(0.0);
      continue;
    }
    const double inv = -1.0 / (2.0 * a * g.cell_width_d(d));
    const int off[3] = {d == 0 ? 1 : 0, d == 1 ? 1 : 0, d == 2 ? 1 : 0};
    for (int k = 0; k < g.nx(2); ++k)
      for (int j = 0; j < g.nx(1); ++j)
        for (int i = 0; i < g.nx(0); ++i)
          acc(i, j, k) = inv * (pot(i + gx + off[0], j + gy + off[1],
                                    k + gz + off[2]) -
                                pot(i + gx - off[0], j + gy - off[1],
                                    k + gz - off[2]));
  }
}

}  // namespace enzo::gravity
