// Gravitating-mass assembly, subgrid Poisson orchestration (parent BC
// interpolation + multigrid + sibling iteration), and force differencing.

#include <cmath>

#include "exec/executor.hpp"
#include "gravity/gravity.hpp"
#include "mesh/topology.hpp"
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

/// Trilinear interpolation of the parent's potential at the center of the
/// child's cell with global (child-level) index gi (wrapped periodically).
double parent_potential_at(const Grid& child, const Grid& parent,
                           std::int64_t gi, std::int64_t gj, std::int64_t gk) {
  double w[3][2];
  int base[3];
  const std::int64_t gidx[3] = {gi, gj, gk};
  for (int d = 0; d < 3; ++d) {
    const std::int64_t cd = child.spec().level_dims[d];
    const std::int64_t pd = parent.spec().level_dims[d];
    if (pd == 1) {
      base[d] = 0;
      w[d][0] = 1.0;
      w[d][1] = 0.0;
      continue;
    }
    const int rd = static_cast<int>(cd / pd);
    std::int64_t g0 = gidx[d];
    if (child.spec().periodic) g0 = ((g0 % cd) + cd) % cd;
    // Parent-index coordinate of the child cell center.
    const double x = (static_cast<double>(g0) + 0.5) / rd - 0.5;
    const double fl = std::floor(x);
    std::int64_t p0 = static_cast<std::int64_t>(fl);
    double f = x - fl;
    // Parent storage index (1 ghost).
    std::int64_t s0 = p0 - parent.box().lo[d] + 1;
    // Clamp into the available [0, nx+1] window (only needed when the child
    // touches the parent's edge and the domain is not periodic).
    const std::int64_t smax = parent.nx(d);  // s0 and s0+1 must be <= nx+1-1
    if (s0 < 0) {
      s0 = 0;
      f = 0.0;
    }
    if (s0 > smax) {
      s0 = smax;
      f = 1.0;
    }
    base[d] = static_cast<int>(s0);
    w[d][0] = 1.0 - f;
    w[d][1] = f;
  }
  const auto& pot = parent.potential();
  double v = 0.0;
  for (int dk = 0; dk < 2; ++dk)
    for (int dj = 0; dj < 2; ++dj)
      for (int di = 0; di < 2; ++di) {
        const double ww = w[0][di] * w[1][dj] * w[2][dk];
        if (ww == 0.0) continue;
        v += ww * pot(base[0] + di, base[1] + dj, base[2] + dk);
      }
  return v;
}

/// Fill a subgrid's potential ghost layer from its parent.
void fill_potential_bc_from_parent(Grid& g, const Grid& parent) {
  const mesh::FieldView pot = g.potential();
  const int gx = pot_ghost(g, 0), gy = pot_ghost(g, 1), gz = pot_ghost(g, 2);
  for (int k = -gz; k < g.nx(2) + gz; ++k)
    for (int j = -gy; j < g.nx(1) + gy; ++j)
      for (int i = -gx; i < g.nx(0) + gx; ++i) {
        const bool interior = i >= 0 && i < g.nx(0) && j >= 0 &&
                              j < g.nx(1) && k >= 0 && k < g.nx(2);
        if (interior) continue;
        pot(i + gx, j + gy, k + gz) =
            parent_potential_at(g, parent, g.box().lo[0] + i,
                                g.box().lo[1] + j, g.box().lo[2] + k);
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

void restrict_gravitating_mass(mesh::Hierarchy& h, exec::LevelExecutor* ex) {
  for (int l = h.deepest_level(); l >= 1; --l) {
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
  // everywhere, which also sets the Dirichlet ghosts).  Each task writes
  // only its own potential/RHS and reads its parent's solved potential,
  // which this phase never writes.
  std::vector<util::Array3<double>> rhs(level_grids.size());
  e.for_each(
      {"subgrid_rhs", perf::component::kGravity, level}, level_grids.size(),
      [&](std::size_t n) {
        Grid* g = level_grids[n];
        g->allocate_gravity();
        Grid* parent = g->parent();
        ENZO_REQUIRE(parent && parent->has_gravity(),
                     "parent potential missing for subgrid gravity");
        const mesh::FieldView pot = g->potential();
        const int gx = pot_ghost(*g, 0), gy = pot_ghost(*g, 1),
                  gz = pot_ghost(*g, 2);
        for (int k = -gz; k < g->nx(2) + gz; ++k)
          for (int j = -gy; j < g->nx(1) + gy; ++j)
            for (int i = -gx; i < g->nx(0) + gx; ++i)
              pot(i + gx, j + gy, k + gz) =
                  parent_potential_at(*g, *parent, g->box().lo[0] + i,
                                      g->box().lo[1] + j, g->box().lo[2] + k);
        rhs[n].resize(pot.nx(), pot.ny(), pot.nz(), 0.0);
        const mesh::ConstFieldView gm = g->gravitating_mass();
        for (int k = 0; k < g->nx(2); ++k)
          for (int j = 0; j < g->nx(1); ++j)
            for (int i = 0; i < g->nx(0); ++i)
              rhs[n](i + gx, j + gy, k + gz) =
                  coef * (gm(i + gx, j + gy, k + gz) - p.mean_density);
      },
      grid_cost);

  // Solve, exchange boundaries with siblings, and solve again (§3.3).  The
  // two half-steps are separate phases: solving touches only the grid's own
  // arrays; exchanging writes only the grid's own ghost layer while reading
  // sibling interiors, which no exchange task writes.
  for (int pass = 0; pass <= p.sibling_iterations; ++pass) {
    e.for_each(
        {"multigrid_solve", perf::component::kGravity, level},
        level_grids.size(),
        [&](std::size_t n) {
          Grid* g = level_grids[n];
          multigrid_solve(g->potential(), rhs[n].view(), g->cell_width_d(0),
                          p);
        },
        grid_cost);
    if (pass < p.sibling_iterations) {
      e.for_each(
          {"sibling_exchange", perf::component::kGravity, level},
          level_grids.size(),
          [&](std::size_t n) {
            Grid* g = level_grids[n];
            fill_potential_bc_from_parent(*g, *g->parent());
            exchange_potential_with_siblings(*g, level_grids, topo, level, n);
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
