// Gravity tests: multigrid against a manufactured solution and, bit for
// bit, against the scalar kernels it replaced; FFT root solve against
// discrete plane-wave eigenfunctions and a compact mass's 1/r² field, mass
// restriction, subgrid solves with parent BCs (bit for bit against the
// cell-by-cell parent interpolation and the refill-every-pass exchange they
// replaced), the periodic edge of a subgrid parent, failure diagnosis, and
// sibling potential consistency.  The root solve's per-axis eigenvalue
// tables and its lane split, and a level solve that assembles only its own
// and finer levels' mass, each match the code they replaced bit for bit.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/executor.hpp"
#include "fft/fft.hpp"
#include "gravity/gravity.hpp"
#include "mesh/hierarchy.hpp"
#include "nbody/nbody.hpp"
#include "perf/metrics.hpp"
#include "util/constants.hpp"
#include "util/flops.hpp"
#include "util/rng.hpp"

using namespace enzo;
using mesh::Field;
using mesh::Grid;

namespace {

mesh::Hierarchy make_box(int n, int max_level = 4) {
  mesh::HierarchyParams p;
  p.root_dims = {n, n, n};
  p.max_level = max_level;
  mesh::Hierarchy h(p);
  h.build_root();
  return h;
}

void fill_uniform_gas(Grid& g, double rho0) {
  for (Field f : g.field_list())
    g.field(f).fill(f == Field::kDensity
                        ? rho0
                        : (f == Field::kTotalEnergy ||
                           f == Field::kInternalEnergy)
                              ? 1.0
                              : 0.0);
}

std::uint64_t counter(const char* name) {
  return perf::Registry::global().counter(name).value();
}

// ---- scalar oracle ----------------------------------------------------------
// The multigrid kernels src/gravity/multigrid.cpp ran before its row
// kernels: cell loops through 3-d indexing with a per-cell colour test,
// a fresh level stack per solve and a fresh residual per V-cycle.  The row
// kernels must reproduce them bit for bit.
namespace oracle {

struct MgLevel {
  util::Buffer3 phi;  // with 1 ghost on active axes
  util::Buffer3 rhs;  // same shape; ghosts ignored
  int n[3];           // active extents
  bool active[3];
  double dx;
};

int ghost(const MgLevel& lv, int d) { return lv.active[d] ? 1 : 0; }

/// Counts the flop estimate the solver posts and the V-cycles it runs.
struct Tally {
  std::uint64_t flops = 0;
  int vcycles = 0;
};

void smooth(MgLevel& lv, int sweeps, Tally& t) {
  const double dx2 = lv.dx * lv.dx;
  int nterms = 0;
  for (int d = 0; d < 3; ++d)
    if (lv.active[d]) nterms += 2;
  if (nterms == 0) return;
  const int gx = ghost(lv, 0), gy = ghost(lv, 1), gz = ghost(lv, 2);
  const mesh::FieldView phi = lv.phi.view();
  const mesh::ConstFieldView rhs = lv.rhs.view();
  for (int s = 0; s < sweeps; ++s) {
    for (int color = 0; color < 2; ++color) {
      for (int k = 0; k < lv.n[2]; ++k)
        for (int j = 0; j < lv.n[1]; ++j)
          for (int i = 0; i < lv.n[0]; ++i) {
            if (((i + j + k) & 1) != color) continue;
            const int si = i + gx, sj = j + gy, sk = k + gz;
            double sum = 0.0;
            if (lv.active[0])
              sum += phi(si + 1, sj, sk) + phi(si - 1, sj, sk);
            if (lv.active[1])
              sum += phi(si, sj + 1, sk) + phi(si, sj - 1, sk);
            if (lv.active[2])
              sum += phi(si, sj, sk + 1) + phi(si, sj, sk - 1);
            phi(si, sj, sk) = (sum - dx2 * rhs(si, sj, sk)) / nterms;
          }
    }
  }
  t.flops += util::flop_cost::kMultigridPerCellPerSweep *
             static_cast<std::uint64_t>(lv.n[0]) * lv.n[1] * lv.n[2] * 2 *
             sweeps;
}

void residual(const MgLevel& lv, mesh::FieldView res) {
  const double inv_dx2 = 1.0 / (lv.dx * lv.dx);
  const int gx = ghost(lv, 0), gy = ghost(lv, 1), gz = ghost(lv, 2);
  const mesh::ConstFieldView phi = lv.phi.view();
  const mesh::ConstFieldView rhs = lv.rhs.view();
  for (int k = 0; k < lv.n[2]; ++k)
    for (int j = 0; j < lv.n[1]; ++j)
      for (int i = 0; i < lv.n[0]; ++i) {
        const int si = i + gx, sj = j + gy, sk = k + gz;
        double lap = 0.0;
        const double c = phi(si, sj, sk);
        if (lv.active[0])
          lap += phi(si + 1, sj, sk) - 2 * c + phi(si - 1, sj, sk);
        if (lv.active[1])
          lap += phi(si, sj + 1, sk) - 2 * c + phi(si, sj - 1, sk);
        if (lv.active[2])
          lap += phi(si, sj, sk + 1) - 2 * c + phi(si, sj, sk - 1);
        res(si, sj, sk) = rhs(si, sj, sk) - lap * inv_dx2;
      }
}

bool can_coarsen(const MgLevel& lv) {
  for (int d = 0; d < 3; ++d)
    if (lv.active[d] && (lv.n[d] % 2 != 0 || lv.n[d] <= 2)) return false;
  return true;
}

void vcycle(std::vector<MgLevel>& levels, std::size_t l,
            const gravity::GravityParams& p, Tally& t) {
  MgLevel& lv = levels[l];
  if (l + 1 == levels.size()) {
    smooth(lv, 20, t);
    return;
  }
  smooth(lv, p.mg_pre_smooth, t);
  MgLevel& cv = levels[l + 1];
  util::Buffer3 res_buf(lv.phi.nx(), lv.phi.ny(), lv.phi.nz());
  const mesh::FieldView res = res_buf.view();
  residual(lv, res);
  const mesh::FieldView phi = lv.phi.view();
  const mesh::FieldView cphi = cv.phi.view();
  const mesh::FieldView crhs = cv.rhs.view();
  const int gx = ghost(lv, 0), gy = ghost(lv, 1), gz = ghost(lv, 2);
  const int cgx = ghost(cv, 0), cgy = ghost(cv, 1), cgz = ghost(cv, 2);
  cv.phi.fill(0.0);
  for (int k = 0; k < cv.n[2]; ++k)
    for (int j = 0; j < cv.n[1]; ++j)
      for (int i = 0; i < cv.n[0]; ++i) {
        double sum = 0.0;
        int cnt = 0;
        for (int dk = 0; dk < (lv.active[2] ? 2 : 1); ++dk)
          for (int dj = 0; dj < (lv.active[1] ? 2 : 1); ++dj)
            for (int di = 0; di < (lv.active[0] ? 2 : 1); ++di) {
              sum += res((lv.active[0] ? 2 * i + di : i) + gx,
                         (lv.active[1] ? 2 * j + dj : j) + gy,
                         (lv.active[2] ? 2 * k + dk : k) + gz);
              ++cnt;
            }
        crhs(i + cgx, j + cgy, k + cgz) = sum / cnt;
      }
  vcycle(levels, l + 1, p, t);
  for (int k = 0; k < lv.n[2]; ++k)
    for (int j = 0; j < lv.n[1]; ++j)
      for (int i = 0; i < lv.n[0]; ++i) {
        const int f[3] = {i, j, k};
        int c0[3], c1[3];
        double w0[3];
        for (int d = 0; d < 3; ++d) {
          if (!lv.active[d]) {
            c0[d] = c1[d] = f[d];
            w0[d] = 1.0;
            continue;
          }
          const int cc = f[d] / 2;
          c0[d] = cc;
          c1[d] = (f[d] % 2 == 0) ? cc - 1 : cc + 1;
          w0[d] = 0.75;
        }
        double corr = 0.0;
        for (int bz = 0; bz < (lv.active[2] ? 2 : 1); ++bz)
          for (int by = 0; by < (lv.active[1] ? 2 : 1); ++by)
            for (int bx = 0; bx < (lv.active[0] ? 2 : 1); ++bx) {
              const double w = (bx ? 1.0 - w0[0] : w0[0]) *
                               (by ? 1.0 - w0[1] : w0[1]) *
                               (bz ? 1.0 - w0[2] : w0[2]);
              corr += w * cphi((bx ? c1[0] : c0[0]) + cgx,
                               (by ? c1[1] : c0[1]) + cgy,
                               (bz ? c1[2] : c0[2]) + cgz);
            }
        phi(i + gx, j + gy, k + gz) += corr;
      }
  smooth(lv, p.mg_post_smooth, t);
}

double norm2(const MgLevel& lv, mesh::ConstFieldView a) {
  const int gx = ghost(lv, 0), gy = ghost(lv, 1), gz = ghost(lv, 2);
  double s = 0;
  for (int k = 0; k < lv.n[2]; ++k)
    for (int j = 0; j < lv.n[1]; ++j)
      for (int i = 0; i < lv.n[0]; ++i) {
        const double v = a(i + gx, j + gy, k + gz);
        s += v * v;
      }
  return std::sqrt(s);
}

double multigrid_solve(util::Buffer3& phi, const util::Buffer3& rhs, double dx,
                       const gravity::GravityParams& p, Tally& t) {
  std::vector<MgLevel> levels;
  MgLevel fine;
  fine.dx = dx;
  const int tot[3] = {phi.nx(), phi.ny(), phi.nz()};
  for (int d = 0; d < 3; ++d) {
    fine.active[d] = tot[d] > 1;
    fine.n[d] = fine.active[d] ? tot[d] - 2 : 1;
  }
  fine.phi.copy_from(phi);
  fine.rhs.copy_from(rhs);
  levels.push_back(std::move(fine));
  while (can_coarsen(levels.back()) && levels.size() < 12) {
    const MgLevel& f = levels.back();
    MgLevel c;
    c.dx = f.dx * 2.0;
    for (int d = 0; d < 3; ++d) {
      c.active[d] = f.active[d];
      c.n[d] = f.active[d] ? f.n[d] / 2 : 1;
    }
    c.phi.resize(c.n[0] + 2 * (c.active[0] ? 1 : 0),
                 c.n[1] + 2 * (c.active[1] ? 1 : 0),
                 c.n[2] + 2 * (c.active[2] ? 1 : 0), 0.0);
    c.rhs.copy_from(c.phi);
    levels.push_back(std::move(c));
  }
  util::Buffer3 res(phi.nx(), phi.ny(), phi.nz());
  const double rhs_norm = norm2(levels[0], levels[0].rhs.view());
  double rel = 1.0;
  for (int cycle = 0; cycle < p.mg_max_vcycles; ++cycle) {
    vcycle(levels, 0, p, t);
    ++t.vcycles;
    residual(levels[0], res.view());
    const double rn = norm2(levels[0], res.view());
    rel = rhs_norm > 0 ? rn / rhs_norm : rn;
    if (rel < p.mg_tolerance) break;
  }
  phi.copy_from(levels[0].phi);
  return rel;
}

}  // namespace oracle

// ---- subgrid oracle ---------------------------------------------------------
// The subgrid path src/gravity/gravity.cpp ran before its per-axis tables:
// the parent's potential interpolated cell by cell, and every exchange pass
// refilling the whole ghost shell from the parent before the sibling copy.
// The interpolation reads the child index unwrapped (the periodic-edge fix).
namespace subgrid_oracle {

int pot_ghost(const Grid& g, int d) {
  return g.spec().level_dims[d] > 1 ? 1 : 0;
}

/// Trilinear interpolation of the parent's potential at the center of the
/// child's cell with global (child-level) index gi.
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
    const std::int64_t g0 = gidx[d];
    const double x = (static_cast<double>(g0) + 0.5) / rd - 0.5;
    const double fl = std::floor(x);
    const auto p0 = static_cast<std::int64_t>(fl);
    double f = x - fl;
    std::int64_t s0 = p0 - parent.box().lo[d] + 1;
    const std::int64_t smax = parent.nx(d);
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

/// Set every cell of g's potential (ghosts too, `ghosts_only` skips the
/// interior) from its parent.
void fill_from_parent(Grid& g, bool ghosts_only) {
  const mesh::FieldView pot = g.potential();
  const int gx = pot_ghost(g, 0), gy = pot_ghost(g, 1), gz = pot_ghost(g, 2);
  for (int k = -gz; k < g.nx(2) + gz; ++k)
    for (int j = -gy; j < g.nx(1) + gy; ++j)
      for (int i = -gx; i < g.nx(0) + gx; ++i) {
        const bool interior = i >= 0 && i < g.nx(0) && j >= 0 &&
                              j < g.nx(1) && k >= 0 && k < g.nx(2);
        if (ghosts_only && interior) continue;
        pot(i + gx, j + gy, k + gz) =
            parent_potential_at(g, *g.parent(), g.box().lo[0] + i,
                                g.box().lo[1] + j, g.box().lo[2] + k);
      }
}

/// Copy every level grid's interior potential, and each periodic image of
/// it, into g's ghost shell where they overlap (an all-pairs scan).
void exchange(Grid& g, const std::vector<Grid*>& grids) {
  const int gh[3] = {pot_ghost(g, 0), pot_ghost(g, 1), pot_ghost(g, 2)};
  mesh::IndexBox shell = g.box();
  for (int d = 0; d < 3; ++d) {
    shell.lo[d] -= gh[d];
    shell.hi[d] += gh[d];
  }
  std::int64_t period[3];
  for (int d = 0; d < 3; ++d)
    period[d] = g.spec().periodic && gh[d] ? g.spec().level_dims[d] : 0;
  const mesh::FieldView pot = g.potential();
  for (const Grid* s : grids) {
    const mesh::ConstFieldView spot = s->potential();
    for (int kz = -1; kz <= 1; ++kz)
      for (int ky = -1; ky <= 1; ++ky)
        for (int kx = -1; kx <= 1; ++kx) {
          const mesh::Index3 shift = {kx * period[0], ky * period[1],
                                      kz * period[2]};
          if (s == &g && shift == mesh::Index3{0, 0, 0}) continue;
          if ((kx && !period[0]) || (ky && !period[1]) || (kz && !period[2]))
            continue;
          const mesh::IndexBox ov = shell.intersect(s->box().shifted(shift));
          if (ov.empty()) continue;
          for (std::int64_t z = ov.lo[2]; z < ov.hi[2]; ++z)
            for (std::int64_t y = ov.lo[1]; y < ov.hi[1]; ++y)
              for (std::int64_t x = ov.lo[0]; x < ov.hi[0]; ++x)
                pot(static_cast<int>(x - g.box().lo[0]) + gh[0],
                    static_cast<int>(y - g.box().lo[1]) + gh[1],
                    static_cast<int>(z - g.box().lo[2]) + gh[2]) =
                    spot(static_cast<int>(x - shift[0] - s->box().lo[0]) +
                             pot_ghost(*s, 0),
                         static_cast<int>(y - shift[1] - s->box().lo[1]) +
                             pot_ghost(*s, 1),
                         static_cast<int>(z - shift[2] - s->box().lo[2]) +
                             pot_ghost(*s, 2));
        }
  }
}

/// solve_subgrid_gravity as it was, serial.
void solve(mesh::Hierarchy& h, int level, const gravity::GravityParams& p,
           double a) {
  const std::vector<Grid*> grids = h.grids(level);
  const double coef = p.grav_const_code / a;
  std::vector<util::Buffer3> rhs(grids.size());
  for (std::size_t n = 0; n < grids.size(); ++n) {
    Grid& g = *grids[n];
    g.allocate_gravity();
    fill_from_parent(g, false);
    const mesh::FieldView pot = g.potential();
    rhs[n].resize(pot.nx(), pot.ny(), pot.nz(), 0.0);
    const mesh::FieldView f = rhs[n].view();
    const mesh::ConstFieldView gm = g.gravitating_mass();
    const int gx = pot_ghost(g, 0), gy = pot_ghost(g, 1), gz = pot_ghost(g, 2);
    for (int k = 0; k < g.nx(2); ++k)
      for (int j = 0; j < g.nx(1); ++j)
        for (int i = 0; i < g.nx(0); ++i)
          f(i + gx, j + gy, k + gz) =
              coef * (gm(i + gx, j + gy, k + gz) - p.mean_density);
  }
  for (int pass = 0; pass <= p.sibling_iterations; ++pass) {
    for (std::size_t n = 0; n < grids.size(); ++n)
      gravity::multigrid_solve(grids[n]->potential(), rhs[n].view(),
                               grids[n]->cell_width_d(0), p);
    if (pass < p.sibling_iterations)
      for (Grid* g : grids) {
        fill_from_parent(*g, true);
        exchange(*g, grids);
      }
  }
}

}  // namespace subgrid_oracle

/// A root 16³ (or 16²·1 / 16·1·1) with level-1 siblings of several shapes:
/// cubic, flat (2 cells thick, a 1-level stack), odd-coarsening and
/// touching the domain edge, carrying a lumpy mass.  Solved on the root.
mesh::Hierarchy make_sibling_level(const std::vector<mesh::IndexBox>& boxes,
                                   std::array<std::int64_t, 3> dims) {
  mesh::HierarchyParams hp;
  hp.root_dims = dims;
  hp.max_level = 1;
  mesh::Hierarchy h(hp);
  h.build_root();
  Grid* root = h.grids(0)[0];
  fill_uniform_gas(*root, 1.0);
  root->store_old_fields();
  for (const mesh::IndexBox& b : boxes) {
    auto child = std::make_unique<Grid>(h.make_spec(1, b), hp.fields);
    child->set_parent(root);
    fill_uniform_gas(*child, 1.0);
    h.insert_grid(std::move(child));
  }
  gravity::begin_gravitating_mass(h, 0);
  gravity::begin_gravitating_mass(h, 1);
  util::Rng rng(17);
  for (Grid* g : h.grids(1))
    for (double& v : g->gravitating_mass()) v = rng.uniform(0.5, 4.0);
  gravity::restrict_gravitating_mass(h);
  gravity::solve_root_gravity(h, gravity::GravityParams{}, 1.0);
  return h;
}

bool same_bits(mesh::ConstFieldView a, mesh::ConstFieldView b) {
  if (!a.same_shape(b)) return false;
  for (std::size_t n = 0; n < a.size(); ++n)
    if (std::bit_cast<std::uint64_t>(a.data()[n]) !=
        std::bit_cast<std::uint64_t>(b.data()[n]))
      return false;
  return true;
}

}  // namespace

// ---- multigrid ------------------------------------------------------------------

TEST(Multigrid, ManufacturedSolutionConverges) {
  // ∇²φ = rhs with φ = sin(πx)sin(πy)sin(πz) on the unit cube, Dirichlet
  // ghosts from the analytic solution.
  const int n = 32;
  const double dx = 1.0 / n;
  util::Buffer3 phi_buf(n + 2, n + 2, n + 2), rhs_buf(n + 2, n + 2, n + 2);
  const mesh::FieldView phi = phi_buf.view(), rhs = rhs_buf.view();
  auto exact = [&](int i, int j, int k) {
    const double x = (i - 0.5) * dx, y = (j - 0.5) * dx, z = (k - 0.5) * dx;
    return std::sin(M_PI * x) * std::sin(M_PI * y) * std::sin(M_PI * z);
  };
  for (int k = 0; k < n + 2; ++k)
    for (int j = 0; j < n + 2; ++j)
      for (int i = 0; i < n + 2; ++i) {
        const bool interior = i >= 1 && i <= n && j >= 1 && j <= n &&
                              k >= 1 && k <= n;
        if (interior)
          rhs(i, j, k) = -3.0 * M_PI * M_PI * exact(i, j, k);
        else
          phi(i, j, k) = exact(i, j, k);
      }
  gravity::GravityParams p;
  const double rel = gravity::multigrid_solve(phi, rhs, dx, p);
  EXPECT_LT(rel, p.mg_tolerance);
  double max_err = 0;
  for (int k = 1; k <= n; ++k)
    for (int j = 1; j <= n; ++j)
      for (int i = 1; i <= n; ++i)
        max_err = std::max(max_err, std::abs(phi(i, j, k) - exact(i, j, k)));
  // Second-order discretization error at n=32: ~π²dx²/12 ≈ 8e-4.
  EXPECT_LT(max_err, 5e-3);
}

TEST(Multigrid, DiscretizationErrorIsSecondOrder) {
  auto run = [](int n) {
    const double dx = 1.0 / n;
    util::Buffer3 phi_buf(n + 2, n + 2, n + 2), rhs_buf(n + 2, n + 2, n + 2);
    const mesh::FieldView phi = phi_buf.view(), rhs = rhs_buf.view();
    auto exact = [&](int i, int j, int k) {
      const double x = (i - 0.5) * dx, y = (j - 0.5) * dx, z = (k - 0.5) * dx;
      return std::sin(M_PI * x) * std::sin(M_PI * y) * std::sin(M_PI * z);
    };
    for (int k = 0; k < n + 2; ++k)
      for (int j = 0; j < n + 2; ++j)
        for (int i = 0; i < n + 2; ++i) {
          const bool interior = i >= 1 && i <= n && j >= 1 && j <= n &&
                                k >= 1 && k <= n;
          if (interior)
            rhs(i, j, k) = -3.0 * M_PI * M_PI * exact(i, j, k);
          else
            phi(i, j, k) = exact(i, j, k);
        }
    gravity::GravityParams p;
    gravity::multigrid_solve(phi, rhs, 1.0 / n, p);
    double err = 0;
    for (int k = 1; k <= n; ++k)
      for (int j = 1; j <= n; ++j)
        for (int i = 1; i <= n; ++i)
          err = std::max(err, std::abs(phi(i, j, k) - exact(i, j, k)));
    return err;
  };
  const double e8 = run(8), e16 = run(16);
  EXPECT_NEAR(e8 / e16, 4.0, 1.2);  // ratio ≈ 2² for 2nd order
}

TEST(Multigrid, ZeroRhsReproducesHarmonicBoundary) {
  // rhs = 0 with linear BC φ = x: the exact discrete solution is linear.
  const int n = 16;
  const double dx = 1.0 / n;
  util::Buffer3 phi_buf(n + 2, n + 2, n + 2), rhs_buf(n + 2, n + 2, n + 2);
  const mesh::FieldView phi = phi_buf.view(), rhs = rhs_buf.view();
  for (int k = 0; k < n + 2; ++k)
    for (int j = 0; j < n + 2; ++j)
      for (int i = 0; i < n + 2; ++i)
        if (i == 0 || i == n + 1 || j == 0 || j == n + 1 || k == 0 ||
            k == n + 1)
          phi(i, j, k) = (i - 0.5) * dx;
  gravity::GravityParams p;
  gravity::multigrid_solve(phi, rhs, dx, p);
  for (int k = 1; k <= n; ++k)
    for (int i = 1; i <= n; ++i)
      EXPECT_NEAR(phi(i, 8, k), (i - 0.5) * dx, 1e-7);
}

TEST(Multigrid, OddExtentsStillConverge) {
  // A 12×10×14 box coarsens a couple of times then bottoms out; the solver
  // must still reach a reasonable residual.
  util::Buffer3 phi_buf(14, 12, 16), rhs_buf(14, 12, 16);
  const mesh::FieldView phi = phi_buf.view(), rhs = rhs_buf.view();
  rhs(7, 6, 8) = 100.0;
  gravity::GravityParams p;
  p.mg_max_vcycles = 60;
  const double rel = gravity::multigrid_solve(phi, rhs, 0.05, p);
  EXPECT_LT(rel, 1e-6);
}

TEST(Multigrid, RowKernelsMatchScalarOracleBitwise) {
  // Storage shapes (active extent + 2 on every axis longer than 1): 16³ and
  // 32³ cubes, 12×10×14 (2-level stack), a 2-cell axis (1-level stack),
  // odd extents, a 3-level stack, 2-D in two planes, 1-D along x and z,
  // and no active axis at all.  Then the short rows the plane spans run
  // through their x ghosts: active x extents 2, 4 and 6 in 3-D, 2-D and
  // 1-D, and a 1-level stack on x and on z (y is 10×4×8 above).
  const std::array<int, 3> shapes[] = {
      {18, 18, 18}, {34, 34, 34}, {14, 12, 16}, {10, 4, 8},
      {9, 11, 7},   {22, 14, 30}, {18, 18, 1},  {1, 10, 18},
      {34, 1, 1},   {1, 1, 18},   {1, 1, 1},
      {4, 12, 10},  {6, 10, 8},   {8, 6, 12},   {12, 10, 4},
      {4, 10, 1},   {6, 1, 8},    {1, 4, 10},   {4, 1, 1},
      {6, 1, 1}};
  // Converged solves forget rounding differences in early cycles, so one
  // set runs a single V-cycle without post-smoothing: every kernel's
  // rounding then reaches phi.
  gravity::GravityParams defaults;
  gravity::GravityParams uneven;  // unequal smoothing, capped cycles
  uneven.mg_pre_smooth = 2;
  uneven.mg_post_smooth = 1;
  uneven.mg_max_vcycles = 4;
  gravity::GravityParams single;
  single.mg_pre_smooth = 1;
  single.mg_post_smooth = 0;
  single.mg_max_vcycles = 1;
  const gravity::GravityParams* params[] = {&defaults, &uneven, &single,
                                            &defaults};
  util::Rng rng(2024);
  // Inputs 0-2 are random; input 3 is φ = −0.0 with rhs = +0.0, where only
  // each sum's 0.0 start turns the result into +0.0.
  for (const auto& sh : shapes)
    for (int input = 0; input < 4; ++input) {
      const gravity::GravityParams& p = *params[input];
      util::Buffer3 phi(sh[0], sh[1], sh[2], -0.0);
      util::Buffer3 rhs(sh[0], sh[1], sh[2], 0.0);
      if (input < 3) {
        for (double& v : phi.view()) v = rng.uniform(-1.0, 1.0);  // + ghosts
        for (double& v : rhs.view()) v = rng.uniform(-50.0, 50.0);
      }
      const double dx = 1.0 / 16.0;
      util::Buffer3 ref;
      ref.copy_from(phi);
      oracle::Tally t;
      const double ref_rel = oracle::multigrid_solve(ref, rhs, dx, p, t);

      const std::uint64_t flops0 = counter("flops.gravity");
      const std::uint64_t solves0 = counter("gravity.mg_solves");
      const std::uint64_t cycles0 = counter("gravity.mg_vcycles");
      const double rel = gravity::multigrid_solve(phi.view(), rhs.view(), dx, p);
      const std::string tag = std::to_string(sh[0]) + "x" +
                              std::to_string(sh[1]) + "x" +
                              std::to_string(sh[2]) + " input " +
                              std::to_string(input);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(rel),
                std::bit_cast<std::uint64_t>(ref_rel))
          << tag << ": rel " << rel << " vs " << ref_rel;
      EXPECT_TRUE(same_bits(phi.view(), ref.view())) << tag;
      EXPECT_EQ(counter("flops.gravity") - flops0, t.flops)
          << tag;
      EXPECT_EQ(counter("gravity.mg_solves") - solves0, 1u) << tag;
      EXPECT_EQ(counter("gravity.mg_vcycles") - cycles0,
                static_cast<std::uint64_t>(t.vcycles))
          << tag;
    }
}

TEST(Multigrid, SubgridSolveIsLaneIndependentBitwise) {
  // Per-lane scratch must carry nothing from one solve to the next: a
  // 4-lane solve of a level whose lanes last solved other shapes equals
  // the serial solve in every potential cell.
  const std::vector<mesh::IndexBox> boxes = {
      {{8, 8, 8}, {16, 16, 16}},    // 8³: 2-level stack
      {{16, 8, 8}, {24, 12, 20}},   // 8×4×12: 2-level stack, sibling
      {{8, 16, 8}, {20, 18, 16}},   // 12×2×8: 1-level stack, sibling
      {{0, 0, 24}, {6, 10, 32}},    // 6×10×8 at the domain edge
      {{24, 24, 0}, {32, 32, 12}}}; // 8×8×12
  const std::array<std::int64_t, 3> dims = {16, 16, 16};
  gravity::GravityParams p;
  p.sibling_iterations = 2;

  mesh::Hierarchy serial = make_sibling_level(boxes, dims);
  const std::uint64_t solves0 = counter("gravity.mg_solves");
  const std::uint64_t cycles0 = counter("gravity.mg_vcycles");
  gravity::solve_subgrid_gravity(serial, 1, p, 1.0);
  const std::uint64_t serial_cycles = counter("gravity.mg_vcycles") - cycles0;
  EXPECT_EQ(counter("gravity.mg_solves") - solves0,
            boxes.size() * (p.sibling_iterations + 1));
  EXPECT_GE(serial_cycles, counter("gravity.mg_solves") - solves0);

  exec::ThreadPoolExecutor pool(4);
  {
    // Leave other shapes in the lanes' scratch first.
    mesh::Hierarchy other = make_sibling_level(
        {{{0, 0, 0}, {30, 30, 30}}, {{30, 0, 0}, {32, 4, 6}}}, dims);
    gravity::solve_subgrid_gravity(other, 1, p, 1.0, &pool);
  }
  mesh::Hierarchy lanes = make_sibling_level(boxes, dims);
  const std::uint64_t cycles1 = counter("gravity.mg_vcycles");
  gravity::solve_subgrid_gravity(lanes, 1, p, 1.0, &pool);
  EXPECT_EQ(counter("gravity.mg_vcycles") - cycles1, serial_cycles);
  for (std::size_t n = 0; n < boxes.size(); ++n)
    EXPECT_TRUE(same_bits(serial.grids(1)[n]->potential(),
                          lanes.grids(1)[n]->potential()))
        << "grid " << n << " " << serial.grids(1)[n]->box().str();
}

// ---- FFT root solve ---------------------------------------------------------------

TEST(RootGravity, PlaneWaveEigenfunction) {
  // δρ = cos(2π m x): with the discrete Laplacian Green function the
  // potential is exactly  coef·δρ / λ(m),  λ = (2cos(2πm/n) − 2)/dx².
  const int n = 16;
  mesh::Hierarchy h = make_box(n);
  Grid* g = h.grids(0)[0];
  fill_uniform_gas(*g, 1.0);
  g->allocate_gravity();
  gravity::begin_gravitating_mass(h, 0);
  const auto gm = g->gravitating_mass();
  const int m = 3;
  for (int k = 0; k < n; ++k)
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i)
        gm(i + 1, j + 1, k + 1) = 1.0 + 0.5 * std::cos(2 * M_PI * m * (i + 0.5) / n);
  gravity::GravityParams p;
  const double a = 1.0;
  gravity::solve_root_gravity(h, p, a);
  const double dx = 1.0 / n;
  const double lam = (2.0 * std::cos(2 * M_PI * m / n) - 2.0) / (dx * dx);
  const auto pot = g->potential();
  for (int i = 0; i < n; ++i) {
    // Mode phase matches the *cell index* (DFT of the sampled field).
    const double expected =
        p.grav_const_code * 0.5 * std::cos(2 * M_PI * m * (i + 0.5) / n) / lam;
    // The sampled cosine's phase (i+0.5)/n vs DFT bin at i/n: compare with
    // the sampled form by reading the solver's own convention at j=k=0.
    EXPECT_NEAR(pot(i + 1, 5, 5), expected, 2e-3 * std::abs(1.0 / lam))
        << "i=" << i;
  }
}

TEST(RootGravity, UniformDensityGivesZeroForce) {
  const int n = 8;
  mesh::Hierarchy h = make_box(n);
  Grid* g = h.grids(0)[0];
  fill_uniform_gas(*g, 1.0);
  g->allocate_gravity();
  gravity::begin_gravitating_mass(h, 0);
  gravity::GravityParams p;
  gravity::solve_root_gravity(h, p, 1.0);
  gravity::compute_accelerations(*g, 1.0);
  for (int d = 0; d < 3; ++d) {
    EXPECT_NEAR(g->acceleration(d).min(), 0.0, 1e-12);
    EXPECT_NEAR(g->acceleration(d).max(), 0.0, 1e-12);
  }
}

TEST(RootGravity, CompactMassInverseSquareField) {
  // Deposit a compact mass at the center of a 64³ box; the radial
  // acceleration at r << L/2 must follow g = G_code M /(4π r²) (our
  // convention: ∇²φ = G_code δρ means G_code = 4πG, so g = G_code M/(4π r²)).
  const int n = 64;
  mesh::Hierarchy h = make_box(n);
  Grid* g = h.grids(0)[0];
  fill_uniform_gas(*g, 0.0);
  g->allocate_gravity();
  gravity::begin_gravitating_mass(h, 0);
  const auto gm = g->gravitating_mass();
  const double dx = 1.0 / n;
  const double mass = 1.0;  // total
  gm(n / 2 + 1, n / 2 + 1, n / 2 + 1) = mass / (dx * dx * dx);
  gravity::GravityParams p;
  gravity::solve_root_gravity(h, p, 1.0);
  gravity::compute_accelerations(*g, 1.0);
  // Sample along +x at a few radii.
  for (int off : {6, 8, 12}) {
    const double r = off * dx;
    const double gx = g->acceleration(0)(n / 2 + off, n / 2, n / 2);
    const double expected = -p.grav_const_code * mass / (4.0 * M_PI * r * r);
    EXPECT_NEAR(gx / expected, 1.0, 0.08) << "off=" << off;
  }
  // Momentum balance: ∑ ρ g over the grid vanishes by periodicity/symmetry.
  double net = 0;
  for (int k = 0; k < n; ++k)
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i)
        net += gm(i + 1, j + 1, k + 1) * g->acceleration(0)(i, j, k);
  EXPECT_NEAR(net, 0.0, 1e-8 * mass / (dx * dx));
}

// ---- mass restriction ----------------------------------------------------------

TEST(Gravity, RestrictGravitatingMassAverages) {
  mesh::HierarchyParams hp;
  hp.root_dims = {8, 8, 8};
  hp.max_level = 1;
  mesh::Hierarchy h(hp);
  h.build_root();
  Grid* root = h.grids(0)[0];
  fill_uniform_gas(*root, 1.0);
  root->store_old_fields();
  auto child = std::make_unique<Grid>(
      h.make_spec(1, {{4, 4, 4}, {8, 8, 8}}), hp.fields);
  child->set_parent(root);
  fill_uniform_gas(*child, 5.0);
  Grid* c = h.insert_grid(std::move(child));
  gravity::begin_gravitating_mass(h, 0);
  gravity::begin_gravitating_mass(h, 1);
  gravity::restrict_gravitating_mass(h);
  // Parent cells under the child ([2,4)³) now read 5.0; others 1.0.
  EXPECT_DOUBLE_EQ(root->gravitating_mass()(2 + 1, 2 + 1, 2 + 1), 5.0);
  EXPECT_DOUBLE_EQ(root->gravitating_mass()(0 + 1, 0 + 1, 0 + 1), 1.0);
  (void)c;
}

namespace {

/// The root solve with three cos per Fourier mode, as it was before the
/// per-axis eigenvalue tables: the periodic potential of h's level-0 mass.
util::Buffer3 per_mode_root_solve(const mesh::Hierarchy& h,
                                  const gravity::GravityParams& p, double a) {
  const mesh::Index3 dims = h.level_dims(0);
  const int nx = static_cast<int>(dims[0]), ny = static_cast<int>(dims[1]),
            nz = static_cast<int>(dims[2]);
  util::Buffer3 rho(nx, ny, nz, 0.0), phi(nx, ny, nz);
  for (const Grid* g : h.grids(0)) {
    auto glo = [&](int d) { return g->spec().level_dims[d] > 1 ? 1 : 0; };
    for (int k = 0; k < g->nx(2); ++k)
      for (int j = 0; j < g->nx(1); ++j)
        for (int i = 0; i < g->nx(0); ++i)
          rho.view()(static_cast<int>(g->box().lo[0]) + i,
                     static_cast<int>(g->box().lo[1]) + j,
                     static_cast<int>(g->box().lo[2]) + k) =
              g->gravitating_mass()(i + glo(0), j + glo(1), k + glo(2));
  }
  const double coef = p.grav_const_code / a;
  std::vector<fft::cplx> data(rho.size());
  const util::ArrayView3<fft::cplx> spec(data.data(), nx, ny, nz);
  fft::fft3_real(rho.view(), spec);
  const double dx[3] = {1.0 / nx, 1.0 / ny, 1.0 / nz};
  for (int kz = 0; kz < nz; ++kz)
    for (int ky = 0; ky < ny; ++ky)
      for (int kx = 0; kx < nx; ++kx) {
        if (kx == 0 && ky == 0 && kz == 0) {
          spec(kx, ky, kz) = 0.0;
          continue;
        }
        double lam = 0.0;
        const int f[3] = {kx, ky, kz};
        const int n[3] = {nx, ny, nz};
        for (int d = 0; d < 3; ++d) {
          if (n[d] == 1) continue;
          const double ang = constants::kTwoPi * f[d] / n[d];
          lam += (2.0 * std::cos(ang) - 2.0) / (dx[d] * dx[d]);
        }
        spec(kx, ky, kz) *= coef / lam;
      }
  fft::ifft3_real(spec, phi.view());
  return phi;
}

}  // namespace

TEST(RootGravity, EigenvalueTablesMatchPerModeOracleBitwise) {
  const std::array<std::int64_t, 3> shapes[] = {{32, 32, 32}, {16, 8, 1}};
  exec::ThreadPoolExecutor pool(4);
  for (const auto& dims : shapes) {
    for (exec::LevelExecutor* ex : {static_cast<exec::LevelExecutor*>(nullptr),
                                    static_cast<exec::LevelExecutor*>(&pool)}) {
      mesh::HierarchyParams hp;
      hp.root_dims = dims;
      mesh::Hierarchy h(hp);
      h.build_root();
      Grid* g = h.grids(0)[0];
      fill_uniform_gas(*g, 1.0);
      gravity::begin_gravitating_mass(h, 0);
      util::Rng rng(23);
      for (double& v : g->gravitating_mass()) v = rng.uniform(0.2, 5.0);
      const gravity::GravityParams p;
      gravity::solve_root_gravity(h, p, 0.7, ex);
      const util::Buffer3 want = per_mode_root_solve(h, p, 0.7);
      const int n[3] = {static_cast<int>(dims[0]), static_cast<int>(dims[1]),
                        static_cast<int>(dims[2])};
      int gh[3];
      for (int d = 0; d < 3; ++d) gh[d] = n[d] > 1 ? 1 : 0;
      std::size_t bad = 0;
      const auto pot = g->potential();
      for (int k = -gh[2]; k < n[2] + gh[2]; ++k)
        for (int j = -gh[1]; j < n[1] + gh[1]; ++j)
          for (int i = -gh[0]; i < n[0] + gh[0]; ++i) {
            const double w = want.view()((i + n[0]) % n[0], (j + n[1]) % n[1],
                                         (k + n[2]) % n[2]);
            if (std::bit_cast<std::uint64_t>(pot(i + gh[0], j + gh[1], k + gh[2])) !=
                std::bit_cast<std::uint64_t>(w))
              ++bad;
          }
      EXPECT_EQ(bad, 0u) << dims[0] << "x" << dims[1] << "x" << dims[2]
                         << (ex != nullptr ? " on 4 lanes" : " serially");
    }
  }
}

namespace {

/// A 16³ root with gas and particles and one level-1 grid with its own
/// particles; identical for every call.
std::unique_ptr<mesh::Hierarchy> two_level_particle_box() {
  mesh::HierarchyParams hp;
  hp.root_dims = {16, 16, 16};
  hp.max_level = 1;
  auto h = std::make_unique<mesh::Hierarchy>(hp);
  h->build_root();
  Grid* root = h->grids(0)[0];
  fill_uniform_gas(*root, 1.0);
  root->store_old_fields();
  auto child = std::make_unique<Grid>(
      h->make_spec(1, {{10, 8, 12}, {22, 20, 22}}), hp.fields);
  child->set_parent(root);
  fill_uniform_gas(*child, 1.3);
  Grid* c = h->insert_grid(std::move(child));
  util::Rng rng(41);
  for (int i = 0; i < 3000; ++i) {
    mesh::Particle p;
    p.x = {ext::pos_t(rng.uniform()), ext::pos_t(rng.uniform()),
           ext::pos_t(rng.uniform())};
    p.mass = rng.uniform(0.5, 1.5) / 3000;
    root->particles().push_back(p);
  }
  for (int i = 0; i < 800; ++i) {
    mesh::Particle p;
    p.x = {ext::pos_t(rng.uniform(10.5, 21.5) / 32),
           ext::pos_t(rng.uniform(8.5, 19.5) / 32),
           ext::pos_t(rng.uniform(12.5, 21.5) / 32)};
    p.mass = rng.uniform(0.5, 1.5) / 3000;
    c->particles().push_back(p);
  }
  return h;
}

/// One level solve as Simulation::solve_gravity_level runs it, assembling
/// gravitating mass on the levels from `from` down to the finest.
void level_solve(mesh::Hierarchy& h, int level, int from) {
  for (int l = h.deepest_level(); l >= from; --l) {
    gravity::begin_gravitating_mass(h, l);
    for (Grid* g : h.grids(l)) nbody::deposit_particles_cic(*g);
  }
  gravity::restrict_gravitating_mass(h, nullptr, from);
  const gravity::GravityParams p;
  if (level == 0)
    gravity::solve_root_gravity(h, p, 1.0);
  else
    gravity::solve_subgrid_gravity(h, level, p, 1.0);
  for (Grid* g : h.grids(level)) gravity::compute_accelerations(*g, 1.0);
}

void expect_same_gravity(const Grid& a, const Grid& b, const char* what) {
  EXPECT_TRUE(same_bits(a.potential(), b.potential())) << what << " potential";
  for (int d = 0; d < 3; ++d)
    EXPECT_TRUE(same_bits(a.acceleration(d), b.acceleration(d)))
        << what << " acceleration " << d;
}

}  // namespace

TEST(Gravity, LevelSolveSkipsCoarserMassBitwise) {
  // The W-cycle: a root solve, then the root's gas and particles move
  // (its mass is now stale), then the level-1 solve, then the next root
  // solve.  Assembling only levels >= 1 for the level-1 solve must give
  // what assembling every level gives.
  auto trimmed = two_level_particle_box();
  auto oracle = two_level_particle_box();
  for (mesh::Hierarchy* h : {trimmed.get(), oracle.get()}) {
    level_solve(*h, 0, 0);
    Grid* root = h->grids(0)[0];
    for (double& v : root->field(Field::kDensity)) v *= 1.25;
    nbody::drift_particles(*root, 0.01, 1.0);
    for (mesh::Particle& p : root->particles()) p.v = {0.3, -0.2, 0.1};
    nbody::drift_particles(*root, 0.05, 1.0);
  }
  level_solve(*trimmed, 1, 1);
  level_solve(*oracle, 1, 0);
  expect_same_gravity(*trimmed->grids(1)[0], *oracle->grids(1)[0], "level 1");
  for (mesh::Hierarchy* h : {trimmed.get(), oracle.get()}) level_solve(*h, 0, 0);
  expect_same_gravity(*trimmed->grids(0)[0], *oracle->grids(0)[0], "next root");
  // That solve rebuilt the root mass the level-1 solve left stale.
  EXPECT_TRUE(same_bits(trimmed->grids(0)[0]->gravitating_mass(),
                        oracle->grids(0)[0]->gravitating_mass()));
}

// ---- subgrid solve --------------------------------------------------------------

TEST(SubgridGravity, UniformDensityKeepsPotentialSmooth) {
  // δρ = 0 everywhere: root potential is 0; child potential must also come
  // out (near) zero with zero accelerations.
  mesh::HierarchyParams hp;
  hp.root_dims = {16, 16, 16};
  hp.max_level = 1;
  mesh::Hierarchy h(hp);
  h.build_root();
  Grid* root = h.grids(0)[0];
  fill_uniform_gas(*root, 1.0);
  root->store_old_fields();
  auto child = std::make_unique<Grid>(
      h.make_spec(1, {{8, 8, 8}, {24, 24, 24}}), hp.fields);
  child->set_parent(root);
  fill_uniform_gas(*child, 1.0);
  Grid* c = h.insert_grid(std::move(child));
  gravity::begin_gravitating_mass(h, 0);
  gravity::begin_gravitating_mass(h, 1);
  gravity::restrict_gravitating_mass(h);
  gravity::GravityParams p;
  gravity::solve_root_gravity(h, p, 1.0);
  gravity::solve_subgrid_gravity(h, 1, p, 1.0);
  gravity::compute_accelerations(*c, 1.0);
  for (int d = 0; d < 3; ++d) {
    EXPECT_NEAR(c->acceleration(d).min(), 0.0, 1e-9);
    EXPECT_NEAR(c->acceleration(d).max(), 0.0, 1e-9);
  }
}

TEST(SubgridGravity, RefinedPointMassMatchesAnalyticCloser) {
  // Root 32³ with a compact mass; a refined 2× child over the center.  The
  // child's acceleration at small radii should approach the 1/r² law better
  // than the root's.
  const int n = 32;
  mesh::HierarchyParams hp;
  hp.root_dims = {n, n, n};
  hp.max_level = 1;
  mesh::Hierarchy h(hp);
  h.build_root();
  Grid* root = h.grids(0)[0];
  fill_uniform_gas(*root, 0.0);
  root->store_old_fields();
  // Child covering the central 8³ root cells at 2× resolution.
  auto child = std::make_unique<Grid>(
      h.make_spec(1, {{2 * (n / 2 - 4), 2 * (n / 2 - 4), 2 * (n / 2 - 4)},
                      {2 * (n / 2 + 4), 2 * (n / 2 + 4), 2 * (n / 2 + 4)}}),
      hp.fields);
  child->set_parent(root);
  fill_uniform_gas(*child, 0.0);
  Grid* c = h.insert_grid(std::move(child));

  gravity::begin_gravitating_mass(h, 0);
  gravity::begin_gravitating_mass(h, 1);
  // Point mass at the domain center, deposited on the child.
  const double dxc = c->cell_width_d(0);
  const double mass = 1.0;
  const auto cgm = c->gravitating_mass();
  cgm(c->nx(0) / 2 + 1, c->nx(1) / 2 + 1, c->nx(2) / 2 + 1) =
      mass / (dxc * dxc * dxc);
  gravity::restrict_gravitating_mass(h);
  gravity::GravityParams p;
  gravity::solve_root_gravity(h, p, 1.0);
  gravity::solve_subgrid_gravity(h, 1, p, 1.0);
  gravity::compute_accelerations(*c, 1.0);

  for (int off : {4, 6}) {
    const double r = off * dxc;
    const double gx =
        c->acceleration(0)(c->nx(0) / 2 + off, c->nx(1) / 2, c->nx(2) / 2);
    const double expected = -p.grav_const_code * mass / (4.0 * M_PI * r * r);
    EXPECT_NEAR(gx / expected, 1.0, 0.15) << "off=" << off;
  }
}

TEST(SubgridGravity, SiblingExchangeImprovesContinuity) {
  // Two adjacent children across a shared face with a mass straddling it:
  // after the sibling iteration the potential must be continuous across the
  // face to within the multigrid tolerance scale.
  const int n = 16;
  mesh::HierarchyParams hp;
  hp.root_dims = {n, n, n};
  hp.max_level = 1;
  mesh::Hierarchy h(hp);
  h.build_root();
  Grid* root = h.grids(0)[0];
  fill_uniform_gas(*root, 0.0);
  root->store_old_fields();
  auto c1 = std::make_unique<Grid>(
      h.make_spec(1, {{8, 8, 8}, {16, 24, 24}}), hp.fields);
  auto c2 = std::make_unique<Grid>(
      h.make_spec(1, {{16, 8, 8}, {24, 24, 24}}), hp.fields);
  c1->set_parent(root);
  c2->set_parent(root);
  fill_uniform_gas(*c1, 0.0);
  fill_uniform_gas(*c2, 0.0);
  Grid* g1 = h.insert_grid(std::move(c1));
  Grid* g2 = h.insert_grid(std::move(c2));
  gravity::begin_gravitating_mass(h, 0);
  gravity::begin_gravitating_mass(h, 1);
  // Mass just left of the shared face (global fine x=16).
  const auto gm1 = g1->gravitating_mass();
  const double dxc = g1->cell_width_d(0);
  gm1(g1->nx(0) - 1 + 1, 8 + 1, 8 + 1) = 1.0 / (dxc * dxc * dxc);
  gravity::restrict_gravitating_mass(h);
  gravity::GravityParams p;
  gravity::solve_root_gravity(h, p, 1.0);

  // Reference: a second hierarchy whose single child covers the union of
  // the two siblings, with the same mass.
  mesh::Hierarchy href(hp);
  href.build_root();
  Grid* rroot = href.grids(0)[0];
  fill_uniform_gas(*rroot, 0.0);
  rroot->store_old_fields();
  auto cu = std::make_unique<Grid>(
      href.make_spec(1, {{8, 8, 8}, {24, 24, 24}}), hp.fields);
  cu->set_parent(rroot);
  fill_uniform_gas(*cu, 0.0);
  Grid* gref = href.insert_grid(std::move(cu));
  gravity::begin_gravitating_mass(href, 0);
  gravity::begin_gravitating_mass(href, 1);
  gref->gravitating_mass()(7 + 1, 8 + 1, 8 + 1) = 1.0 / (dxc * dxc * dxc);
  gravity::restrict_gravitating_mass(href);
  gravity::solve_root_gravity(href, p, 1.0);
  gravity::solve_subgrid_gravity(href, 1, p, 1.0);

  // Error of the two-grid solution against the reference at cells flanking
  // the shared face (global fine x = 15 on g1, x = 16 on g2), away from the
  // mass along y.
  auto err_vs_ref = [&](int sibling_iters) {
    gravity::GravityParams q = p;
    q.sibling_iterations = sibling_iters;
    gravity::solve_subgrid_gravity(h, 1, q, 1.0);
    double e = 0;
    for (int jj : {4, 8, 12}) {
      e += std::abs(g1->potential()(g1->nx(0), jj + 1, 8 + 1) -
                    gref->potential()(7 + 1, jj + 1, 8 + 1));
      e += std::abs(g2->potential()(1, jj + 1, 8 + 1) -
                    gref->potential()(8 + 1, jj + 1, 8 + 1));
    }
    return e;
  };
  const double no_exchange = err_vs_ref(0);
  const double with_exchange = err_vs_ref(4);
  EXPECT_LT(with_exchange, no_exchange);
}

TEST(SubgridGravity, ExchangeMatchesRefillEveryPassOracleBitwise) {
  // The exchange passes copy sibling cells only; the parent shell is set
  // once per level solve.  Siblings here touch across the periodic x edge
  // ([0,8) and [28,32)), share faces inside the domain, and one spans y,
  // so it is its own periodic image.
  const std::vector<mesh::IndexBox> boxes = {
      {{0, 8, 8}, {8, 16, 16}},     // touches the next one and x = 0
      {{8, 8, 8}, {16, 16, 16}},
      {{28, 8, 8}, {32, 16, 14}},   // x = 32 is x = 0: touches the first
      {{8, 0, 20}, {16, 32, 26}},   // spans y
      {{16, 8, 8}, {24, 12, 20}}};
  const std::array<std::int64_t, 3> dims = {16, 16, 16};
  gravity::GravityParams p;
  p.sibling_iterations = 2;
  mesh::Hierarchy ref = make_sibling_level(boxes, dims);
  subgrid_oracle::solve(ref, 1, p, 1.0);

  exec::ThreadPoolExecutor pool(4);
  for (exec::LevelExecutor* ex :
       {static_cast<exec::LevelExecutor*>(nullptr),
        static_cast<exec::LevelExecutor*>(&pool)}) {
    mesh::Hierarchy h = make_sibling_level(boxes, dims);
    gravity::solve_subgrid_gravity(h, 1, p, 1.0, ex);
    for (std::size_t n = 0; n < boxes.size(); ++n)
      EXPECT_TRUE(same_bits(h.grids(1)[n]->potential(),
                            ref.grids(1)[n]->potential()))
          << (ex ? "4 lanes" : "serial") << " grid "
          << h.grids(1)[n]->box().str();
  }
}

TEST(SubgridGravity, ParentTablesMatchPointOracleBitwise) {
  // With no V-cycle and no exchange, a subgrid's potential is the parent
  // interpolation in every cell, ghosts included.  Level-2 children of a
  // level-1 parent with random potential (ghosts too): at the parent's low
  // and high edges, and two that reach past the parent's ghost layer, so
  // the window clamps act on both sides; in 3-D and in 2-D.
  for (const bool flat : {false, true}) {
    mesh::HierarchyParams hp;
    hp.root_dims = {8, 8, flat ? 1 : 8};
    hp.max_level = 2;
    mesh::Hierarchy h(hp);
    h.build_root();
    Grid* root = h.grids(0)[0];
    fill_uniform_gas(*root, 1.0);
    const std::int64_t z1 = flat ? 1 : 12, z2 = flat ? 1 : 24;
    auto mid = std::make_unique<Grid>(
        h.make_spec(1, {{4, 4, flat ? 0 : 4}, {12, 12, z1}}), hp.fields);
    mid->set_parent(root);
    fill_uniform_gas(*mid, 1.0);
    Grid* parent = h.insert_grid(std::move(mid));
    const std::int64_t zl = flat ? 0 : 8;
    const std::vector<mesh::IndexBox> boxes = {
        {{8, 8, zl}, {14, 20, flat ? 1 : 16}},   // parent's low x, y, z edge
        {{18, 12, flat ? 0 : 14}, {24, 24, z2}},  // parent's high edges
        {{4, 14, flat ? 0 : 10}, {8, 18, flat ? 1 : 14}},   // past low x
        {{14, 24, flat ? 0 : 20}, {20, 28, flat ? 1 : 28}}};  // past high y
    for (const mesh::IndexBox& b : boxes) {
      auto child = std::make_unique<Grid>(h.make_spec(2, b), hp.fields);
      child->set_parent(parent);
      fill_uniform_gas(*child, 1.0);
      h.insert_grid(std::move(child));
    }
    parent->allocate_gravity();
    util::Rng rng(41);
    for (double& v : parent->potential()) v = rng.uniform(-1.0, 1.0);
    gravity::begin_gravitating_mass(h, 2);
    gravity::GravityParams p;
    p.mg_max_vcycles = 0;
    p.sibling_iterations = 0;
    gravity::solve_subgrid_gravity(h, 2, p, 1.0);
    for (Grid* g : h.grids(2)) {
      const mesh::ConstFieldView pot = g->potential();
      const int gh[3] = {subgrid_oracle::pot_ghost(*g, 0),
                         subgrid_oracle::pot_ghost(*g, 1),
                         subgrid_oracle::pot_ghost(*g, 2)};
      int wrong = 0;
      for (int k = 0; k < pot.nz(); ++k)
        for (int j = 0; j < pot.ny(); ++j)
          for (int i = 0; i < pot.nx(); ++i) {
            const double want = subgrid_oracle::parent_potential_at(
                *g, *parent, g->box().lo[0] + i - gh[0],
                g->box().lo[1] + j - gh[1], g->box().lo[2] + k - gh[2]);
            wrong += std::bit_cast<std::uint64_t>(pot(i, j, k)) !=
                     std::bit_cast<std::uint64_t>(want);
          }
      EXPECT_EQ(wrong, 0) << (flat ? "2-D " : "3-D ") << g->box().str();
    }
  }
}

TEST(SubgridGravity, PeriodicEdgeReadsTheNearSideOfTheParent) {
  // A 16³ periodic root, a level-1 grid over x in [0, 0.5) spanning y and
  // z, and a level-2 grid at x = 0 inside it; δρ = 0.5 cos 2πx, so
  // φ ≈ −0.0127 cos 2πx.  The level-2 low-x ghost lies across the periodic
  // edge from its parent's far side: it must read the parent's own low-x
  // ghost (the periodic image), not be clamped onto the parent's high-x
  // ghost at x ≈ 0.52, where φ has the opposite sign.
  mesh::HierarchyParams hp;
  hp.root_dims = {16, 16, 16};
  hp.max_level = 2;
  mesh::Hierarchy h(hp);
  h.build_root();
  const auto set_gas = [](Grid& g) {
    fill_uniform_gas(g, 1.0);
    const mesh::FieldView rho = g.field(Field::kDensity);
    const double dx = 1.0 / static_cast<double>(g.spec().level_dims[0]);
    for (int k = 0; k < g.nx(2); ++k)
      for (int j = 0; j < g.nx(1); ++j)
        for (int i = 0; i < g.nx(0); ++i) {
          const double x = (static_cast<double>(g.box().lo[0] + i) + 0.5) * dx;
          rho(g.sx(i), g.sy(j), g.sz(k)) = 1.0 + 0.5 * std::cos(2 * M_PI * x);
        }
  };
  Grid* root = h.grids(0)[0];
  set_gas(*root);
  auto l1 = std::make_unique<Grid>(h.make_spec(1, {{0, 0, 0}, {16, 32, 32}}),
                                   hp.fields);
  l1->set_parent(root);
  set_gas(*l1);
  Grid* mid = h.insert_grid(std::move(l1));
  auto l2 = std::make_unique<Grid>(
      h.make_spec(2, {{0, 16, 16}, {8, 48, 48}}), hp.fields);
  l2->set_parent(mid);
  set_gas(*l2);
  Grid* fine = h.insert_grid(std::move(l2));
  for (int l = 0; l <= 2; ++l) gravity::begin_gravitating_mass(h, l);
  gravity::restrict_gravitating_mass(h);
  const gravity::GravityParams p;
  gravity::solve_root_gravity(h, p, 1.0);
  gravity::solve_subgrid_gravity(h, 1, p, 1.0);
  gravity::solve_subgrid_gravity(h, 2, p, 1.0);
  const mesh::ConstFieldView pot = fine->potential();
  for (const int j : {1, 16, 32}) {
    const double ghost = pot(0, j, 16), first = pot(1, j, 16);
    EXPECT_LT(first, -0.012) << "j=" << j;
    EXPECT_NEAR(ghost, first, 1e-4) << "j=" << j;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ghost),
              std::bit_cast<std::uint64_t>(subgrid_oracle::parent_potential_at(
                  *fine, *mid, -1, fine->box().lo[1] + j - 1,
                  fine->box().lo[2] + 15)))
        << "j=" << j;
  }
}

TEST(SubgridGravity, NonFiniteResidualThrowsNamingLevelAndBox) {
  const std::vector<mesh::IndexBox> boxes = {{{8, 8, 8}, {16, 16, 16}},
                                             {{16, 8, 8}, {24, 12, 20}}};
  const std::array<std::int64_t, 3> dims = {16, 16, 16};
  exec::ThreadPoolExecutor pool(4);
  for (exec::LevelExecutor* ex :
       {static_cast<exec::LevelExecutor*>(nullptr),
        static_cast<exec::LevelExecutor*>(&pool)}) {
    mesh::Hierarchy h = make_sibling_level(boxes, dims);
    Grid* bad = h.grids(1)[1];
    bad->gravitating_mass()(3, 2, 5) = std::nan("");
    std::string what;
    try {
      gravity::solve_subgrid_gravity(h, 1, gravity::GravityParams{}, 1.0, ex);
    } catch (const Error& e) {
      what = e.what();
    }
    EXPECT_NE(what.find("level 1"), std::string::npos) << what;
    EXPECT_NE(what.find(bad->box().str()), std::string::npos) << what;
    EXPECT_NE(what.find("pass 0"), std::string::npos) << what;
  }
}

TEST(SubgridGravity, UnconvergedSolvesAreCounted) {
  const std::vector<mesh::IndexBox> boxes = {{{8, 8, 8}, {16, 16, 16}},
                                             {{16, 8, 8}, {24, 12, 20}},
                                             {{8, 16, 8}, {20, 18, 16}}};
  const std::array<std::int64_t, 3> dims = {16, 16, 16};
  gravity::GravityParams p;
  const std::uint64_t solves = boxes.size() * (p.sibling_iterations + 1);
  {
    mesh::Hierarchy h = make_sibling_level(boxes, dims);
    const std::uint64_t before = counter("gravity.mg_unconverged");
    gravity::solve_subgrid_gravity(h, 1, p, 1.0);
    EXPECT_EQ(counter("gravity.mg_unconverged"), before);
  }
  p.mg_max_vcycles = 1;
  mesh::Hierarchy h = make_sibling_level(boxes, dims);
  const std::uint64_t before = counter("gravity.mg_unconverged");
  const std::uint64_t solves0 = counter("gravity.mg_solves");
  gravity::solve_subgrid_gravity(h, 1, p, 1.0);
  EXPECT_EQ(counter("gravity.mg_solves") - solves0, solves);
  EXPECT_EQ(counter("gravity.mg_unconverged") - before, solves);
}
