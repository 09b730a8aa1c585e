// Geometric multigrid for the subgrid Poisson problem (§3.3): cell-centered
// V-cycles with red-black Gauss–Seidel smoothing, full-weighting restriction
// and trilinear prolongation.  The finest level carries fixed Dirichlet
// values in its one-cell ghost layer (set from the parent grid and from
// siblings by the caller; a solve never changes them); coarse levels solve
// the error equation with homogeneous Dirichlet ghosts.
//
// Coarsening halves every active extent and stops at the first level with an
// odd active extent or one of 2 or less (or at 12 levels).  Subgrid extents
// are even along refined axes (child boxes are parent cells × the integer
// refinement factor), but a subgrid one parent cell thick has an extent of 2
// and gets a 1-level stack, whose every cycle is the 20 coarsest-level
// sweeps.
//
// Kernels (DESIGN.md §13): a colour pass and the residual are flat loops over
// each k-plane's span, from the plane's first active cell to its last (the x
// ghosts between rows included), fetched through ArrayView3::flat, so they
// run whole vectors however short the rows are.  The smoother computes every
// cell of a span and keeps the update only where the level's per-parity mask
// marks an active cell of the pass's colour; restriction and prolongation
// are row kernels.  All are templated on the active-axis mask.  Every cell
// keeps the operation order of the scalar loops tests/gravity_test.cpp keeps
// as an oracle, so solves are byte-identical to them.  The finest level
// works in place on the caller's views; coarser levels, the residuals and
// the masks live in per-lane scratch, shaped once per solve.

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "gravity/gravity.hpp"
#include "mesh/field_storage.hpp"
#include "perf/metrics.hpp"
#include "util/annotations.hpp"
#include "util/array3.hpp"
#include "util/error.hpp"
#include "util/flops.hpp"

namespace enzo::gravity {

namespace {

using mesh::ConstFieldView;
using mesh::FieldView;

constexpr int kMaxLevels = 12;

using MaskView = util::ArrayView3<const std::int32_t>;

/// One level of the stack, as views with one ghost layer on active axes.
struct MgLevel {
  FieldView phi;
  ConstFieldView rhs;
  FieldView res;
  /// Per-parity plane masks (nx × ny × 1 of phi's shape): mask[p] is 1 on
  /// the active cells (i, j) with (i + j) & 1 == p (active indices), else 0.
  /// Plane k's cells of colour c are mask[(c + k) & 1].
  MaskView mask[2];
  int n[3] = {1, 1, 1};  // active extents (1 on an inactive axis)
  int g[3] = {0, 0, 0};  // ghost width: 1 on an active axis, else 0
  int span = 1;          // cells from a plane's first active cell to its last
  double dx = 0.0;
};

/// Per-lane storage of the coarse levels, of every level's residual and
/// masks, and of the smoother's line of updates (one span of level 0, the
/// longest).
struct MgScratch {
  MgScratch() {
    for (int l = 0; l < kMaxLevels; ++l) {
      phi[l].set_arena(&util::Arena::scratch());
      rhs[l].set_arena(&util::Arena::scratch());
      res[l].set_arena(&util::Arena::scratch());
    }
    update.set_arena(&util::Arena::scratch());
  }
  std::array<util::Buffer3, kMaxLevels> phi, rhs, res;  // phi/rhs: l >= 1
  std::array<std::vector<std::int32_t>, kMaxLevels> masks;  // both parities
  util::Buffer3 update;
  std::array<MgLevel, kMaxLevels> levels;
};

constexpr bool has_axis(int axes, int d) { return ((axes >> d) & 1) != 0; }

/// Bit d set when axis d is active.
int axes_of(const MgLevel& lv) {
  return lv.g[0] | (lv.g[1] << 1) | (lv.g[2] << 2);
}

/// Trilinear weight of coarse neighbour (bx, by, bz): 3/4 toward the nearer
/// coarse cell, 1/4 toward the other one (all products exact).
template <int kAxes>
constexpr double prolong_weight(int bx, int by, int bz) {
  const double w0[3] = {has_axis(kAxes, 0) ? 0.75 : 1.0,
                        has_axis(kAxes, 1) ? 0.75 : 1.0,
                        has_axis(kAxes, 2) ? 0.75 : 1.0};
  return (bx ? 1.0 - w0[0] : w0[0]) * (by ? 1.0 - w0[1] : w0[1]) *
         (bz ? 1.0 - w0[2] : w0[2]);
}

// ---- span kernels -------------------------------------------------------
// Span pointers start at one plane's first active cell and run `n` cells in
// storage order; xm/xp/ym/yp/zm/zp are the same span shifted by one cell
// along x, y and z (unused and null on inactive axes).  A colour pass is two
// loops per span: relax_span computes every cell's update into a separate
// line, select_span keeps the updates of the pass's colour.  (Selecting in
// place in one loop stalls store forwarding: each vector store feeds a
// misaligned load of the next iteration's x neighbours.)

/// Every cell's Gauss–Seidel update of one span, into u.
template <int kAxes>
ENZO_HOT void relax_span(double* __restrict u, const double* __restrict xm,
                         const double* __restrict xp,
                         const double* __restrict ym,
                         const double* __restrict yp,
                         const double* __restrict zm,
                         const double* __restrict zp,
                         const double* __restrict f, int n, double dx2) {
  constexpr double kTerms = 2.0 * (has_axis(kAxes, 0) + has_axis(kAxes, 1) +
                                   has_axis(kAxes, 2));
  for (int i = 0; i < n; ++i) {
    double sum = 0.0;
    if constexpr (has_axis(kAxes, 0)) sum += xp[i] + xm[i];
    if constexpr (has_axis(kAxes, 1)) sum += yp[i] + ym[i];
    if constexpr (has_axis(kAxes, 2)) sum += zp[i] + zm[i];
    u[i] = (sum - dx2 * f[i]) / kTerms;
  }
}

/// Store u into c where m is set; every other cell gets its old value back.
ENZO_HOT void select_span(double* __restrict c, const double* __restrict u,
                          const std::int32_t* __restrict m, int n) {
  for (int i = 0; i < n; ++i) {
    const double old = c[i];
    c[i] = m[i] != 0 ? u[i] : old;
  }
}

/// The residual over a span (cells between rows get values nothing reads).
template <int kAxes>
ENZO_HOT void residual_span(double* __restrict r, const double* __restrict c,
                            const double* __restrict xm,
                            const double* __restrict xp,
                            const double* __restrict ym,
                            const double* __restrict yp,
                            const double* __restrict zm,
                            const double* __restrict zp,
                            const double* __restrict f, int n,
                            double inv_dx2) {
  for (int i = 0; i < n; ++i) {
    double lap = 0.0;
    const double ci = c[i];
    if constexpr (has_axis(kAxes, 0)) lap += xp[i] - 2 * ci + xm[i];
    if constexpr (has_axis(kAxes, 1)) lap += yp[i] - 2 * ci + ym[i];
    if constexpr (has_axis(kAxes, 2)) lap += zp[i] - 2 * ci + zm[i];
    r[i] = f[i] - lap * inv_dx2;
  }
}

// ---- row kernels --------------------------------------------------------
// Row pointers start at the row's first cell of interest.

/// Full weighting: coarse cell i averages the fine cells (2i + di, dj, dk)
/// of the fine rows r[dk][dj], in dk, dj, di order.
template <int kAxes>
ENZO_HOT void restrict_row(double* __restrict out,
                           const double* __restrict r00,
                           const double* __restrict r01,
                           const double* __restrict r10,
                           const double* __restrict r11, int n) {
  constexpr bool kX = has_axis(kAxes, 0), kY = has_axis(kAxes, 1),
                 kZ = has_axis(kAxes, 2);
  constexpr int kCount = (kX ? 2 : 1) * (kY ? 2 : 1) * (kZ ? 2 : 1);
  constexpr int kStride = kX ? 2 : 1;
  for (int i = 0; i < n; ++i) {
    const int f = kStride * i;
    double sum = 0.0;
    sum += r00[f];
    if constexpr (kX) sum += r00[f + 1];
    if constexpr (kY) {
      sum += r01[f];
      if constexpr (kX) sum += r01[f + 1];
    }
    if constexpr (kZ) {
      sum += r10[f];
      if constexpr (kX) sum += r10[f + 1];
      if constexpr (kY) {
        sum += r11[f];
        if constexpr (kX) sum += r11[f + 1];
      }
    }
    out[i] = sum / kCount;
  }
}

/// The correction of one fine cell from coarse cells a (nearer) and b
/// (farther) along x of the coarse rows p[bz][by], in bz, by, bx order.
template <int kAxes>
inline double correction(const double* __restrict p00,
                         const double* __restrict p01,
                         const double* __restrict p10,
                         const double* __restrict p11, int a, int b) {
  constexpr bool kX = has_axis(kAxes, 0), kY = has_axis(kAxes, 1),
                 kZ = has_axis(kAxes, 2);
  double corr = 0.0;
  corr += prolong_weight<kAxes>(0, 0, 0) * p00[a];
  if constexpr (kX) corr += prolong_weight<kAxes>(1, 0, 0) * p00[b];
  if constexpr (kY) {
    corr += prolong_weight<kAxes>(0, 1, 0) * p01[a];
    if constexpr (kX) corr += prolong_weight<kAxes>(1, 1, 0) * p01[b];
  }
  if constexpr (kZ) {
    corr += prolong_weight<kAxes>(0, 0, 1) * p10[a];
    if constexpr (kX) corr += prolong_weight<kAxes>(1, 0, 1) * p10[b];
    if constexpr (kY) {
      corr += prolong_weight<kAxes>(0, 1, 1) * p11[a];
      if constexpr (kX) corr += prolong_weight<kAxes>(1, 1, 1) * p11[b];
    }
  }
  return corr;
}

/// Add the coarse correction to a fine row of nc coarse cells' children:
/// fine cell 2m reads coarse m and m − 1, fine cell 2m + 1 coarse m and
/// m + 1 (ghost indices fall into the zero Dirichlet layer).
template <int kAxes>
ENZO_HOT void prolong_row(double* __restrict fine, const double* __restrict p00,
                          const double* __restrict p01,
                          const double* __restrict p10,
                          const double* __restrict p11, int nc) {
  if constexpr (has_axis(kAxes, 0)) {
    for (int m = 0; m < nc; ++m) {
      fine[2 * m] += correction<kAxes>(p00, p01, p10, p11, m, m - 1);
      fine[2 * m + 1] += correction<kAxes>(p00, p01, p10, p11, m, m + 1);
    }
  } else {
    for (int i = 0; i < nc; ++i)
      fine[i] += correction<kAxes>(p00, p01, p10, p11, i, i);
  }
}

// ---- level operations ---------------------------------------------------

/// The active cells of row (j, k) of `a` (lv's shape).
template <class View>
auto* active_row(const View& a, const MgLevel& lv, int j, int k) {
  return a.row(lv.g[0], lv.n[0], j + lv.g[1], k + lv.g[2]);
}

/// Plane k's span of `a` (lv's shape) shifted by (di, dj, dk).
template <class View>
auto* plane(const View& a, const MgLevel& lv, int k, int di = 0, int dj = 0,
            int dk = 0) {
  return a.flat(lv.g[0] + di, lv.g[1] + dj, lv.g[2] + k + dk, lv.span);
}

/// Red-black sweeps; `u` holds one span.  A colour pass never reads a cell
/// of its own colour, so the discarded updates (other colour, x ghosts)
/// never reach a kept one.
template <int kAxes>
ENZO_HOT void smooth(const MgLevel& lv, int sweeps, double* __restrict u) {
  if constexpr (kAxes == 0) return;  // nothing to relax against
  constexpr bool kX = has_axis(kAxes, 0), kY = has_axis(kAxes, 1),
                 kZ = has_axis(kAxes, 2);
  const double dx2 = lv.dx * lv.dx;
  const FieldView& phi = lv.phi;
  for (int s = 0; s < sweeps; ++s)
    for (int color = 0; color < 2; ++color)
      for (int k = 0; k < lv.n[2]; ++k) {
        relax_span<kAxes>(u, kX ? plane(phi, lv, k, -1) : nullptr,
                          kX ? plane(phi, lv, k, 1) : nullptr,
                          kY ? plane(phi, lv, k, 0, -1) : nullptr,
                          kY ? plane(phi, lv, k, 0, 1) : nullptr,
                          kZ ? plane(phi, lv, k, 0, 0, -1) : nullptr,
                          kZ ? plane(phi, lv, k, 0, 0, 1) : nullptr,
                          plane(lv.rhs, lv, k), lv.span, dx2);
        select_span(
            plane(phi, lv, k), u,
            lv.mask[(color + k) & 1].flat(lv.g[0], lv.g[1], 0, lv.span),
            lv.span);
      }
}

template <int kAxes>
ENZO_HOT void residual(const MgLevel& lv) {
  constexpr bool kX = has_axis(kAxes, 0), kY = has_axis(kAxes, 1),
                 kZ = has_axis(kAxes, 2);
  const double inv_dx2 = 1.0 / (lv.dx * lv.dx);
  const FieldView& phi = lv.phi;
  for (int k = 0; k < lv.n[2]; ++k)
    residual_span<kAxes>(plane(lv.res, lv, k), plane(phi, lv, k),
                         kX ? plane(phi, lv, k, -1) : nullptr,
                         kX ? plane(phi, lv, k, 1) : nullptr,
                         kY ? plane(phi, lv, k, 0, -1) : nullptr,
                         kY ? plane(phi, lv, k, 0, 1) : nullptr,
                         kZ ? plane(phi, lv, k, 0, 0, -1) : nullptr,
                         kZ ? plane(phi, lv, k, 0, 0, 1) : nullptr,
                         plane(lv.rhs, lv, k), lv.span, inv_dx2);
}

/// Restrict lv's residual into the coarse right-hand side `crhs` (cv's
/// shape).
template <int kAxes>
ENZO_HOT void restrict_residual(const MgLevel& lv, const MgLevel& cv,
                               FieldView crhs) {
  constexpr bool kY = has_axis(kAxes, 1), kZ = has_axis(kAxes, 2);
  for (int k = 0; k < cv.n[2]; ++k)
    for (int j = 0; j < cv.n[1]; ++j) {
      const int fj = kY ? 2 * j : j, fk = kZ ? 2 * k : k;
      restrict_row<kAxes>(
          active_row(crhs, cv, j, k), active_row(lv.res, lv, fj, fk),
          kY ? active_row(lv.res, lv, fj + 1, fk) : nullptr,
          kZ ? active_row(lv.res, lv, fj, fk + 1) : nullptr,
          kY && kZ ? active_row(lv.res, lv, fj + 1, fk + 1) : nullptr,
          cv.n[0]);
    }
}

/// Prolong cv's error correction onto lv: trilinear for cell-centered r=2
/// (the homogeneous Dirichlet ghosts supply the boundary values).
template <int kAxes>
ENZO_HOT void prolong(const MgLevel& lv, const MgLevel& cv) {
  constexpr bool kY = has_axis(kAxes, 1), kZ = has_axis(kAxes, 2);
  const int cgx = cv.g[0];
  // Coarse row (cj, ck) from its first active cell, with both x ghosts.
  const auto coarse = [&](int cj, int ck) -> const double* {
    return cv.phi.row(0, cv.n[0] + 2 * cgx, cj + cv.g[1], ck + cv.g[2]) + cgx;
  };
  // Nearer and farther coarse index of fine index f along an active axis.
  const auto nearer = [](int f) { return f / 2; };
  const auto farther = [](int f) {
    return f % 2 == 0 ? f / 2 - 1 : f / 2 + 1;
  };
  for (int k = 0; k < lv.n[2]; ++k)
    for (int j = 0; j < lv.n[1]; ++j) {
      const int j0 = kY ? nearer(j) : j, j1 = kY ? farther(j) : j;
      const int k0 = kZ ? nearer(k) : k, k1 = kZ ? farther(k) : k;
      prolong_row<kAxes>(active_row(lv.phi, lv, j, k), coarse(j0, k0),
                         kY ? coarse(j1, k0) : nullptr,
                         kZ ? coarse(j0, k1) : nullptr,
                         kY && kZ ? coarse(j1, k1) : nullptr, cv.n[0]);
    }
}

/// ‖a‖₂ over lv's active cells: a serial sum in k, j, i order.
double norm2(const MgLevel& lv, ConstFieldView a) {
  double s = 0;
  for (int k = 0; k < lv.n[2]; ++k)
    for (int j = 0; j < lv.n[1]; ++j) {
      const double* v = active_row(a, lv, j, k);
      for (int i = 0; i < lv.n[0]; ++i) s += v[i] * v[i];
    }
  return std::sqrt(s);
}

/// Level l's part of a V-cycle; adds the cells its sweeps update to
/// `swept`.
template <int kAxes>
void vcycle(MgScratch& s, int l, int depth, const GravityParams& p,
            std::uint64_t& swept) {
  const MgLevel& lv = s.levels[l];
  const std::uint64_t cells =
      static_cast<std::uint64_t>(lv.n[0]) * lv.n[1] * lv.n[2];
  if (l + 1 == depth) {
    // Coarsest: smooth hard.
    smooth<kAxes>(lv, 20, s.update.data());
    swept += cells * 2 * 20;
    return;
  }
  smooth<kAxes>(lv, p.mg_pre_smooth, s.update.data());
  const MgLevel& cv = s.levels[l + 1];
  residual<kAxes>(lv);
  cv.phi.fill(0.0);
  restrict_residual<kAxes>(lv, cv, s.rhs[l + 1].view());
  vcycle<kAxes>(s, l + 1, depth, p, swept);
  prolong<kAxes>(lv, cv);
  smooth<kAxes>(lv, p.mg_post_smooth, s.update.data());
  swept += cells * 2 * p.mg_pre_smooth + cells * 2 * p.mg_post_smooth;
}

/// What one solve did: its final relative residual, the V-cycles it ran and
/// the cell updates its sweeps made.
struct Outcome {
  double rel = 1.0;
  int cycles = 0;
  std::uint64_t swept = 0;
};

/// V-cycles on a shaped stack of `depth` levels until the relative residual
/// drops below the tolerance.
template <int kAxes>
Outcome cycle(MgScratch& s, int depth, const GravityParams& p) {
  const MgLevel& fine = s.levels[0];
  const double rhs_norm = norm2(fine, fine.rhs);
  Outcome o;
  while (o.cycles < p.mg_max_vcycles) {
    vcycle<kAxes>(s, 0, depth, p, o.swept);
    ++o.cycles;
    residual<kAxes>(fine);
    const double rn = norm2(fine, fine.res);
    o.rel = rhs_norm > 0 ? rn / rhs_norm : rn;
    if (o.rel < p.mg_tolerance) break;
  }
  return o;
}

bool can_coarsen(const MgLevel& lv) {
  for (int d = 0; d < 3; ++d)
    if (lv.g[d] == 1 && (lv.n[d] % 2 != 0 || lv.n[d] <= 2)) return false;
  return true;
}

/// Shape level l's span and colour masks from its extents.
void shape_masks(MgScratch& s, int l) {
  MgLevel& lv = s.levels[l];
  const int sx = lv.n[0] + 2 * lv.g[0], sy = lv.n[1] + 2 * lv.g[1];
  const std::size_t cells = static_cast<std::size_t>(sx) * sy;
  std::vector<std::int32_t>& m = s.masks[l];
  m.assign(2 * cells, 0);
  for (int j = 0; j < lv.n[1]; ++j)
    for (int i = 0; i < lv.n[0]; ++i)
      m[((i + j) & 1) * cells + (i + lv.g[0]) +
        static_cast<std::size_t>(sx) * (j + lv.g[1])] = 1;
  lv.mask[0] = MaskView(m.data(), sx, sy, 1);
  lv.mask[1] = MaskView(m.data() + cells, sx, sy, 1);
  lv.span = (lv.n[1] - 1) * sx + lv.n[0];
}

/// Shape the lane's stack for one solve and return its depth: level 0
/// views the caller's arrays, each coarser level halves the active extents.
int build_stack(MgScratch& s, FieldView phi, ConstFieldView rhs, double dx) {
  MgLevel& fine = s.levels[0];
  fine.dx = dx;
  const int tot[3] = {phi.nx(), phi.ny(), phi.nz()};
  for (int d = 0; d < 3; ++d) {
    const bool active = tot[d] > 1;
    fine.g[d] = active ? 1 : 0;
    fine.n[d] = active ? tot[d] - 2 : 1;
    ENZO_REQUIRE(fine.n[d] >= 1, "multigrid: degenerate extent");
  }
  fine.phi = phi;
  fine.rhs = rhs;
  s.res[0].resize(phi.nx(), phi.ny(), phi.nz(), 0.0);
  fine.res = s.res[0].view();
  shape_masks(s, 0);
  s.update.resize(fine.span, 1, 1, 0.0);
  int depth = 1;
  while (can_coarsen(s.levels[depth - 1]) && depth < kMaxLevels) {
    const MgLevel& f = s.levels[depth - 1];
    MgLevel& c = s.levels[depth];
    c.dx = f.dx * 2.0;
    for (int d = 0; d < 3; ++d) {
      c.g[d] = f.g[d];
      c.n[d] = f.g[d] == 1 ? f.n[d] / 2 : 1;
    }
    const int sx = c.n[0] + 2 * c.g[0], sy = c.n[1] + 2 * c.g[1],
              sz = c.n[2] + 2 * c.g[2];
    s.phi[depth].resize(sx, sy, sz, 0.0);
    s.rhs[depth].resize(sx, sy, sz, 0.0);
    s.res[depth].resize(sx, sy, sz, 0.0);
    c.phi = s.phi[depth].view();
    c.rhs = s.rhs[depth].view();
    c.res = s.res[depth].view();
    shape_masks(s, depth);
    ++depth;
  }
  return depth;
}

}  // namespace

double multigrid_solve(mesh::FieldView phi, mesh::ConstFieldView rhs,
                       double dx, const GravityParams& p) {
  ENZO_REQUIRE(phi.same_shape(rhs), "multigrid: phi/rhs shape mismatch");
  ENZO_REQUIRE(phi.data() != rhs.data(), "multigrid: phi aliases rhs");
  thread_local MgScratch s;
  const int depth = build_stack(s, phi, rhs, dx);
  using CycleFn = Outcome (*)(MgScratch&, int, const GravityParams&);
  constexpr CycleFn kCycle[8] = {cycle<0>, cycle<1>, cycle<2>, cycle<3>,
                                 cycle<4>, cycle<5>, cycle<6>, cycle<7>};
  const int axes = axes_of(s.levels[0]);
  const Outcome o = kCycle[axes](s, depth, p);
  static perf::Counter& solves =
      perf::Registry::global().counter("gravity.mg_solves");
  static perf::Counter& vcycles =
      perf::Registry::global().counter("gravity.mg_vcycles");
  static util::ComponentFlops flops("gravity");
  solves.add(1);
  vcycles.add(static_cast<std::uint64_t>(o.cycles));
  // A solve with no active axis never smooths, so it posts no flops.
  if (axes != 0)
    flops.add(util::flop_cost::kMultigridPerCellPerSweep * o.swept);
  return o.rel;
}

}  // namespace enzo::gravity
