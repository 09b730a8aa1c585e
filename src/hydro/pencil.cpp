// Pencil batch workspace: arena-backed cell-major lanes, the grid↔lane
// transfers (gather, scatter, register adds) and the conservative update
// over the lanes.  Each cell row of a batch is addressed through
// ArrayView3::row/line, so the bounds-check build checks both ends of it.
// Lane loops run over whole 8-pencil rows and are written branch-free so
// the compiler autovectorizes them (tools/check_vec pins that this stays
// true).

#include "hydro/pencil.hpp"

#include <algorithm>
#include <cmath>

#include "util/annotations.hpp"
#include "util/arena.hpp"
#include "util/error.hpp"

namespace enzo::hydro {

namespace {

constexpr int kB = kBatch;
using View = util::ArrayView3<double>;

/// Fill lane rows [0, n) with the batch's pencils from v.
ENZO_HOT void gather_lane(double* __restrict lane, const View& v,
                          const BatchPlace& at, int n) {
  int pos[3] = {0, 0, 0};
  pos[at.o] = at.o0;
  const int live = at.live;
  if (at.a == 0) {
    // Each cell row of the batch is one contiguous x-row of the field.
    for (int i = 0; i < n; ++i) {
      pos[at.d] = i;
      const double* __restrict src = v.row(at.a0, live, pos[1], pos[2]);
      double* __restrict dst = lane + static_cast<std::ptrdiff_t>(i) * kB;
      if (live == kB) {
        for (int b = 0; b < kB; ++b) dst[b] = src[b];
      } else {
        for (int b = 0; b < live; ++b) dst[b] = src[b];
        for (int b = live; b < kB; ++b) dst[b] = src[live - 1];
      }
    }
    return;
  }
  // Each pencil is one line of the field along d: transpose it into its lane.
  pos[at.d] = 0;
  const std::ptrdiff_t st = v.stride(at.d);
  for (int b = 0; b < live; ++b) {
    pos[at.a] = at.a0 + b;
    const double* __restrict src = v.line(at.d, n, pos[0], pos[1], pos[2]);
    for (int i = 0; i < n; ++i)
      lane[static_cast<std::ptrdiff_t>(i) * kB + b] = src[i * st];
  }
  for (int i = 0; i < n; ++i) {
    double* __restrict row = lane + static_cast<std::ptrdiff_t>(i) * kB;
    for (int b = live; b < kB; ++b) row[b] = row[live - 1];
  }
}

/// Write lane rows [lo, hi) of the real pencils back to v.
ENZO_HOT void scatter_lane(const View& v, const double* __restrict lane,
                           const BatchPlace& at, int lo, int hi) {
  int pos[3] = {0, 0, 0};
  pos[at.o] = at.o0;
  const int live = at.live;
  if (at.a == 0) {
    for (int i = lo; i < hi; ++i) {
      pos[at.d] = i;
      double* __restrict dst = v.row(at.a0, live, pos[1], pos[2]);
      const double* __restrict src = lane + static_cast<std::ptrdiff_t>(i) * kB;
      for (int b = 0; b < live; ++b) dst[b] = src[b];
    }
    return;
  }
  pos[at.d] = lo;
  const std::ptrdiff_t st = v.stride(at.d);
  for (int b = 0; b < live; ++b) {
    pos[at.a] = at.a0 + b;
    double* __restrict dst = v.line(at.d, hi - lo, pos[0], pos[1], pos[2]);
    for (int i = lo; i < hi; ++i)
      dst[(i - lo) * st] = lane[static_cast<std::ptrdiff_t>(i) * kB + b];
  }
}

int extent(const View& v, int axis) {
  return axis == 0 ? v.nx() : (axis == 1 ? v.ny() : v.nz());
}

}  // namespace

PencilBatch::PencilBatch() { buf_.set_arena(&util::Arena::scratch()); }

void PencilBatch::reset(int n_cells, int nghost, int ns) {
  ENZO_REQUIRE(nghost >= 0 && ns >= 0, "negative pencil shape");
  ENZO_REQUIRE(n_cells - 2 * nghost >= 1,
               "pencil active extent < 1 cell — the sweep stencil does not "
               "fit this grid axis");
  n = n_cells;
  ng = nghost;
  nscal = ns;
  cs_ = static_cast<std::ptrdiff_t>(n) * kB;
  fs_ = static_cast<std::ptrdiff_t>(n + 1) * kB;
  const std::size_t need =
      static_cast<std::size_t>(7 + 2 * nscal) * static_cast<std::size_t>(cs_) +
      static_cast<std::size_t>(7 + nscal) * static_cast<std::size_t>(fs_);
  // If the new shape's size class is strictly smaller than the held block,
  // release first: Buffer3::resize alone never shrinks, and thread-local
  // scratch would otherwise pin the largest block ever used (e.g. a
  // 12-scalar chemistry deck followed by a pure-hydro one in one process).
  if (buf_.capacity() > util::Arena::capacity_for(need)) buf_.release();
  // Same-shape fast path: skip the whole-workspace zero fill.  Every lane
  // slot a sweep reads is written earlier in the same batch (gather fills
  // all cell lanes over [0,n) and every lane; the sweeps write fluxes and
  // ustar over the full [ng, n-ng] face range the update and the register
  // adds read), so reuse is value-identical to a fresh fill — including
  // across executor chunkings, which keeps the determinism contract.
  if (buf_.size() != need) buf_.resize(static_cast<int>(need), 1, 1, 0.0);

  double* b = buf_.data();
  rho = b + 0 * cs_;
  u = b + 1 * cs_;
  vt1 = b + 2 * cs_;
  vt2 = b + 3 * cs_;
  etot = b + 4 * cs_;
  eint = b + 5 * cs_;
  p = b + 6 * cs_;
  scal0_ = b + 7 * cs_;
  smass0_ = scal0_ + nscal * cs_;
  double* fb = smass0_ + nscal * cs_;
  ustar = fb;
  f_rho = fb + 1 * fs_;
  f_mu = fb + 2 * fs_;
  f_mvt1 = fb + 3 * fs_;
  f_mvt2 = fb + 4 * fs_;
  f_etot = fb + 5 * fs_;
  f_eint = fb + 6 * fs_;
}

ENZO_HOT void gather_batch(PencilBatch& pb, const BatchFields& f,
                           const BatchPlace& at, double gamma,
                           double pressure_floor) {
  const int n = pb.n;
  gather_lane(pb.rho, f.rho, at, n);
  gather_lane(pb.u, f.vu, at, n);
  gather_lane(pb.vt1, f.v1, at, n);
  gather_lane(pb.vt2, f.v2, at, n);
  gather_lane(pb.etot, f.etot, at, n);
  gather_lane(pb.eint, f.eint, at, n);
  // Derived lanes over dense data: floor eint, equation-of-state pressure.
  const std::ptrdiff_t m = static_cast<std::ptrdiff_t>(n) * kB;
  double* __restrict ei = pb.eint;
  double* __restrict p = pb.p;
  const double* __restrict rho = pb.rho;
  const double gm1 = gamma - 1.0;
  for (std::ptrdiff_t e = 0; e < m; ++e) {
    const double v = std::max(ei[e], 0.0);
    ei[e] = v;
    p[e] = std::max(gm1 * rho[e] * v, pressure_floor);
  }
  for (int s = 0; s < pb.nscal; ++s) {
    double* __restrict sm = pb.scal_mass(s);
    double* __restrict fr = pb.scal(s);
    gather_lane(sm, f.species[s], at, n);
    for (std::ptrdiff_t e = 0; e < m; ++e) fr[e] = sm[e] / rho[e];
  }
}

ENZO_HOT void scatter_batch(const PencilBatch& pb, const BatchFields& f,
                            const BatchPlace& at) {
  const int lo = pb.ng, hi = pb.n - pb.ng;
  scatter_lane(f.rho, pb.rho, at, lo, hi);
  scatter_lane(f.vu, pb.u, at, lo, hi);
  scatter_lane(f.v1, pb.vt1, at, lo, hi);
  scatter_lane(f.v2, pb.vt2, at, lo, hi);
  scatter_lane(f.etot, pb.etot, at, lo, hi);
  scatter_lane(f.eint, pb.eint, at, lo, hi);
  for (int s = 0; s < pb.nscal; ++s)
    scatter_lane(f.species[s], pb.scal_mass(s), at, lo, hi);
}

ENZO_HOT void update_batch(PencilBatch& pb, double dt, double dx,
                           double density_floor) {
  const double dtdx = dt / dx;
  const std::ptrdiff_t lo = static_cast<std::ptrdiff_t>(pb.ng) * kB;
  const std::ptrdiff_t hi = static_cast<std::ptrdiff_t>(pb.n - pb.ng) * kB;
  double* __restrict rho = pb.rho;
  double* __restrict u = pb.u;
  double* __restrict vt1 = pb.vt1;
  double* __restrict vt2 = pb.vt2;
  double* __restrict etot = pb.etot;
  double* __restrict eint = pb.eint;
  const double* __restrict p = pb.p;
  const double* __restrict f_rho = pb.f_rho;
  const double* __restrict f_mu = pb.f_mu;
  const double* __restrict f_mvt1 = pb.f_mvt1;
  const double* __restrict f_mvt2 = pb.f_mvt2;
  const double* __restrict f_etot = pb.f_etot;
  const double* __restrict f_eint = pb.f_eint;
  const double* __restrict ustar = pb.ustar;
  // Cell e's lower face is face lane element e, its upper face e + kB.
  for (std::ptrdiff_t e = lo; e < hi; ++e) {
    const std::ptrdiff_t up = e + kB;
    const double m0 = rho[e];
    double m = m0 + dtdx * (f_rho[e] - f_rho[up]);
    // Vacuum guard: a cell emptied below a tiny fraction of its prior
    // density would turn the specific-variable divisions into velocity
    // blow-ups; clamp relative to the pre-step value.
    m = std::max(m, std::max(density_floor, 1e-8 * m0));
    const double mu = m0 * u[e] + dtdx * (f_mu[e] - f_mu[up]);
    const double m1 = m0 * vt1[e] + dtdx * (f_mvt1[e] - f_mvt1[up]);
    const double m2 = m0 * vt2[e] + dtdx * (f_mvt2[e] - f_mvt2[up]);
    const double me = m0 * etot[e] + dtdx * (f_etot[e] - f_etot[up]);
    double mei = m0 * eint[e] + dtdx * (f_eint[e] - f_eint[up]);
    // Internal-energy pdV work with the Riemann face velocities.
    mei -= dt * p[e] * (ustar[up] - ustar[e]) / dx;
    mei = std::max(mei, 0.0);
    rho[e] = m;
    u[e] = mu / m;
    vt1[e] = m1 / m;
    vt2[e] = m2 / m;
    etot[e] = me / m;
    eint[e] = mei / m;
  }
  for (int s = 0; s < pb.nscal; ++s) {
    double* __restrict sm = pb.scal_mass(s);
    const double* __restrict fs = pb.f_scal(s);
    for (std::ptrdiff_t e = lo; e < hi; ++e)
      sm[e] = std::max(sm[e] + dtdx * (fs[e] - fs[e + kB]), 0.0);
  }
}

ENZO_HOT void add_batch_fluxes(const PencilBatch& pb,
                               const FluxTarget* targets, const BatchPlace& at,
                               const int ghost[3], double dt_w) {
  const int nq = 6 + pb.nscal;
  const View& shape = targets[0].face;
  int pos[3] = {0, 0, 0};
  pos[at.o] = at.o0 - ghost[at.o];
  if (pos[at.o] < 0 || pos[at.o] >= extent(shape, at.o)) return;
  // The real pencils whose batch-axis coordinate is active: [b0, b1).
  const int c0 = at.a0 - ghost[at.a];
  const int b0 = std::max(0, -c0);
  const int b1 = std::min(at.live, extent(shape, at.a) - c0);
  if (b0 >= b1) return;
  const int nb = b1 - b0;
  const int lo = pb.ng, hi = pb.n - pb.ng;
  for (int q = 0; q < nq; ++q) {
    const FluxTarget& t = targets[q];
    const double* __restrict fl = pb.flux(q);
    if (at.a == 0) {
      // Register rows along x hold the batch's pencils side by side.
      for (int f = lo; f <= hi; ++f) {
        pos[at.d] = f - lo;
        double* __restrict r = t.face.row(c0 + b0, nb, pos[1], pos[2]);
        const double* __restrict src =
            fl + static_cast<std::ptrdiff_t>(f) * kB + b0;
        for (int k = 0; k < nb; ++k) r[k] += dt_w * src[k];
      }
    } else {
      const std::ptrdiff_t rs = t.face.stride(at.d);
      pos[at.d] = 0;
      for (int k = 0; k < nb; ++k) {
        pos[at.a] = c0 + b0 + k;
        double* __restrict r =
            t.face.line(at.d, hi - lo + 1, pos[0], pos[1], pos[2]);
        for (int f = lo; f <= hi; ++f)
          r[(f - lo) * rs] +=
              dt_w * fl[static_cast<std::ptrdiff_t>(f) * kB + b0 + k];
      }
    }
    // Window-accumulated boundary registers (for the parent's flux
    // correction); plane arrays have extent 1 along d.
    pos[at.d] = 0;
    for (int k = 0; k < nb; ++k) {
      pos[at.a] = c0 + b0 + k;
      const std::ptrdiff_t e = b0 + k;
      t.low(pos[0], pos[1], pos[2]) +=
          dt_w * fl[static_cast<std::ptrdiff_t>(lo) * kB + e];
      t.high(pos[0], pos[1], pos[2]) +=
          dt_w * fl[static_cast<std::ptrdiff_t>(hi) * kB + e];
    }
  }
}

}  // namespace enzo::hydro
