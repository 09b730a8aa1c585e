// SoA pencil workspace: arena-backed lane storage, bulk strided
// gather/scatter between grid fields and the dense lanes, and the
// conservative update over the lanes.  Kernel-facing loops here are written
// branch-free over contiguous arrays so the compiler can autovectorize them
// (tools/check_vec pins that this stays true).

#include "hydro/pencil.hpp"

#include <algorithm>
#include <cmath>

#include "util/annotations.hpp"
#include "util/arena.hpp"
#include "util/error.hpp"

namespace enzo::hydro {

namespace {

// Lane lengths are padded to 8 doubles (one cache line) so every lane of the
// 64-byte-aligned arena block starts on its own aligned boundary.
constexpr int kLanePad = 8;

int padded(int len) { return (len + kLanePad - 1) / kLanePad * kLanePad; }

/// Copy n elements from a strided grid line into a dense lane.  The unit
/// stride case (x sweeps) degenerates to memcpy.
ENZO_HOT inline void gather_lane(double* dst, const double* src, int n,
                                 std::ptrdiff_t stride) {
  if (stride == 1) {
    std::copy_n(src, static_cast<std::size_t>(n), dst);
    return;
  }
  for (std::ptrdiff_t i = 0; i < n; ++i) dst[i] = src[i * stride];
}

/// Copy lane elements [lo, hi) back onto the strided grid line.
ENZO_HOT inline void scatter_lane(double* dst, const double* src, int lo,
                                  int hi, std::ptrdiff_t stride) {
  if (stride == 1) {
    std::copy(src + lo, src + hi, dst + lo);
    return;
  }
  for (std::ptrdiff_t i = lo; i < hi; ++i) dst[i * stride] = src[i];
}

}  // namespace

Pencil::Pencil() { buf_.set_arena(&util::Arena::scratch()); }

PencilMap pencil_map(int axis, int nx, int ny, int nz, int j1, int j2) {
  (void)nz;
  const int t1 = (axis + 1) % 3, t2 = (axis + 2) % 3;
  int s[3] = {0, 0, 0};
  s[t1] = j1;
  s[t2] = j2;
  const std::ptrdiff_t strides[3] = {1, nx,
                                     static_cast<std::ptrdiff_t>(nx) * ny};
  PencilMap m;
  m.base = s[0] * strides[0] + s[1] * strides[1] + s[2] * strides[2];
  m.stride = strides[axis];
  return m;
}

void Pencil::reset(int n_cells, int nghost, int ns) {
  ENZO_REQUIRE(nghost >= 0 && ns >= 0, "negative pencil shape");
  ENZO_REQUIRE(n_cells - 2 * nghost >= 1,
               "pencil active extent < 1 cell — the sweep stencil does not "
               "fit this grid axis");
  n = n_cells;
  ng = nghost;
  nscal = ns;
  cs_ = padded(n);
  fs_ = padded(n + 1);
  const std::size_t need =
      static_cast<std::size_t>(7 + 2 * nscal) * static_cast<std::size_t>(cs_) +
      static_cast<std::size_t>(7 + nscal) * static_cast<std::size_t>(fs_);
  // If the new shape's size class is strictly smaller than the held block,
  // release first: Buffer3::resize alone never shrinks, and thread-local
  // scratch would otherwise pin the largest block ever used (e.g. a
  // 12-scalar chemistry deck followed by a pure-hydro one in one process).
  if (buf_.capacity() > util::Arena::capacity_for(need)) buf_.release();
  // Same-shape fast path: skip the whole-workspace zero fill.  Every lane
  // slot the sweep reads is written earlier in the same pencil iteration
  // (gather fills all cell lanes over [0,n); the sweeps write fluxes/ustar
  // over the full [ng, n-ng] face range the update and accumulation read;
  // padding is never read), so reuse is value-identical to a fresh fill —
  // including across executor chunkings, which keeps the determinism
  // contract.  Profiling showed the per-pencil fill at ~19% of a PPM step.
  if (buf_.size() != need) buf_.resize(static_cast<int>(need), 1, 1, 0.0);

  double* b = buf_.data();
  const auto cs = static_cast<std::ptrdiff_t>(cs_);
  const auto fs = static_cast<std::ptrdiff_t>(fs_);
  rho = b + 0 * cs;
  u = b + 1 * cs;
  vt1 = b + 2 * cs;
  vt2 = b + 3 * cs;
  etot = b + 4 * cs;
  eint = b + 5 * cs;
  p = b + 6 * cs;
  scal0_ = b + 7 * cs;
  smass0_ = scal0_ + nscal * cs;
  double* fb = smass0_ + nscal * cs;
  f_rho = fb + 0 * fs;
  f_mu = fb + 1 * fs;
  f_mvt1 = fb + 2 * fs;
  f_mvt2 = fb + 3 * fs;
  f_etot = fb + 4 * fs;
  f_eint = fb + 5 * fs;
  ustar = fb + 6 * fs;
  fscal0_ = fb + 7 * fs;
}

ENZO_HOT void gather_pencil(Pencil& pc, const PencilFields& f,
                            const PencilMap& m, double gamma,
                            double pressure_floor) {
  const int n = pc.n;
  const std::ptrdiff_t st = m.stride;
  gather_lane(pc.rho, f.rho + m.base, n, st);
  gather_lane(pc.u, f.vu + m.base, n, st);
  gather_lane(pc.vt1, f.v1 + m.base, n, st);
  gather_lane(pc.vt2, f.v2 + m.base, n, st);
  gather_lane(pc.etot, f.etot + m.base, n, st);
  gather_lane(pc.eint, f.eint + m.base, n, st);
  // Derived lanes over dense data: floor eint, equation-of-state pressure.
  double* __restrict ei = pc.eint;
  double* __restrict p = pc.p;
  const double* __restrict rho = pc.rho;
  const double gm1 = gamma - 1.0;
  for (int i = 0; i < n; ++i) {
    const double e = std::max(ei[i], 0.0);
    ei[i] = e;
    p[i] = std::max(gm1 * rho[i] * e, pressure_floor);
  }
  for (int s = 0; s < pc.nscal; ++s) {
    double* __restrict sm = pc.scal_mass(s);
    double* __restrict fr = pc.scal(s);
    gather_lane(sm, f.species[s] + m.base, n, st);
    for (int i = 0; i < n; ++i) fr[i] = sm[i] / rho[i];
  }
}

ENZO_HOT void scatter_pencil(const Pencil& pc, const PencilFields& f,
                             const PencilMap& m) {
  const int lo = pc.ng, hi = pc.n - pc.ng;
  const std::ptrdiff_t st = m.stride;
  scatter_lane(f.rho + m.base, pc.rho, lo, hi, st);
  scatter_lane(f.vu + m.base, pc.u, lo, hi, st);
  scatter_lane(f.v1 + m.base, pc.vt1, lo, hi, st);
  scatter_lane(f.v2 + m.base, pc.vt2, lo, hi, st);
  scatter_lane(f.etot + m.base, pc.etot, lo, hi, st);
  scatter_lane(f.eint + m.base, pc.eint, lo, hi, st);
  for (int s = 0; s < pc.nscal; ++s)
    scatter_lane(f.species[s] + m.base, pc.scal_mass(s), lo, hi, st);
}

ENZO_HOT void apply_conservative_update(Pencil& pc, double dt, double dx,
                                        double density_floor) {
  const double dtdx = dt / dx;
  const int lo = pc.ng, hi = pc.n - pc.ng;
  double* __restrict rho = pc.rho;
  double* __restrict u = pc.u;
  double* __restrict vt1 = pc.vt1;
  double* __restrict vt2 = pc.vt2;
  double* __restrict etot = pc.etot;
  double* __restrict eint = pc.eint;
  const double* __restrict p = pc.p;
  const double* __restrict f_rho = pc.f_rho;
  const double* __restrict f_mu = pc.f_mu;
  const double* __restrict f_mvt1 = pc.f_mvt1;
  const double* __restrict f_mvt2 = pc.f_mvt2;
  const double* __restrict f_etot = pc.f_etot;
  const double* __restrict f_eint = pc.f_eint;
  const double* __restrict ustar = pc.ustar;
  for (int i = lo; i < hi; ++i) {
    const double m0 = rho[i];
    double m = m0 + dtdx * (f_rho[i] - f_rho[i + 1]);
    // Vacuum guard: a cell emptied below a tiny fraction of its prior
    // density would turn the specific-variable divisions into velocity
    // blow-ups; clamp relative to the pre-step value.
    m = std::max(m, std::max(density_floor, 1e-8 * m0));
    const double mu = m0 * u[i] + dtdx * (f_mu[i] - f_mu[i + 1]);
    const double m1 = m0 * vt1[i] + dtdx * (f_mvt1[i] - f_mvt1[i + 1]);
    const double m2 = m0 * vt2[i] + dtdx * (f_mvt2[i] - f_mvt2[i + 1]);
    const double me = m0 * etot[i] + dtdx * (f_etot[i] - f_etot[i + 1]);
    double mei = m0 * eint[i] + dtdx * (f_eint[i] - f_eint[i + 1]);
    // Internal-energy pdV work with the Riemann face velocities.
    mei -= dt * p[i] * (ustar[i + 1] - ustar[i]) / dx;
    mei = std::max(mei, 0.0);
    rho[i] = m;
    u[i] = mu / m;
    vt1[i] = m1 / m;
    vt2[i] = m2 / m;
    etot[i] = me / m;
    eint[i] = mei / m;
  }
  for (int s = 0; s < pc.nscal; ++s) {
    double* __restrict sm = pc.scal_mass(s);
    const double* __restrict fs = pc.f_scal(s);
    for (int i = lo; i < hi; ++i)
      sm[i] = std::max(sm[i] + dtdx * (fs[i] - fs[i + 1]), 0.0);
  }
}

}  // namespace enzo::hydro
