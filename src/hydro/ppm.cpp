// Piecewise parabolic method sweep (Woodward & Colella 1984, as used in the
// cosmology-adapted solver of Bryan et al. 1995).
//
// Per primitive variable: monotonized parabola reconstruction; per face:
// domain-of-dependence averages of the parabolas over the fastest
// characteristic reaching the face, then a two-shock Riemann solution whose
// sampled state provides the upwind fluxes.  Optional shock flattening blends
// the parabola toward the cell average in strong compressions.
//
// All scratch is structure-of-arrays carved from one arena block, and every
// inner loop is written branch-free (ternary selects, unconditional blends)
// over dense lanes so the compiler autovectorizes the reconstruction, the
// characteristic windows, the Riemann batch (fixed-sweep Newton), and the
// flux assembly.

#include <algorithm>
#include <cmath>

#include "hydro/pencil.hpp"
#include "hydro/riemann.hpp"
#include "util/annotations.hpp"
#include "util/arena.hpp"
#include "util/array3.hpp"

namespace enzo::hydro {

namespace {

constexpr int kLanePad = 8;

int padded(int len) { return (len + kLanePad - 1) / kLanePad * kLanePad; }

/// Dense lanes of one variable's monotonized parabola.
struct ParabolaView {
  double *ql, *qr, *dq, *q6;
  double *slope, *face;  ///< reconstruction scratch
};

/// Average of the parabola in cell i over the rightmost fraction σ
/// (left input state of face i+1/2).
ENZO_HOT inline double avg_right(const ParabolaView& p, int i, double sigma) {
  return p.qr[i] -
         0.5 * sigma * (p.dq[i] - (1.0 - 2.0 * sigma / 3.0) * p.q6[i]);
}
/// Average over the leftmost fraction σ (right input state of face i-1/2).
ENZO_HOT inline double avg_left(const ParabolaView& p, int i, double sigma) {
  return p.ql[i] +
         0.5 * sigma * (p.dq[i] + (1.0 - 2.0 * sigma / 3.0) * p.q6[i]);
}

/// Build the monotonized parabola for variable q; valid for i in
/// [2, n-3] (the callers only consume faces inside that window).  Each loop
/// is select-based: the limiter, the flattening blend, and the CW84
/// monotonization all compute both arms and choose, so there is no
/// data-dependent control flow for the vectorizer to trip on.
ENZO_HOT void build_parabola(int n, const double* __restrict q,
                             const double* __restrict flat,
                             const ParabolaView& par) {
  double* __restrict slope = par.slope;
  double* __restrict face = par.face;
  // Monotonized central (van Leer) slopes.
  for (int i = 1; i + 1 < n; ++i) {
    const double dc = 0.5 * (q[i + 1] - q[i - 1]);
    const double dl = q[i] - q[i - 1], dr = q[i + 1] - q[i];
    const double lim = 2.0 * std::min(std::abs(dl), std::abs(dr));
    const double s = std::copysign(std::min(std::abs(dc), lim), dc);
    slope[i] = dl * dr <= 0.0 ? 0.0 : s;
  }
  // face[i] = value at interface i+1/2.
  for (int i = 1; i + 2 < n; ++i)
    face[i] = 0.5 * (q[i] + q[i + 1]) - (slope[i + 1] - slope[i]) / 6.0;
  double* __restrict pql = par.ql;
  double* __restrict pqr = par.qr;
  double* __restrict pdq = par.dq;
  double* __restrict pq6 = par.q6;
  for (int i = 2; i + 2 < n; ++i) {
    // Flattening: blend toward the cell average in strong shocks (the blend
    // is exact identity at f = 0, so it is applied unconditionally).
    const double f = flat[i];
    const double ql0 = f * q[i] + (1.0 - f) * face[i - 1];
    const double qr0 = f * q[i] + (1.0 - f) * face[i];
    // CW84 monotonization: the two overshoot caps are mutually exclusive,
    // so the if/else-if cascade reduces to independent selects.
    const bool extremum = (qr0 - q[i]) * (q[i] - ql0) <= 0.0;
    const double dq0 = qr0 - ql0;
    const double q60 = 6.0 * (q[i] - 0.5 * (ql0 + qr0));
    const bool cap_l = dq0 * q60 > dq0 * dq0;
    const bool cap_r = -dq0 * dq0 > dq0 * q60;
    const double qlm = cap_l ? 3.0 * q[i] - 2.0 * qr0 : ql0;
    const double qrm = cap_r ? 3.0 * q[i] - 2.0 * ql0 : qr0;
    const double ql = extremum ? q[i] : qlm;
    const double qr = extremum ? q[i] : qrm;
    pql[i] = ql;
    pqr[i] = qr;
    pdq[i] = qr - ql;
    pq6[i] = 6.0 * (q[i] - 0.5 * (ql + qr));
  }
}

/// Reusable per-thread workspace for ppm_sweep: flattening lanes, one
/// parabola per primitive variable, and the Riemann face lanes — all carved
/// out of a single arena block.  reshape() zero-fills only when the block is
/// (re)acquired or the shape changes: every slot a same-shape sweep reads is
/// written earlier in that sweep (parabola lanes cover [2, n-3] ⊇ the
/// [ng-1, n-ng] window reads at ng = 3; face lanes cover the full
/// [f_lo, f_hi] batch; ppm_sweep writes the flat/f0 edge slots explicitly),
/// so recycling is observationally identical to fresh construction — at any
/// executor chunking, which keeps the determinism contract.
struct PpmScratch {
  util::Buffer3 buf;
  std::vector<ParabolaView> scal;  // nscal parabola views (pointers only)
  double* flat = nullptr;
  double* f0 = nullptr;
  ParabolaView rho{}, u{}, p{}, vt1{}, vt2{}, ei{};
  // Face lanes: Riemann inputs, characteristic windows, outputs, workspace.
  double *rl = nullptr, *ul = nullptr, *pl = nullptr;
  double *rr = nullptr, *ur = nullptr, *pr = nullptr;
  double *sig_l = nullptr, *sig_r = nullptr;
  double *q_rho = nullptr, *q_u = nullptr, *q_p = nullptr;
  double *pstar = nullptr, *ustar = nullptr;
  double *cl = nullptr, *cr = nullptr, *wl = nullptr, *wr = nullptr;

  PpmScratch() { buf.set_arena(&util::Arena::scratch()); }

  void reshape(int n, int nscal) {
    const int cs = padded(n), fsz = padded(n + 1);
    const std::size_t need =
        static_cast<std::size_t>(2 + 6 * (6 + nscal)) *
            static_cast<std::size_t>(cs) +
        static_cast<std::size_t>(17) * static_cast<std::size_t>(fsz);
    // Same-shape fast path: the per-pencil whole-workspace fill was ~35% of
    // a small-grid PPM step (see the class comment for the write-before-read
    // audit that makes skipping it sound).
    if (buf.size() != need) buf.resize(static_cast<int>(need), 1, 1, 0.0);
    double* b = buf.data();
    auto cell_lane = [&]() {
      double* lane = b;
      b += cs;
      return lane;
    };
    auto parabola = [&]() {
      ParabolaView v;
      v.ql = cell_lane();
      v.qr = cell_lane();
      v.dq = cell_lane();
      v.q6 = cell_lane();
      v.slope = cell_lane();
      v.face = cell_lane();
      return v;
    };
    flat = cell_lane();
    f0 = cell_lane();
    rho = parabola();
    u = parabola();
    p = parabola();
    vt1 = parabola();
    vt2 = parabola();
    ei = parabola();
    if (static_cast<int>(scal.size()) != nscal)
      // enzo-lint: allow(hotpath-heap-alloc) amortized scratch growth
      scal.resize(static_cast<std::size_t>(nscal));
    for (int s = 0; s < nscal; ++s) scal[static_cast<std::size_t>(s)] =
        parabola();
    auto face_lane = [&]() {
      double* lane = b;
      b += fsz;
      return lane;
    };
    rl = face_lane();
    ul = face_lane();
    pl = face_lane();
    rr = face_lane();
    ur = face_lane();
    pr = face_lane();
    sig_l = face_lane();
    sig_r = face_lane();
    q_rho = face_lane();
    q_u = face_lane();
    q_p = face_lane();
    pstar = face_lane();
    ustar = face_lane();
    cl = face_lane();
    cr = face_lane();
    wl = face_lane();
    wr = face_lane();
  }
};

PpmScratch& ppm_scratch() {
  thread_local PpmScratch ws;
  return ws;
}

}  // namespace

ENZO_HOT void ppm_sweep(Pencil& pc, double dt, double dx,
                        const SweepParams& sp) {
  const int n = pc.n;
  const double gamma = sp.gamma;
  const int nscal = pc.nscal;
  PpmScratch& ws = ppm_scratch();
  ws.reshape(n, nscal);

  // ---- flattening coefficient --------------------------------------------
  // With the same-shape reshape skip, the lanes may hold a previous pencil's
  // values, so the slots the loops below read but never write need explicit
  // initialization: the f0 edge cells feeding the three-point max, and the
  // whole flat window when flattening is disabled.
  double* __restrict flat = ws.flat;
  if (sp.flattening) {
    double* __restrict f0 = ws.f0;
    const double* __restrict prs = pc.p;
    const double* __restrict vel = pc.u;
    f0[0] = f0[1] = f0[n - 2] = f0[n - 1] = 0.0;
    for (int i = 2; i + 2 < n; ++i) {
      const double dp = prs[i + 1] - prs[i - 1];
      const double dp2 = prs[i + 2] - prs[i - 2];
      const double pmin = std::min(prs[i + 1], prs[i - 1]);
      const bool shock =
          std::abs(dp) > 0.33 * pmin && (vel[i - 1] - vel[i + 1]) > 0.0;
      // Select-on-denominator keeps the division well defined when the
      // two-cell jump vanishes (the shock ratio is then forced to 1).
      const double den = dp2 != 0.0 ? dp2 : 1.0;
      const double ramp =
          std::clamp(10.0 * (dp / den - 0.75), 0.0, 1.0);
      const double f_shock = dp2 != 0.0 ? ramp : 1.0;
      f0[i] = shock ? f_shock : 0.0;
    }
    for (int i = 1; i + 1 < n; ++i)
      flat[i] = std::max({f0[i - 1], f0[i], f0[i + 1]});
  } else {
    std::fill(flat + 1, flat + (n - 1), 0.0);
  }

  // ---- parabolas ---------------------------------------------------------
  build_parabola(n, pc.rho, flat, ws.rho);
  build_parabola(n, pc.u, flat, ws.u);
  build_parabola(n, pc.p, flat, ws.p);
  build_parabola(n, pc.vt1, flat, ws.vt1);
  build_parabola(n, pc.vt2, flat, ws.vt2);
  build_parabola(n, pc.eint, flat, ws.ei);
  for (int s = 0; s < nscal; ++s)
    build_parabola(n, pc.scal(s), flat, ws.scal[static_cast<std::size_t>(s)]);

  // ---- characteristic windows and Riemann inputs -------------------------
  const double dtdx = dt / dx;
  const int f_lo = pc.ng, f_hi = n - pc.ng;  // faces of active cells
  {
    const double* __restrict prs = pc.p;
    const double* __restrict den = pc.rho;
    const double* __restrict vel = pc.u;
    for (int f = f_lo; f <= f_hi; ++f) {
      const int il = f - 1, ir = f;
      const double cl = std::sqrt(gamma * prs[il] / den[il]);
      const double cr = std::sqrt(gamma * prs[ir] / den[ir]);
      const double sig_l =
          std::clamp(std::max(vel[il] + cl, 0.0) * dtdx, 0.0, 1.0);
      const double sig_r =
          std::clamp(std::max(-(vel[ir] - cr), 0.0) * dtdx, 0.0, 1.0);
      ws.sig_l[f] = sig_l;
      ws.sig_r[f] = sig_r;
      ws.rl[f] = std::max(avg_right(ws.rho, il, sig_l), 1e-12 * den[il]);
      ws.ul[f] = avg_right(ws.u, il, sig_l);
      ws.pl[f] = std::max(avg_right(ws.p, il, sig_l), 1e-12 * prs[il]);
      ws.rr[f] = std::max(avg_left(ws.rho, ir, sig_r), 1e-12 * den[ir]);
      ws.ur[f] = avg_left(ws.u, ir, sig_r);
      ws.pr[f] = std::max(avg_left(ws.p, ir, sig_r), 1e-12 * prs[ir]);
    }
  }

  // ---- two-shock Riemann solve over the face batch -----------------------
  const RiemannBatch rb{ws.rl,    ws.ul, ws.pl, ws.rr, ws.ur, ws.pr,
                        ws.q_rho, ws.q_u, ws.q_p, ws.pstar, ws.ustar,
                        ws.cl,    ws.cr, ws.wl, ws.wr};
  riemann_two_shock_batch(f_lo, f_hi, rb, gamma);

  // ---- flux assembly -----------------------------------------------------
  // Upwind transverse velocities / scalars by the contact side: both window
  // averages are computed and selected, keeping the loop branch-free.
  {
    double* __restrict f_rho = pc.f_rho;
    double* __restrict f_mu = pc.f_mu;
    double* __restrict f_mvt1 = pc.f_mvt1;
    double* __restrict f_mvt2 = pc.f_mvt2;
    double* __restrict f_etot = pc.f_etot;
    double* __restrict f_eint = pc.f_eint;
    double* __restrict ustar_out = pc.ustar;
    for (int f = f_lo; f <= f_hi; ++f) {
      const int il = f - 1, ir = f;
      const double st_rho = ws.q_rho[f], st_u = ws.q_u[f], st_p = ws.q_p[f];
      const bool from_left = st_u >= 0.0;
      const double sl = ws.sig_l[f], sr = ws.sig_r[f];
      const double vt1 = from_left ? avg_right(ws.vt1, il, sl)
                                   : avg_left(ws.vt1, ir, sr);
      const double vt2 = from_left ? avg_right(ws.vt2, il, sl)
                                   : avg_left(ws.vt2, ir, sr);
      const double ei = std::max(from_left ? avg_right(ws.ei, il, sl)
                                           : avg_left(ws.ei, ir, sr),
                                 0.0);
      const double fm = st_rho * st_u;
      f_rho[f] = fm;
      f_mu[f] = fm * st_u + st_p;
      f_mvt1[f] = fm * vt1;
      f_mvt2[f] = fm * vt2;
      const double etot = st_p / (gamma - 1.0) +
                          0.5 * st_rho * (st_u * st_u + vt1 * vt1 + vt2 * vt2);
      f_etot[f] = st_u * (etot + st_p);
      f_eint[f] = fm * ei;
      ustar_out[f] = ws.ustar[f];
    }
  }
  for (int s = 0; s < nscal; ++s) {
    const ParabolaView& Ps = ws.scal[static_cast<std::size_t>(s)];
    double* __restrict fsc = pc.f_scal(s);
    for (int f = f_lo; f <= f_hi; ++f) {
      const int il = f - 1, ir = f;
      const bool from_left = ws.q_u[f] >= 0.0;
      const double win = from_left ? avg_right(Ps, il, ws.sig_l[f])
                                   : avg_left(Ps, ir, ws.sig_r[f]);
      const double frac = std::clamp(win, 0.0, 1.0);
      fsc[f] = ws.q_rho[f] * ws.q_u[f] * frac;
    }
  }
}

}  // namespace enzo::hydro
