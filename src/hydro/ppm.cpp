// Piecewise parabolic method sweep (Woodward & Colella 1984, as used in the
// cosmology-adapted solver of Bryan et al. 1995).
//
// Per primitive variable: monotonized parabola reconstruction; per face:
// domain-of-dependence averages of the parabolas over the fastest
// characteristic reaching the face, then a two-shock Riemann solution whose
// sampled state provides the upwind fluxes.  Optional shock flattening blends
// the parabola toward the cell average in strong compressions.
//
// The sweep runs on a batch of 8 pencils stored cell-major (pencil.hpp), so
// every loop walks flat elements e = i*8 + b with stencil neighbours at
// e ± 8, e ± 16 and runs whole vectors.  All scratch is carved from one
// arena block, and every inner loop is written branch-free (ternary
// selects, unconditional blends) so the compiler autovectorizes the
// reconstruction, the characteristic windows and the flux assembly; the
// Riemann rows vectorize across the 8 pencils (riemann.cpp).  Loops cover
// only the rows a later stage reads: parabolas on cells [ng-1, n-ng], the
// two cells of every active face.

#include <algorithm>
#include <cmath>

#include "hydro/pencil.hpp"
#include "hydro/riemann.hpp"
#include "util/annotations.hpp"
#include "util/arena.hpp"
#include "util/array3.hpp"

namespace enzo::hydro {

namespace {

constexpr std::ptrdiff_t kB = kBatch;

/// Dense lanes of one variable's monotonized parabola.
struct ParabolaView {
  double *ql, *qr, *dq, *q6;
  double *slope, *face;  ///< reconstruction scratch
};

/// Average of a parabola (qr, dq, q6) over the rightmost fraction σ of its
/// cell (left input state of the face above it).
ENZO_HOT inline double avg_right(double qr, double dq, double q6,
                                 double sigma) {
  return qr - 0.5 * sigma * (dq - (1.0 - 2.0 * sigma / 3.0) * q6);
}
/// Average over the leftmost fraction σ (right input state of the face
/// below it).
ENZO_HOT inline double avg_left(double ql, double dq, double q6,
                                double sigma) {
  return ql + 0.5 * sigma * (dq + (1.0 - 2.0 * sigma / 3.0) * q6);
}

/// std::clamp(x, 0, 1) as value selects (std::clamp returns a reference,
/// which GCC turns into a select between addresses).
ENZO_HOT inline double clamp01(double x) {
  return x < 0.0 ? 0.0 : (1.0 < x ? 1.0 : x);
}

// The lane loops below take their lanes as __restrict *parameters*: GCC
// tracks restrict reliably on parameters but not on locals initialized from
// struct members, and the alias checks it would need instead exceed its
// versioning cap, leaving the loop scalar.

/// Shock-detection coefficient f0 on elements [lo, hi).
ENZO_HOT void shock_coefficient(std::ptrdiff_t lo, std::ptrdiff_t hi,
                                const double* __restrict prs,
                                const double* __restrict vel,
                                double* __restrict f0) {
  for (std::ptrdiff_t e = lo; e < hi; ++e) {
    const double dp = prs[e + kB] - prs[e - kB];
    const double dp2 = prs[e + 2 * kB] - prs[e - 2 * kB];
    const double pmin = std::min(prs[e + kB], prs[e - kB]);
    const bool shock =
        (std::abs(dp) > 0.33 * pmin) & ((vel[e - kB] - vel[e + kB]) > 0.0);
    // Select-on-denominator keeps the division well defined when the
    // two-cell jump vanishes (the shock ratio is then forced to 1).
    const double den = dp2 != 0.0 ? dp2 : 1.0;
    const double ramp = clamp01(10.0 * (dp / den - 0.75));
    const double f_shock = dp2 != 0.0 ? ramp : 1.0;
    f0[e] = shock ? f_shock : 0.0;
  }
}

/// Characteristic domain-of-dependence fractions of faces [lo, hi): the
/// fastest wave reaching each face from its left and right cells.
ENZO_HOT void window_fractions(std::ptrdiff_t lo, std::ptrdiff_t hi,
                               double dtdx, const double* __restrict c,
                               const double* __restrict vel,
                               double* __restrict sig_l,
                               double* __restrict sig_r) {
  for (std::ptrdiff_t e = lo; e < hi; ++e) {
    const double vl = vel[e - kB], vr = vel[e];
    const double cl = c[e - kB], cr = c[e];
    sig_l[e] = clamp01(std::max(vl + cl, 0.0) * dtdx);
    sig_r[e] = clamp01(std::max(-(vr - cr), 0.0) * dtdx);
  }
}

/// Face input states of faces [lo, hi) from one parabola: the left state
/// averages the cell below the face over σ_l, the right state the cell
/// above it over σ_r.  With kFloor each is floored at 1e-12 of its cell's
/// value q.
template <bool kFloor>
ENZO_HOT void face_states(std::ptrdiff_t lo, std::ptrdiff_t hi,
                          const double* __restrict ql,
                          const double* __restrict qr,
                          const double* __restrict dq,
                          const double* __restrict q6,
                          const double* __restrict q,
                          const double* __restrict sig_l,
                          const double* __restrict sig_r,
                          double* __restrict out_l, double* __restrict out_r) {
  for (std::ptrdiff_t e = lo; e < hi; ++e) {
    const std::ptrdiff_t il = e - kB, ir = e;
    const double l = avg_right(qr[il], dq[il], q6[il], sig_l[e]);
    const double r = avg_left(ql[ir], dq[ir], q6[ir], sig_r[e]);
    if constexpr (kFloor) {
      const double ql_cell = q[il], qr_cell = q[ir];
      out_l[e] = std::max(l, 1e-12 * ql_cell);
      out_r[e] = std::max(r, 1e-12 * qr_cell);
    } else {
      out_l[e] = l;
      out_r[e] = r;
    }
  }
}

/// Upwind window average of faces [lo, hi): the left state when the
/// contact moves right (u* >= 0), else the right state.  Both are computed
/// and selected, keeping the loop branch-free.
ENZO_HOT void upwind_state(std::ptrdiff_t lo, std::ptrdiff_t hi,
                           const double* __restrict ql,
                           const double* __restrict qr,
                           const double* __restrict dq,
                           const double* __restrict q6,
                           const double* __restrict sig_l,
                           const double* __restrict sig_r,
                           const double* __restrict q_u,
                           double* __restrict out) {
  for (std::ptrdiff_t e = lo; e < hi; ++e) {
    const std::ptrdiff_t il = e - kB, ir = e;
    const bool from_left = q_u[e] >= 0.0;
    const double l = avg_right(qr[il], dq[il], q6[il], sig_l[e]);
    const double r = avg_left(ql[ir], dq[ir], q6[ir], sig_r[e]);
    out[e] = from_left ? l : r;
  }
}

/// Conserved face fluxes of faces [lo, hi) from the sampled Riemann state
/// and the upwind transverse velocities and internal energy.
ENZO_HOT void assemble_fluxes(std::ptrdiff_t lo, std::ptrdiff_t hi,
                              double gamma, const double* __restrict q_rho,
                              const double* __restrict q_u,
                              const double* __restrict q_p,
                              const double* __restrict ustar,
                              const double* __restrict vt1_up,
                              const double* __restrict vt2_up,
                              const double* __restrict ei_up,
                              double* __restrict f_rho,
                              double* __restrict f_mu,
                              double* __restrict f_mvt1,
                              double* __restrict f_mvt2,
                              double* __restrict f_etot,
                              double* __restrict f_eint,
                              double* __restrict ustar_out) {
  for (std::ptrdiff_t e = lo; e < hi; ++e) {
    const double st_rho = q_rho[e], st_u = q_u[e], st_p = q_p[e];
    const double vt1 = vt1_up[e], vt2 = vt2_up[e];
    const double ei = std::max(ei_up[e], 0.0);
    const double fm = st_rho * st_u;
    f_rho[e] = fm;
    f_mu[e] = fm * st_u + st_p;
    f_mvt1[e] = fm * vt1;
    f_mvt2[e] = fm * vt2;
    const double etot = st_p / (gamma - 1.0) +
                        0.5 * st_rho * (st_u * st_u + vt1 * vt1 + vt2 * vt2);
    f_etot[e] = st_u * (etot + st_p);
    f_eint[e] = fm * ei;
    ustar_out[e] = ustar[e];
  }
}

/// Passive-scalar face fluxes of faces [lo, hi): mass flux times the
/// upwind mass fraction clamped to [0, 1].
ENZO_HOT void scalar_fluxes(std::ptrdiff_t lo, std::ptrdiff_t hi,
                            const double* __restrict q_rho,
                            const double* __restrict q_u,
                            const double* __restrict win,
                            double* __restrict fsc) {
  for (std::ptrdiff_t e = lo; e < hi; ++e) {
    const double frac = clamp01(win[e]);
    fsc[e] = q_rho[e] * q_u[e] * frac;
  }
}

/// Build the monotonized parabola for variable q on cell rows [lo, hi]; it
/// reads q on rows [lo-2, hi+2].  Each loop is select-based: the limiter,
/// the flattening blend, and the CW84 monotonization all compute both arms
/// and choose, so there is no data-dependent control flow for the
/// vectorizer to trip on.
ENZO_HOT void build_parabola(int lo, int hi, const double* __restrict q,
                             const double* __restrict flat,
                             const ParabolaView& par) {
  double* __restrict slope = par.slope;
  double* __restrict face = par.face;
  // Monotonized central (van Leer) slopes, rows [lo-1, hi+1].
  for (std::ptrdiff_t e = (lo - 1) * kB; e < (hi + 2) * kB; ++e) {
    const double dc = 0.5 * (q[e + kB] - q[e - kB]);
    const double dl = q[e] - q[e - kB], dr = q[e + kB] - q[e];
    const double lim = 2.0 * std::min(std::abs(dl), std::abs(dr));
    const double s = std::copysign(std::min(std::abs(dc), lim), dc);
    slope[e] = dl * dr <= 0.0 ? 0.0 : s;
  }
  // face[i] = value at interface i+1/2, rows [lo-1, hi].
  for (std::ptrdiff_t e = (lo - 1) * kB; e < (hi + 1) * kB; ++e)
    face[e] = 0.5 * (q[e] + q[e + kB]) - (slope[e + kB] - slope[e]) / 6.0;
  double* __restrict pql = par.ql;
  double* __restrict pqr = par.qr;
  double* __restrict pdq = par.dq;
  double* __restrict pq6 = par.q6;
  for (std::ptrdiff_t e = lo * kB; e < (hi + 1) * kB; ++e) {
    // Flattening: blend toward the cell average in strong shocks (the blend
    // is exact identity at f = 0, so it is applied unconditionally).
    const double f = flat[e];
    const double ql0 = f * q[e] + (1.0 - f) * face[e - kB];
    const double qr0 = f * q[e] + (1.0 - f) * face[e];
    // CW84 monotonization: the two overshoot caps are mutually exclusive,
    // so the if/else-if cascade reduces to independent selects.
    const bool extremum = (qr0 - q[e]) * (q[e] - ql0) <= 0.0;
    const double dq0 = qr0 - ql0;
    const double q60 = 6.0 * (q[e] - 0.5 * (ql0 + qr0));
    const bool cap_l = dq0 * q60 > dq0 * dq0;
    const bool cap_r = -dq0 * dq0 > dq0 * q60;
    const double qlm = cap_l ? 3.0 * q[e] - 2.0 * qr0 : ql0;
    const double qrm = cap_r ? 3.0 * q[e] - 2.0 * ql0 : qr0;
    const double ql = extremum ? q[e] : qlm;
    const double qr = extremum ? q[e] : qrm;
    pql[e] = ql;
    pqr[e] = qr;
    pdq[e] = qr - ql;
    pq6[e] = 6.0 * (q[e] - 0.5 * (ql + qr));
  }
}

/// Reusable per-thread workspace for ppm_sweep_batch: flattening and sound
/// speed lanes, one parabola per primitive variable, and the Riemann face
/// lanes — all carved out of a single arena block.  reshape() zero-fills
/// only when the block is (re)acquired or the shape changes: every slot a
/// same-shape sweep reads is written earlier in that sweep (parabolas,
/// sound speeds and flattening on the rows [ng-1, n-ng] the windows read,
/// their face and slope scratch on the rows the parabolas read, f0's edge
/// rows explicitly; face lanes on the full [ng, n-ng] batch), so recycling
/// is observationally identical to fresh construction — at any executor
/// chunking, which keeps the determinism contract.
struct PpmScratch {
  util::Buffer3 buf;
  std::vector<ParabolaView> scal;  // nscal parabola views (pointers only)
  double* flat = nullptr;
  double* f0 = nullptr;
  double* c = nullptr;  ///< cell sound speed
  ParabolaView rho{}, u{}, p{}, vt1{}, vt2{}, ei{};
  // Face lanes: Riemann inputs, characteristic windows, outputs, workspace.
  double *rl = nullptr, *ul = nullptr, *pl = nullptr;
  double *rr = nullptr, *ur = nullptr, *pr = nullptr;
  double *sig_l = nullptr, *sig_r = nullptr;
  double *q_rho = nullptr, *q_u = nullptr, *q_p = nullptr;
  double *pstar = nullptr, *ustar = nullptr;
  double *cl = nullptr, *cr = nullptr, *wl = nullptr, *wr = nullptr;
  // Upwind window averages for the flux assembly.
  double *up_vt1 = nullptr, *up_vt2 = nullptr, *up_ei = nullptr;
  double* up_scal = nullptr;

  PpmScratch() { buf.set_arena(&util::Arena::scratch()); }

  void reshape(int n, int nscal) {
    const std::ptrdiff_t cs = n * kB, fsz = (n + 1) * kB;
    const std::size_t need =
        static_cast<std::size_t>(3 + 6 * (6 + nscal)) *
            static_cast<std::size_t>(cs) +
        static_cast<std::size_t>(21) * static_cast<std::size_t>(fsz);
    // Same-shape fast path: the whole-workspace fill would cost more than
    // a small-grid batch sweep (see the class comment for the
    // write-before-read audit that makes skipping it sound).
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
    c = cell_lane();
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
    up_vt1 = face_lane();
    up_vt2 = face_lane();
    up_ei = face_lane();
    up_scal = face_lane();
  }
};

PpmScratch& ppm_scratch() {
  thread_local PpmScratch ws;
  return ws;
}

}  // namespace

ENZO_HOT std::uint64_t ppm_sweep_batch(PencilBatch& pb, double dt, double dx,
                                       const SweepParams& sp) {
  const int n = pb.n, ng = pb.ng;
  const double gamma = sp.gamma;
  const int nscal = pb.nscal;
  PpmScratch& ws = ppm_scratch();
  ws.reshape(n, nscal);
  // Cell rows the characteristic windows read: both cells of every active
  // face.  The parabolas there read flattening on the same rows and q two
  // rows further out, which ng >= 3 keeps inside the pencil.
  const int c_lo = ng - 1, c_hi = n - ng;

  // ---- flattening coefficient --------------------------------------------
  // With the same-shape reshape skip, the lanes may hold a previous batch's
  // values, so the slots the loops below read but never write need explicit
  // initialization: the f0 edge rows feeding the three-point max, and the
  // whole flat window when flattening is disabled.
  double* flat = ws.flat;
  if (sp.flattening) {
    double* f0 = ws.f0;
    for (std::ptrdiff_t b = 0; b < kB; ++b)
      f0[b] = f0[kB + b] = f0[(n - 2) * kB + b] = f0[(n - 1) * kB + b] = 0.0;
    // f0 on the rows the three-point max reads, within [2, n-3].
    shock_coefficient(std::max(2, c_lo - 1) * kB,
                      (std::min(n - 3, c_hi + 1) + 1) * kB, pb.p, pb.u, f0);
    for (std::ptrdiff_t e = c_lo * kB; e < (c_hi + 1) * kB; ++e)
      flat[e] = std::max({f0[e - kB], f0[e], f0[e + kB]});
  } else {
    std::fill(flat + c_lo * kB, flat + (c_hi + 1) * kB, 0.0);
  }

  // ---- parabolas ---------------------------------------------------------
  build_parabola(c_lo, c_hi, pb.rho, flat, ws.rho);
  build_parabola(c_lo, c_hi, pb.u, flat, ws.u);
  build_parabola(c_lo, c_hi, pb.p, flat, ws.p);
  build_parabola(c_lo, c_hi, pb.vt1, flat, ws.vt1);
  build_parabola(c_lo, c_hi, pb.vt2, flat, ws.vt2);
  build_parabola(c_lo, c_hi, pb.eint, flat, ws.ei);
  for (int s = 0; s < nscal; ++s)
    build_parabola(c_lo, c_hi, pb.scal(s), flat,
                   ws.scal[static_cast<std::size_t>(s)]);

  // ---- characteristic windows and Riemann inputs -------------------------
  const int f_lo = ng, f_hi = n - ng;  // faces of active cells
  const std::ptrdiff_t e_lo = f_lo * kB, e_hi = (f_hi + 1) * kB;
  // Each cell's sound speed once; a face reads it for both its cells.
  {
    const double* __restrict prs = pb.p;
    const double* __restrict den = pb.rho;
    double* __restrict c = ws.c;
    for (std::ptrdiff_t e = c_lo * kB; e < (c_hi + 1) * kB; ++e)
      c[e] = std::sqrt(gamma * prs[e] / den[e]);
  }
  window_fractions(e_lo, e_hi, dt / dx, ws.c, pb.u, ws.sig_l, ws.sig_r);
  face_states<true>(e_lo, e_hi, ws.rho.ql, ws.rho.qr, ws.rho.dq, ws.rho.q6,
                    pb.rho, ws.sig_l, ws.sig_r, ws.rl, ws.rr);
  face_states<false>(e_lo, e_hi, ws.u.ql, ws.u.qr, ws.u.dq, ws.u.q6, pb.u,
                     ws.sig_l, ws.sig_r, ws.ul, ws.ur);
  face_states<true>(e_lo, e_hi, ws.p.ql, ws.p.qr, ws.p.dq, ws.p.q6, pb.p,
                    ws.sig_l, ws.sig_r, ws.pl, ws.pr);

  // ---- two-shock Riemann solve over the face rows ------------------------
  const RiemannBatch rb{ws.rl,    ws.ul, ws.pl, ws.rr, ws.ur, ws.pr,
                        ws.q_rho, ws.q_u, ws.q_p, ws.pstar, ws.ustar,
                        ws.cl,    ws.cr, ws.wl, ws.wr};
  const std::uint64_t sweeps = riemann_two_shock_batch(f_lo, f_hi, rb, gamma);

  // ---- flux assembly -----------------------------------------------------
  // Transverse velocities, internal energy and scalars are upwinded by the
  // contact side.
  auto upwind = [&](const ParabolaView& par, double* out) {
    upwind_state(e_lo, e_hi, par.ql, par.qr, par.dq, par.q6, ws.sig_l,
                 ws.sig_r, ws.q_u, out);
  };
  upwind(ws.vt1, ws.up_vt1);
  upwind(ws.vt2, ws.up_vt2);
  upwind(ws.ei, ws.up_ei);
  assemble_fluxes(e_lo, e_hi, gamma, ws.q_rho, ws.q_u, ws.q_p, ws.ustar,
                  ws.up_vt1, ws.up_vt2, ws.up_ei, pb.f_rho, pb.f_mu,
                  pb.f_mvt1, pb.f_mvt2, pb.f_etot, pb.f_eint, pb.ustar);
  for (int s = 0; s < nscal; ++s) {
    upwind(ws.scal[static_cast<std::size_t>(s)], ws.up_scal);
    scalar_fluxes(e_lo, e_hi, ws.q_rho, ws.q_u, ws.up_scal, pb.f_scal(s));
  }
  return sweeps;
}

}  // namespace enzo::hydro
