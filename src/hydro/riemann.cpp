#include "hydro/riemann.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>

#include "util/annotations.hpp"

namespace enzo::hydro {

namespace {

// Absolute positivity floor for the inputs: near-vacuum states from strong
// expansion fans reach the solver with p, ρ ~ 1e-300 (the caller's relative
// floors scale with the vanishing cell values), and γpρ then underflows to
// zero — making the relative wave-speed floor underflow too, the Lagrangian
// speeds exactly zero, and the Newton update 0/0 = NaN.  Flooring the inputs
// keeps every product in the normal range, consistent with the conservative
// update's eint >= 0 handling (a vacuum face simply carries ~zero flux).
constexpr double kTiny = 1e-300;

constexpr int kB = kBatch;

// The sweep count every face would run without the stopping rule.
constexpr int kNewtonSweeps = 12;

// ---- phase A: sound speeds and the linearized (acoustic) star guess ------
// A standalone helper so the lanes arrive as __restrict *parameters*: GCC
// tracks restrict reliably on parameters but not on locals initialized from
// struct members, and without it the loop needs 21 runtime alias checks —
// over the vectorizer's versioning cap — so it stays scalar.  Loads also go
// through locals before the max: std::max over an array element directly
// selects between *addresses*, which defeats the vectorizer; over loaded
// values it is a plain maxsd.
ENZO_HOT void acoustic_guess(std::ptrdiff_t lo, std::ptrdiff_t hi,
                             const double* __restrict rho_l,
                             const double* __restrict rho_r,
                             const double* __restrict u_l,
                             const double* __restrict u_r,
                             const double* __restrict p_l,
                             const double* __restrict p_r,
                             double* __restrict cl_out,
                             double* __restrict cr_out,
                             double* __restrict pstar_out, double gamma) {
  for (std::ptrdiff_t e = lo; e < hi; ++e) {
    const double rl0 = rho_l[e], rr0 = rho_r[e];
    const double pl0 = p_l[e], pr0 = p_r[e];
    const double rl = std::max(rl0, kTiny);
    const double rr = std::max(rr0, kTiny);
    const double pl = std::max(pl0, kTiny);
    const double pr = std::max(pr0, kTiny);
    const double cl = std::sqrt(gamma * pl / rl);
    const double cr = std::sqrt(gamma * pr / rr);
    cl_out[e] = cl;
    cr_out[e] = cr;
    const double wl0 = rl * cl, wr0 = rr * cr;
    const double pstar =
        (wr0 * pl + wl0 * pr - wl0 * wr0 * (u_r[e] - u_l[e])) / (wl0 + wr0);
    pstar_out[e] = std::max(pstar, 1e-12 * std::min(pl, pr));
  }
}

// ---- phase B: the Newton loop, row by row --------------------------------
// Newton step on f(p) = ul*(p) - ur*(p); df/dp ≈ -(1/wl + 1/wr) with the
// CW84 secant-like correction using the current wave speeds.
//
// The two-shock Lagrangian wave speed W(p*), with the (γ+1)/(2γ)(p*/p − 1)
// bracket multiplied through:  W² = γpρ + ½(γ+1)ρ(p* − p).  The expanded
// form needs no division, so each sweep is branch-free and element-wise.
// W² is floored for strong rarefactions; the absolute 1e-250 term keeps W
// normal (and wl·wr/(wl+wr) well defined) even when γpρ is denormal near
// vacuum.  The terms that do not depend on p* are formed once per row, with
// the same operations a sweep would apply.
//
// Stored wl/wr/ustar are the wave speeds and star velocity evaluated at the
// sweep's *incoming* p*.
//
// Stopping rule: the sweep is a fixed map p_S = F(p_{S-1}) of each face's
// own inputs, and it also fixes what the sweep stores.  After sweep S a
// face whose p_S equals p_{S-1} bit for bit sits on a fixed point, so every
// later sweep stores the same p*, u*, W_L and W_R.  A face with S even and
// p_S == p_{S-2} sits on a 2-cycle: sweep 12 (even) leaves p_S, computed
// from p_{S-1} as sweep S did.  Once every face of a row satisfies one of
// the two, the row holds what 12 sweeps leave, and it stops.

/// One row's Newton state: the p*-independent terms and the p* history.
struct NewtonRow {
  double pl[kB], pr[kB], gpr_l[kB], gpr_r[kB], hl[kB], hr[kB];
  double wfl[kB], wfr[kB], pfloor[kB];
  double p[kB], p1[kB];  // p_S and p_{S-1} after sweep S
};

ENZO_HOT void newton_setup(const double* __restrict rho_l,
                           const double* __restrict rho_r,
                           const double* __restrict p_l,
                           const double* __restrict p_r,
                           const double* __restrict pstar, NewtonRow& row,
                           double gamma) {
  const double half_gp1 = 0.5 * (gamma + 1.0);
  for (int b = 0; b < kB; ++b) {
    const double rl0 = rho_l[b], rr0 = rho_r[b];
    const double pl0 = p_l[b], pr0 = p_r[b];
    const double rl = std::max(rl0, kTiny), rr = std::max(rr0, kTiny);
    const double l = std::max(pl0, kTiny), r = std::max(pr0, kTiny);
    const double gl = gamma * l * rl, gr = gamma * r * rr;
    row.pl[b] = l;
    row.pr[b] = r;
    row.gpr_l[b] = gl;
    row.gpr_r[b] = gr;
    row.hl[b] = half_gp1 * rl;
    row.hr[b] = half_gp1 * rr;
    row.wfl[b] = std::max(1e-16 * gl, 1e-250);
    row.wfr[b] = std::max(1e-16 * gr, 1e-250);
    row.pfloor[b] = 1e-12 * std::min(l, r);
    // Sweep 1 compares against p_{-1} (masked: 1 is odd), so the history
    // starts defined.
    row.p[b] = row.p1[b] = pstar[b];
  }
}

/// Sweep S of one row.  Returns 0 when every face may stop after it.  p*
/// stays positive (it is floored at 1e-12 of a positive pressure), so ==
/// on doubles is bit-for-bit equality there, and a NaN, which equals
/// nothing, runs all 12 sweeps.
ENZO_HOT int newton_sweep(const double* __restrict u_l,
                          const double* __restrict u_r, NewtonRow& row,
                          double* __restrict ustar, double* __restrict wl_out,
                          double* __restrict wr_out, int sweep) {
  const bool even = (sweep & 1) == 0;
  int moving = 0;
  for (int b = 0; b < kB; ++b) {
    const double ps = row.p[b], pm = row.p1[b];
    const double pl = row.pl[b], pr = row.pr[b];
    const double wl =
        std::sqrt(std::max(row.gpr_l[b] + row.hl[b] * (ps - pl), row.wfl[b]));
    const double wr =
        std::sqrt(std::max(row.gpr_r[b] + row.hr[b] * (ps - pr), row.wfr[b]));
    const double ul_star = u_l[b] - (ps - pl) / wl;
    const double ur_star = u_r[b] + (ps - pr) / wr;
    const double dp = (ul_star - ur_star) * (wl * wr) / (wl + wr);
    const double next = std::max(ps + dp, row.pfloor[b]);
    row.p1[b] = ps;
    row.p[b] = next;
    ustar[b] = 0.5 * (ul_star + ur_star);
    wl_out[b] = wl;
    wr_out[b] = wr;
    const bool fixed = next == ps;
    const bool cycle = even & (next == pm);
    moving |= static_cast<int>(!(fixed | cycle));
  }
  return moving;
}

// Rows run in groups: a sweep of one row is a chain of two square roots
// and three divisions, so the rows of a group, which share no data, sweep
// side by side and overlap in the pipeline.  A row leaves its group's
// rotation as soon as it may stop, so it runs exactly its own sweeps.
constexpr int kGroup = 4;

ENZO_HOT std::uint64_t newton_rows(int lo, int hi, const RiemannBatch& b,
                                   double gamma) {
  std::uint64_t sweeps = 0;
  NewtonRow rows[kGroup];
  int live[kGroup];
  for (int g0 = lo; g0 <= hi; g0 += kGroup) {
    const int n = std::min(kGroup, hi - g0 + 1);
    for (int k = 0; k < n; ++k) {
      const std::ptrdiff_t e = static_cast<std::ptrdiff_t>(g0 + k) * kB;
      newton_setup(b.rho_l + e, b.rho_r + e, b.p_l + e, b.p_r + e,
                   b.pstar + e, rows[k], gamma);
      live[k] = k;
    }
    int nlive = n, sweep = 0;
    while (nlive > 0 && sweep < kNewtonSweeps) {
      ++sweep;
      int still = 0;
      for (int k = 0; k < nlive; ++k) {
        const int r = live[k];
        const std::ptrdiff_t e = static_cast<std::ptrdiff_t>(g0 + r) * kB;
        if (newton_sweep(b.u_l + e, b.u_r + e, rows[r], b.ustar + e, b.wl + e,
                         b.wr + e, sweep) != 0)
          live[still++] = r;
        else
          sweeps += static_cast<std::uint64_t>(sweep);
      }
      nlive = still;
    }
    sweeps += static_cast<std::uint64_t>(nlive) * kNewtonSweeps;
    for (int k = 0; k < n; ++k) {
      double* __restrict out =
          b.pstar + static_cast<std::ptrdiff_t>(g0 + k) * kB;
      for (int l = 0; l < kB; ++l) out[l] = rows[k].p[l];
    }
  }
  return sweeps;
}

/// out[b] = pow(x[b], y) on the lanes that read it, else 1.  pow(1, y) is
/// exactly 1 for every y, so a lane with x == 1 needs no call either.  The
/// lanes to call are listed first, branch-free, so the call loop does not
/// mispredict lane by lane.
ENZO_HOT void pow_where(const int* __restrict need,
                        const double* __restrict x, double y,
                        double* __restrict out) {
  int lanes[kB];
  int m = 0;
  for (int b = 0; b < kB; ++b) {
    out[b] = 1.0;
    lanes[m] = b;
    m += static_cast<int>((need[b] != 0) & (x[b] != 1.0));
  }
  // enzo-lint: allow(hotpath-transcendental) rarefaction lanes only; data-dependent, cannot batch
  for (int k = 0; k < m; ++k) out[lanes[k]] = std::pow(x[lanes[k]], y);
}

// ---- phase C: sample one row at ξ = 0 (the cell face) --------------------
// One mirrored code path: the ustar < 0 (right-family) case is the exact
// reflection u → −u of the left-family one, so the sampled side is loaded
// with sgn-mirrored velocities and the result mirrored back.  Negation is
// exact in IEEE arithmetic, so this is identical to writing both sides
// out.  Every branch of the per-face sampler is a lane select over values
// computed for all lanes; only pow waits for the branch (pow_where).
ENZO_HOT void sample_row(const double* __restrict rho_l,
                         const double* __restrict rho_r,
                         const double* __restrict u_l,
                         const double* __restrict u_r,
                         const double* __restrict p_l,
                         const double* __restrict p_r,
                         const double* __restrict cl,
                         const double* __restrict cr,
                         const double* __restrict wl,
                         const double* __restrict wr,
                         const double* __restrict pstar,
                         const double* __restrict ustar,
                         double* __restrict rho_out, double* __restrict u_out,
                         double* __restrict p_out, double gamma) {
  const double gp1 = gamma + 1.0, gm1 = gamma - 1.0;
  double sgn[kB], rho0[kB], p0[kB], u0[kB], c0[kB], w0[kB], usm[kB];
  double ratio[kB], pw[kB], rho_star[kB], uf[kB], fan_base[kB];
  double fan_rho[kB], fan_p[kB];
  // Int flags combined with & rather than &&: GCC 12 keeps a loop with
  // short-circuit control flow or bool selects scalar.
  int star[kB], fan[kB];
  for (int b = 0; b < kB; ++b) {
    const double ps = pstar[b], us = ustar[b];
    const bool left = us >= 0.0;
    const double s = left ? 1.0 : -1.0;
    const double rl = rho_l[b], rr = rho_r[b], pl = p_l[b], pr = p_r[b];
    const double ul = u_l[b], ur = u_r[b], cll = cl[b], crr = cr[b];
    const double wll = wl[b], wrr = wr[b];
    const double r0 = std::max(left ? rl : rr, kTiny);
    const double q0 = std::max(left ? pl : pr, kTiny);
    const double v0 = s * (left ? ul : ur);
    const double a0 = left ? cll : crr;
    sgn[b] = s;
    rho0[b] = r0;
    p0[b] = q0;
    u0[b] = v0;
    c0[b] = a0;
    w0[b] = left ? wll : wrr;
    usm[b] = s * us;
    // Rarefaction whose head has passed the face: ρ* is read.
    const double head = v0 - a0;
    star[b] = static_cast<int>(!(ps > q0) & !(head >= 0.0));
    ratio[b] = ps / q0;
  }
  pow_where(star, ratio, 1.0 / gamma, pw);
  for (int b = 0; b < kB; ++b) {
    const double rs = rho0[b] * pw[b];
    const double c_star = std::sqrt(gamma * pstar[b] / rs);
    const double tail = usm[b] - c_star;
    const double f = 2.0 / gp1 * (c0[b] + 0.5 * gm1 * u0[b]);
    // Inside the fan: at ξ=0, u = c; guard against slightly negative
    // values from the approximate star state (near-vacuum inputs).
    const double cf = std::max(f, 1e-8 * c0[b]);
    rho_star[b] = rs;
    uf[b] = f;
    fan_base[b] = cf / c0[b];
    fan[b] = static_cast<int>((star[b] != 0) & !(tail <= 0.0));
  }
  pow_where(fan, fan_base, 2.0 / gm1, fan_rho);
  pow_where(fan, fan_base, 2.0 * gamma / gm1, fan_p);
  for (int b = 0; b < kB; ++b) {
    const double ps = pstar[b], r0 = rho0[b], q0 = p0[b], v0 = u0[b];
    const double um = usm[b], w = w0[b];
    // Shock on the sampled side, speed S = u0 - W0/ρ0 (mirrored frame).
    const bool ahead = v0 - w / r0 >= 0.0;
    const double rho_shocked = std::max(
        1.0 / (1.0 / r0 - (ps - q0) / (w * w)), 1e-12 * r0);
    const double sh_rho = ahead ? r0 : rho_shocked;
    const double sh_u = ahead ? v0 : um;
    const double sh_p = ahead ? q0 : ps;
    // Rarefaction: head u0 - c0, tail u* - c*.
    const bool in_star = star[b] != 0, in_fan = fan[b] != 0;
    const double ra_rho =
        in_star ? (in_fan ? r0 * fan_rho[b] : rho_star[b]) : r0;
    const double ra_u = in_star ? (in_fan ? std::max(uf[b], 0.0) : um) : v0;
    const double ra_p = in_star ? (in_fan ? q0 * fan_p[b] : ps) : q0;
    const bool shock = ps > q0;
    rho_out[b] = std::max(shock ? sh_rho : ra_rho, kTiny);
    u_out[b] = sgn[b] * (shock ? sh_u : ra_u);
    p_out[b] = std::max(shock ? sh_p : ra_p, kTiny);
  }
}

}  // namespace

ENZO_HOT std::uint64_t riemann_two_shock_batch(int lo, int hi,
                                               const RiemannBatch& b,
                                               double gamma) {
  acoustic_guess(static_cast<std::ptrdiff_t>(lo) * kB,
                 static_cast<std::ptrdiff_t>(hi + 1) * kB, b.rho_l, b.rho_r,
                 b.u_l, b.u_r, b.p_l, b.p_r, b.cl, b.cr, b.pstar, gamma);
  const std::uint64_t sweeps = newton_rows(lo, hi, b, gamma);
  for (int f = lo; f <= hi; ++f) {
    const std::ptrdiff_t e = static_cast<std::ptrdiff_t>(f) * kB;
    sample_row(b.rho_l + e, b.rho_r + e, b.u_l + e, b.u_r + e, b.p_l + e,
               b.p_r + e, b.cl + e, b.cr + e, b.wl + e, b.wr + e,
               b.pstar + e, b.ustar + e, b.rho + e, b.u + e, b.p + e, gamma);
  }
  return sweeps;
}

RiemannState riemann_two_shock(const RiemannInput& in, double gamma) {
  double lanes[15][kB];
  for (int b = 0; b < kB; ++b) {
    lanes[0][b] = in.rho_l;
    lanes[1][b] = in.u_l;
    lanes[2][b] = in.p_l;
    lanes[3][b] = in.rho_r;
    lanes[4][b] = in.u_r;
    lanes[5][b] = in.p_r;
  }
  const RiemannBatch rb{lanes[0], lanes[1],  lanes[2],  lanes[3],  lanes[4],
                        lanes[5], lanes[6],  lanes[7],  lanes[8],  lanes[9],
                        lanes[10], lanes[11], lanes[12], lanes[13], lanes[14]};
  riemann_two_shock_batch(0, 0, rb, gamma);
  return {lanes[6][0], lanes[7][0], lanes[8][0], lanes[10][0] >= 0.0,
          lanes[9][0], lanes[10][0]};
}

}  // namespace enzo::hydro
