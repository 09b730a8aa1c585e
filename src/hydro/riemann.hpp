#pragma once
// Two-shock approximate Riemann solver (Colella & Woodward 1984), the flux
// engine under the PPM scheme.  Star-region pressure/velocity are found by
// Newton iteration on the Lagrangian wave-speed relations; the state at the
// interface (ξ = x/t = 0) is then sampled with correct shock/rarefaction
// structure on each side.
//
// The batch entry point works on rows of kBatch faces, one face from each
// pencil of a sweep batch: face lanes hold element (f, b) at f*kBatch + b.
// A row runs the Newton loop as one 8-wide lane loop per sweep and stops as
// soon as every face has reached a fixed point or a 2-cycle of p* that ends
// where 12 sweeps would (DESIGN §13), so the result is the 12-sweep result
// bit for bit.  The sampler is lane selects; glibc pow runs only on the
// lanes whose branch reads it.  The scalar API fills one row with a single
// problem and is kept for tests and diagnostics.

#include <cstdint>

namespace enzo::hydro {

/// Pencils per sweep batch, and faces per Riemann row.
inline constexpr int kBatch = 8;

struct RiemannInput {
  double rho_l, u_l, p_l;
  double rho_r, u_r, p_r;
};

struct RiemannState {
  double rho, u, p;
  bool left_of_contact;  ///< the sampled state came from the left family
  double pstar, ustar;   ///< converged star-region values
};

/// SoA lanes for rows of face Riemann problems.  Every lane holds kBatch
/// faces per row, element (f, b) at f*kBatch + b for rows f in the [lo, hi]
/// passed to the solver (the pencil batch's face indexing).  The caller owns
/// all storage; the workspace lanes are scratch the solver fully overwrites.
struct RiemannBatch {
  // Inputs (floored internally against vacuum; see riemann_two_shock_batch).
  const double *rho_l, *u_l, *p_l;
  const double *rho_r, *u_r, *p_r;
  // Outputs: the sampled ξ=0 state and the star velocity.
  double *rho, *u, *p;
  double *pstar, *ustar;
  // Workspace: sound speeds and Lagrangian wave speeds.
  double *cl, *cr, *wl, *wr;
};

/// Solve rows [lo, hi] (inclusive) and sample at ξ = 0.  Inputs are floored
/// at 1e-300 so near-vacuum states (strong expansion fans) cannot divide by
/// zero or NaN-poison the Newton iteration; outputs satisfy rho, p >= 1e-300
/// and finite u, consistent with the solver's eint >= 0 flooring.  Returns
/// the Newton sweeps run, summed over the rows (every face of a row runs its
/// row's count, at most 12).
std::uint64_t riemann_two_shock_batch(int lo, int hi, const RiemannBatch& b,
                                      double gamma);

/// Scalar convenience wrapper: one row with `in` in every lane.
RiemannState riemann_two_shock(const RiemannInput& in, double gamma);

}  // namespace enzo::hydro
