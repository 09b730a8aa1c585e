#pragma once
// Radix-2 FFT used by the root-grid Poisson solver and the Gaussian random
// field initial-condition generator.
//
// The paper solves Poisson's equation on the (periodic) root grid with an
// FFT (§3.3).  Root-grid sizes in cosmology are powers of two, so an
// iterative radix-2 Cooley–Tukey transform is all that is required; we
// implement it from scratch (no external FFT dependency) with a precomputed
// bit-reversal permutation and twiddle tables per size.

#include <complex>
#include <vector>

#include "util/array3.hpp"

namespace enzo::fft {

using cplx = std::complex<double>;

/// True if n is a positive power of two.
constexpr bool is_pow2(int n) { return n > 0 && (n & (n - 1)) == 0; }

namespace detail {

/// Twiddle/bit-reversal tables for one transform length.
struct Plan {
  int n = 0;
  std::vector<int> bitrev;
  std::vector<cplx> w;  // forward twiddles e^{-2 pi i k / n}, k < n/2
};

/// Per-thread plan cache keyed by length.  Returned references stay valid
/// for the thread's lifetime even as more lengths are planned: entries are
/// individually heap-allocated, so growing the cache never moves a Plan (a
/// previous version stored Plans inline in the vector and handed out
/// references that dangled on reallocation).  Exposed for the regression
/// test; solver code calls it through fft_inplace.
const Plan& plan_for(int n);

}  // namespace detail

/// In-place complex FFT of length n (power of two).  inverse=true applies the
/// conjugate transform *without* the 1/n normalization; callers normalize.
void fft_inplace(cplx* data, int n, bool inverse);

/// Convenience: forward/inverse transform of a vector (inverse normalizes).
void fft(std::vector<cplx>& v, bool inverse);

/// 3-d in-place complex FFT over a view (each extent a power of two;
/// extents of 1 are skipped, so 1-d/2-d arrays work transparently).
/// inverse=true applies the conjugate transform and divides by nx*ny*nz.
void fft3(util::ArrayView3<cplx> a, bool inverse);

/// Forward transform of a real field into its full complex spectrum `out`
/// (same shape).
void fft3_real(util::ArrayView3<const double> a, util::ArrayView3<cplx> out);

/// Inverse transform of `spec` in place, writing its real part to `out`
/// (same shape); `spec` is left holding the complex inverse.
void ifft3_real(util::ArrayView3<cplx> spec, util::ArrayView3<double> out);

/// Wavenumber index helper: FFT bin m of size n maps to signed frequency
/// m <= n/2 ? m : m - n (units of fundamental 2*pi/L handled by caller).
constexpr int freq_index(int m, int n) { return m <= n / 2 ? m : m - n; }

}  // namespace enzo::fft
