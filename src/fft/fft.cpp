#include "fft/fft.hpp"

#include <cmath>
#include <memory>

#include "util/constants.hpp"
#include "util/error.hpp"
#include "util/flops.hpp"

namespace enzo::fft {

namespace detail {

// Twiddle/bit-reversal tables are cached per transform length; root grids
// use a handful of sizes per run so this is a clean win.  Entries are
// heap-allocated individually: the cache vector may reallocate when a new
// length is planned, and references returned earlier must survive that.
const Plan& plan_for(int n) {
  thread_local std::vector<std::unique_ptr<Plan>> cache;
  for (const auto& p : cache)
    if (p->n == n) return *p;
  auto p = std::make_unique<Plan>();
  p->n = n;
  p->bitrev.resize(n);
  int log2n = 0;
  while ((1 << log2n) < n) ++log2n;
  for (int i = 0; i < n; ++i) {
    int r = 0;
    for (int b = 0; b < log2n; ++b)
      if (i & (1 << b)) r |= 1 << (log2n - 1 - b);
    p->bitrev[i] = r;
  }
  p->w.resize(n / 2);
  for (int k = 0; k < n / 2; ++k) {
    const double ang = -constants::kTwoPi * k / n;
    p->w[k] = cplx(std::cos(ang), std::sin(ang));
  }
  cache.push_back(std::move(p));
  return *cache.back();
}

}  // namespace detail

void fft_inplace(cplx* data, int n, bool inverse) {
  ENZO_REQUIRE(is_pow2(n), "fft length must be a power of two");
  if (n == 1) return;
  const detail::Plan& p = detail::plan_for(n);
  for (int i = 0; i < n; ++i) {
    const int j = p.bitrev[i];
    if (i < j) std::swap(data[i], data[j]);
  }
  for (int len = 2; len <= n; len <<= 1) {
    const int half = len >> 1;
    const int step = n / len;
    for (int i = 0; i < n; i += len) {
      for (int k = 0; k < half; ++k) {
        cplx w = p.w[k * step];
        if (inverse) w = std::conj(w);
        const cplx u = data[i + k];
        const cplx t = w * data[i + k + half];
        data[i + k] = u + t;
        data[i + k + half] = u - t;
      }
    }
  }
}

void fft(std::vector<cplx>& v, bool inverse) {
  fft_inplace(v.data(), static_cast<int>(v.size()), inverse);
  if (inverse) {
    const double norm = 1.0 / static_cast<double>(v.size());
    for (cplx& c : v) c *= norm;
  }
}

void fft3(util::ArrayView3<cplx> a, bool inverse) {
  const int nx = a.nx(), ny = a.ny(), nz = a.nz();
  for (int n : {nx, ny, nz})
    ENZO_REQUIRE(n == 1 || is_pow2(n), "fft3 extents must be powers of two");

  std::vector<cplx> pencil;
  // x pencils (stride 1).
  if (nx > 1) {
    for (int k = 0; k < nz; ++k)
      for (int j = 0; j < ny; ++j) fft_inplace(a.row(0, nx, j, k), nx, inverse);
  }
  // y pencils.
  if (ny > 1) {
    pencil.resize(ny);
    for (int k = 0; k < nz; ++k)
      for (int i = 0; i < nx; ++i) {
        for (int j = 0; j < ny; ++j) pencil[j] = a(i, j, k);
        fft_inplace(pencil.data(), ny, inverse);
        for (int j = 0; j < ny; ++j) a(i, j, k) = pencil[j];
      }
  }
  // z pencils.
  if (nz > 1) {
    pencil.resize(nz);
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i) {
        for (int k = 0; k < nz; ++k) pencil[k] = a(i, j, k);
        fft_inplace(pencil.data(), nz, inverse);
        for (int k = 0; k < nz; ++k) a(i, j, k) = pencil[k];
      }
  }
  if (inverse) {
    const double norm =
        1.0 / (static_cast<double>(nx) * static_cast<double>(ny) * nz);
    for (cplx& c : a) c *= norm;
  }
  int log2n = 0;
  for (std::size_t t = a.size(); t > 1; t >>= 1) ++log2n;
  static util::ComponentFlops flops("fft");
  flops.add(util::flop_cost::kFftPerPointLog2 * a.size() * log2n);
}

void fft3_real(util::ArrayView3<const double> a, util::ArrayView3<cplx> out) {
  ENZO_REQUIRE(out.same_shape(a), "fft3_real shape mismatch");
  for (std::size_t n = 0; n < a.size(); ++n) out.data()[n] = a.data()[n];
  fft3(out, /*inverse=*/false);
}

void ifft3_real(util::ArrayView3<cplx> spec, util::ArrayView3<double> out) {
  ENZO_REQUIRE(out.same_shape(spec), "ifft3_real shape mismatch");
  fft3(spec, /*inverse=*/true);
  for (std::size_t n = 0; n < out.size(); ++n)
    out.data()[n] = spec.data()[n].real();
}

}  // namespace enzo::fft
