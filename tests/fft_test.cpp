// FFT substrate tests: round trips, agreement with a brute-force DFT,
// Parseval's theorem, and linearity — the properties the Poisson solver and
// the Gaussian-random-field generator rely on.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <thread>
#include <vector>

#include "exec/executor.hpp"
#include "fft/fft.hpp"
#include "util/array3.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ef = enzo::fft;
using ef::cplx;
using Spectrum = enzo::util::ArrayView3<cplx>;

namespace {
std::vector<cplx> brute_dft(const std::vector<cplx>& in, bool inverse) {
  const int n = static_cast<int>(in.size());
  std::vector<cplx> out(n);
  const double sgn = inverse ? 1.0 : -1.0;
  for (int k = 0; k < n; ++k) {
    cplx acc = 0;
    for (int j = 0; j < n; ++j) {
      const double ang = sgn * 2.0 * M_PI * k * j / n;
      acc += in[j] * cplx(std::cos(ang), std::sin(ang));
    }
    out[k] = acc;
  }
  return out;
}
}  // namespace

TEST(Fft, IsPow2) {
  EXPECT_TRUE(ef::is_pow2(1));
  EXPECT_TRUE(ef::is_pow2(64));
  EXPECT_FALSE(ef::is_pow2(0));
  EXPECT_FALSE(ef::is_pow2(3));
  EXPECT_FALSE(ef::is_pow2(-4));
  EXPECT_FALSE(ef::is_pow2(48));
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<cplx> v(6);
  EXPECT_THROW(ef::fft(v, false), enzo::Error);
}

TEST(Fft, DeltaFunctionTransformsToConstant) {
  std::vector<cplx> v(8, 0.0);
  v[0] = 1.0;
  ef::fft(v, false);
  for (const cplx& c : v) {
    EXPECT_NEAR(c.real(), 1.0, 1e-12);
    EXPECT_NEAR(c.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SingleModeLandsInSingleBin) {
  const int n = 32;
  std::vector<cplx> v(n);
  for (int j = 0; j < n; ++j)
    v[j] = std::cos(2.0 * M_PI * 3.0 * j / n);
  ef::fft(v, false);
  for (int k = 0; k < n; ++k) {
    const double expected = (k == 3 || k == n - 3) ? n / 2.0 : 0.0;
    EXPECT_NEAR(std::abs(v[k]), expected, 1e-9) << "bin " << k;
  }
}

class FftRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(FftRoundTrip, ForwardInverseIsIdentity) {
  const int n = GetParam();
  enzo::util::Rng rng(99 + n);
  std::vector<cplx> v(n), orig;
  for (cplx& c : v) c = cplx(rng.gaussian(), rng.gaussian());
  orig = v;
  ef::fft(v, false);
  ef::fft(v, true);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(v[i].real(), orig[i].real(), 1e-10);
    EXPECT_NEAR(v[i].imag(), orig[i].imag(), 1e-10);
  }
}

TEST_P(FftRoundTrip, MatchesBruteForceDft) {
  const int n = GetParam();
  if (n > 256) GTEST_SKIP() << "brute force too slow";
  enzo::util::Rng rng(5 + n);
  std::vector<cplx> v(n);
  for (cplx& c : v) c = cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
  auto ref = brute_dft(v, false);
  ef::fft(v, false);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(v[i].real(), ref[i].real(), 1e-9 * n);
    EXPECT_NEAR(v[i].imag(), ref[i].imag(), 1e-9 * n);
  }
}

TEST_P(FftRoundTrip, Parseval) {
  const int n = GetParam();
  enzo::util::Rng rng(17 + n);
  std::vector<cplx> v(n);
  double sum_x = 0;
  for (cplx& c : v) {
    c = cplx(rng.gaussian(), 0.0);
    sum_x += std::norm(c);
  }
  ef::fft(v, false);
  double sum_k = 0;
  for (const cplx& c : v) sum_k += std::norm(c);
  EXPECT_NEAR(sum_k / n, sum_x, 1e-8 * sum_x);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 256, 1024));

TEST(Fft3, RoundTrip3d) {
  enzo::util::Rng rng(31);
  std::vector<cplx> cells(8 * 4 * 16);
  for (cplx& c : cells) c = cplx(rng.gaussian(), rng.gaussian());
  const std::vector<cplx> orig = cells;
  const Spectrum a(cells.data(), 8, 4, 16);
  ef::fft3(a, false);
  ef::fft3(a, true);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_NEAR(cells[i].real(), orig[i].real(), 1e-10);
    EXPECT_NEAR(cells[i].imag(), orig[i].imag(), 1e-10);
  }
}

TEST(Fft3, DegenerateDimensionsActAs1d) {
  // nz == ny == 1: fft3 must match the 1-d transform.
  const int n = 16;
  enzo::util::Rng rng(77);
  std::vector<cplx> cells(n);
  const Spectrum a(cells.data(), n, 1, 1);
  std::vector<cplx> v(n);
  for (int i = 0; i < n; ++i) {
    v[i] = cplx(rng.uniform(-1, 1), 0.0);
    a(i, 0, 0) = v[i];
  }
  ef::fft3(a, false);
  ef::fft_inplace(v.data(), n, false);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(a(i, 0, 0).real(), v[i].real(), 1e-10);
    EXPECT_NEAR(a(i, 0, 0).imag(), v[i].imag(), 1e-10);
  }
}

TEST(Fft3, PlaneWaveSeparates) {
  const int n = 8;
  std::vector<cplx> cells(n * n * n);
  const Spectrum a(cells.data(), n, n, n);
  for (int k = 0; k < n; ++k)
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i) {
        const double phase = 2.0 * M_PI * (2.0 * i + 1.0 * j + 3.0 * k) / n;
        a(i, j, k) = cplx(std::cos(phase), std::sin(phase));
      }
  ef::fft3(a, false);
  const double total = n * n * n;
  for (int k = 0; k < n; ++k)
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i) {
        const double expected = (i == 2 && j == 1 && k == 3) ? total : 0.0;
        EXPECT_NEAR(std::abs(a(i, j, k)), expected, 1e-8);
      }
}

TEST(Fft3, RealTransformsRoundTrip) {
  enzo::util::Rng rng(3);
  enzo::util::Buffer3 f(8, 8, 8), back(8, 8, 8);
  for (double& v : f.view()) v = rng.gaussian();
  std::vector<cplx> cells(f.size());
  const Spectrum spec(cells.data(), 8, 8, 8);
  ef::fft3_real(f.view(), spec);
  ef::ifft3_real(spec, back.view());
  for (std::size_t i = 0; i < f.size(); ++i)
    EXPECT_NEAR(back.data()[i], f.data()[i], 1e-10);
  EXPECT_THROW(ef::fft3_real(f.view(), Spectrum(cells.data(), 8, 8, 4)),
               enzo::Error);
}

TEST(Fft3, LanesMatchSerialBitwise) {
  // Each axis pass splits over its pencils on the pool; every value must be
  // the serial transform's, forward and inverse, including a collapsed axis.
  enzo::exec::ThreadPoolExecutor pool(4);
  const int shapes[][3] = {{32, 32, 32}, {16, 8, 4}, {32, 1, 64}, {64, 32, 16}};
  for (const auto& sh : shapes) {
    enzo::util::Rng rng(13);
    std::vector<cplx> serial(static_cast<std::size_t>(sh[0]) * sh[1] * sh[2]);
    for (cplx& c : serial) c = cplx(rng.gaussian(), rng.gaussian());
    std::vector<cplx> pooled = serial;
    for (bool inverse : {false, true}) {
      ef::fft3(Spectrum(serial.data(), sh[0], sh[1], sh[2]), inverse);
      ef::fft3(Spectrum(pooled.data(), sh[0], sh[1], sh[2]), inverse, &pool);
      EXPECT_EQ(std::memcmp(serial.data(), pooled.data(),
                            serial.size() * sizeof(cplx)),
                0)
          << sh[0] << "x" << sh[1] << "x" << sh[2]
          << (inverse ? " inverse" : " forward");
    }
  }
}

TEST(Fft, FreqIndex) {
  EXPECT_EQ(ef::freq_index(0, 8), 0);
  EXPECT_EQ(ef::freq_index(3, 8), 3);
  EXPECT_EQ(ef::freq_index(4, 8), 4);   // Nyquist kept positive
  EXPECT_EQ(ef::freq_index(5, 8), -3);
  EXPECT_EQ(ef::freq_index(7, 8), -1);
}

TEST(Fft, LinearityProperty) {
  const int n = 64;
  enzo::util::Rng rng(12);
  std::vector<cplx> a(n), b(n), sum(n);
  for (int i = 0; i < n; ++i) {
    a[i] = cplx(rng.gaussian(), rng.gaussian());
    b[i] = cplx(rng.gaussian(), rng.gaussian());
    sum[i] = 2.0 * a[i] + 3.0 * b[i];
  }
  ef::fft(a, false);
  ef::fft(b, false);
  ef::fft(sum, false);
  for (int i = 0; i < n; ++i) {
    const cplx expect = 2.0 * a[i] + 3.0 * b[i];
    EXPECT_NEAR(sum[i].real(), expect.real(), 1e-8);
    EXPECT_NEAR(sum[i].imag(), expect.imag(), 1e-8);
  }
}

// ---- plan-cache lifetime -----------------------------------------------------

// Regression: plan_for used to return references into a thread_local
// std::vector<Plan>; planning additional lengths reallocated the vector and
// left previously returned references dangling (asan catches the stale read
// directly; without asan the corrupted twiddles break the round trip).
TEST(FftPlanCache, ReferencesSurviveCacheGrowth) {
  // New thread → fresh thread_local cache, so the test controls exactly
  // which lengths have been planned.
  std::thread([] {
    const ef::detail::Plan& p8 = ef::detail::plan_for(8);
    EXPECT_EQ(p8.n, 8);
    ASSERT_EQ(p8.bitrev.size(), 8u);
    ASSERT_EQ(p8.w.size(), 4u);
    const std::vector<int> bitrev8 = p8.bitrev;
    const std::vector<cplx> w8 = p8.w;
    // Plan enough distinct lengths to force several cache reallocations
    // while the p8 reference is still live.
    for (int n = 16; n <= 2048; n <<= 1) {
      const ef::detail::Plan& pn = ef::detail::plan_for(n);
      EXPECT_EQ(pn.n, n);
      // Interleave a transform of an already-planned length: fft_inplace
      // re-fetches its plan, and the held reference must still be intact.
      enzo::util::Rng rng(static_cast<std::uint64_t>(n));
      std::vector<cplx> v(8);
      for (cplx& c : v) c = cplx(rng.gaussian(), rng.gaussian());
      const std::vector<cplx> orig = v;
      ef::fft(v, false);
      ef::fft(v, true);
      for (int i = 0; i < 8; ++i) {
        EXPECT_NEAR(v[i].real(), orig[i].real(), 1e-12);
        EXPECT_NEAR(v[i].imag(), orig[i].imag(), 1e-12);
      }
      EXPECT_EQ(p8.n, 8);
      EXPECT_EQ(p8.bitrev, bitrev8);
      ASSERT_EQ(p8.w.size(), w8.size());
      for (std::size_t k = 0; k < w8.size(); ++k) {
        EXPECT_EQ(p8.w[k].real(), w8[k].real());
        EXPECT_EQ(p8.w[k].imag(), w8[k].imag());
      }
    }
    // Re-planning a known length returns the same object, not a copy.
    EXPECT_EQ(&ef::detail::plan_for(8), &p8);
  }).join();
}
