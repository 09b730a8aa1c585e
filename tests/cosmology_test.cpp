// Cosmology substrate tests: FRW background against Einstein–de Sitter
// closed forms, power-spectrum normalization, Gaussian-random-field
// statistics, and the nested-mode consistency property that the paper's
// restart-with-static-subgrids trick depends on (§4).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "cosmology/frw.hpp"
#include "cosmology/grf.hpp"
#include "cosmology/power_spectrum.hpp"
#include "cosmology/units.hpp"
#include "fft/fft.hpp"
#include "util/constants.hpp"

namespace ec = enzo::cosmology;
namespace cn = enzo::constants;

namespace {
ec::Frw eds() {
  ec::FrwParameters p;
  p.hubble = 0.5;
  p.omega_matter = 1.0;
  p.omega_lambda = 0.0;
  return ec::Frw(p);
}
}  // namespace

TEST(Frw, EdsTimeOfA) {
  // Einstein–de Sitter: t(a) = (2 / 3H0) a^{3/2}.
  ec::Frw f = eds();
  const double h0 = f.hubble0();
  for (double a : {0.01, 0.05, 0.25, 1.0}) {
    const double expected = 2.0 / (3.0 * h0) * std::pow(a, 1.5);
    EXPECT_NEAR(f.time_of_a(a) / expected, 1.0, 1e-6) << "a=" << a;
  }
}

TEST(Frw, AOfTimeInverts) {
  ec::Frw f = eds();
  for (double a : {0.02, 0.047, 0.3, 0.9}) {
    const double t = f.time_of_a(a);
    EXPECT_NEAR(f.a_of_time(t), a, 1e-8 * a);
  }
}

TEST(Frw, EdsGrowthFactorIsA) {
  ec::Frw f = eds();
  for (double a : {0.05, 0.2, 0.5}) {
    EXPECT_NEAR(f.growth_factor(a) / a, 1.0, 1e-3) << "a=" << a;
    EXPECT_NEAR(f.growth_rate(a), 1.0, 1e-3);
  }
}

TEST(Frw, LambdaCdmSlowerGrowth) {
  ec::FrwParameters p;
  p.hubble = 0.7;
  p.omega_matter = 0.3;
  p.omega_lambda = 0.7;
  ec::Frw f(p);
  // Growth is suppressed relative to EdS at late times: D(0.5) > 0.5.
  EXPECT_GT(f.growth_factor(0.5), 0.5);
  // f = dlnD/dlna ≈ Ω_m(a)^0.55 today ≈ 0.51.
  EXPECT_NEAR(f.growth_rate(1.0), std::pow(0.3, 0.55), 0.03);
}

TEST(Frw, HubbleAndDensities) {
  ec::Frw f = eds();
  EXPECT_NEAR(f.big_e(1.0), 1.0, 1e-12);
  EXPECT_NEAR(f.big_e(0.25), std::pow(0.25, -1.5), 1e-9);
  // Comoving matter density for Ω_m=1, h=0.5: ρ_crit0 h².
  EXPECT_NEAR(f.comoving_matter_density(),
              cn::kRhoCrit0 * 0.25, 1e-6 * cn::kRhoCrit0);
  EXPECT_NEAR(f.mean_matter_density(0.5) / f.comoving_matter_density(), 8.0,
              1e-9);
}

TEST(Frw, CmbTemperatureScales) {
  EXPECT_NEAR(ec::Frw::cmb_temperature(1.0), 2.725, 1e-12);
  EXPECT_NEAR(ec::Frw::cmb_temperature(1.0 / 20.0), 2.725 * 20.0, 1e-9);
}

TEST(PowerSpectrum, Sigma8Normalization) {
  ec::Frw f = eds();
  ec::PowerSpectrum ps(f);
  EXPECT_NEAR(ps.sigma(8.0 / 0.5), f.params().sigma8, 1e-6);
}

TEST(PowerSpectrum, TransferLimits) {
  ec::Frw f = eds();
  ec::PowerSpectrum ps(f);
  EXPECT_NEAR(ps.transfer(1e-8), 1.0, 1e-4);     // large scales untouched
  EXPECT_LT(ps.transfer(100.0), 1e-3);            // strong small-scale damping
  // Monotonic decline.
  double prev = 2.0;
  for (double k = 1e-4; k < 1e3; k *= 3.0) {
    const double t = ps.transfer(k);
    EXPECT_LT(t, prev);
    prev = t;
  }
}

TEST(PowerSpectrum, SmallScaleLogDivergence) {
  // §2.1: rms fluctuations diverge logarithmically toward small mass scales —
  // i.e. σ(R) keeps growing (slowly) as R shrinks.
  ec::Frw f = eds();
  ec::PowerSpectrum ps(f);
  const double s1 = ps.sigma(1.0);
  const double s01 = ps.sigma(0.1);
  const double s001 = ps.sigma(0.01);
  EXPECT_GT(s01, s1);
  EXPECT_GT(s001, s01);
  // ... but much slower than a power law: ratio of ratios near 1.
  EXPECT_LT(s001 / s01, 2.0 * s01 / s1);
}

TEST(PowerSpectrum, ZeroAndNegativeK) {
  ec::Frw f = eds();
  ec::PowerSpectrum ps(f);
  EXPECT_DOUBLE_EQ(ps(0.0), 0.0);
  EXPECT_DOUBLE_EQ(ps(-1.0), 0.0);
}

TEST(CodeUnits, CosmologicalConsistency) {
  ec::Frw f = eds();
  const double box = 256.0 * cn::kKpc;  // the paper's box
  ec::CodeUnits u = ec::CodeUnits::cosmological(f, box);
  EXPECT_TRUE(u.comoving);
  EXPECT_DOUBLE_EQ(u.grav_const_code, 1.0);
  // t_unit = 1/sqrt(4πG ρ̄): check the defining identity.
  EXPECT_NEAR(4.0 * M_PI * cn::kGravity * u.density_cgs * u.time_s * u.time_s,
              1.0, 1e-12);
  // Proper density at a: comoving / a³.
  EXPECT_NEAR(u.proper_density(1.0, 0.5), u.density_cgs * 8.0, 1e-6);
  // Mass unit is density × volume.
  EXPECT_NEAR(u.mass_g(), u.density_cgs * box * box * box, 1e-3 * u.mass_g());
}

TEST(CodeUnits, TemperatureFactor) {
  ec::CodeUnits u = ec::CodeUnits::simple();
  u.length_cm = 1e21;
  u.time_s = 1e13;
  // T = tf * (γ-1) μ e_code; for e s.t. (γ-1) μ e v² = kT/m_H it's an identity.
  const double v = u.velocity_cgs();
  EXPECT_NEAR(u.temperature_factor(),
              cn::kHydrogenMass * v * v / cn::kBoltzmann, 1e-6);
}

// ---- Gaussian random field ---------------------------------------------------

TEST(Grf, FieldHasZeroMeanAndExpectedVariance) {
  ec::Frw f = eds();
  ec::PowerSpectrum ps(f);
  const double box = 4.0 * cn::kMpc;  // large enough for decent power
  ec::InitialConditionsGenerator gen(f, ps, box, 2024);
  const int n = 32;
  auto out = gen.realize(n);
  double mean = out.delta.view().sum() / out.delta.size();
  EXPECT_NEAR(mean, 0.0, 1e-10);
  double var = 0;
  for (double d : out.delta.view()) var += d * d;
  var /= out.delta.size();
  const double expected = gen.expected_sigma(n);
  // One realization of ~32³ modes: few-percent accuracy expected.
  EXPECT_NEAR(std::sqrt(var) / expected, 1.0, 0.10);
}

TEST(Grf, DeterministicAcrossCalls) {
  ec::Frw f = eds();
  ec::PowerSpectrum ps(f);
  ec::InitialConditionsGenerator gen(f, ps, cn::kMpc, 7);
  auto a = gen.realize(16);
  auto b = gen.realize(16);
  for (std::size_t i = 0; i < a.delta.size(); ++i)
    EXPECT_DOUBLE_EQ(a.delta.data()[i], b.delta.data()[i]);
}

TEST(Grf, SeedChangesField) {
  ec::Frw f = eds();
  ec::PowerSpectrum ps(f);
  ec::InitialConditionsGenerator g1(f, ps, cn::kMpc, 7);
  ec::InitialConditionsGenerator g2(f, ps, cn::kMpc, 8);
  auto a = g1.realize(16);
  auto b = g2.realize(16);
  double diff = 0;
  for (std::size_t i = 0; i < a.delta.size(); ++i)
    diff += std::abs(a.delta.data()[i] - b.delta.data()[i]);
  EXPECT_GT(diff, 0.0);
}

TEST(Grf, ModeConsistencyAcrossResolutions) {
  // The §4 restart trick: a higher-resolution realization of the same box
  // must contain the same large-scale modes.  Realize at 16 and 32; the
  // shared low-k spectral coefficients must match, so the 32³ field averaged
  // down to 16³ correlates strongly with the 16³ field.
  ec::Frw f = eds();
  ec::PowerSpectrum ps(f);
  ec::InitialConditionsGenerator gen(f, ps, 4.0 * cn::kMpc, 99);
  auto lo = gen.realize(16);
  auto hi = gen.realize(32);
  // Exact invariant: the Fourier coefficients of every mode representable at
  // both resolutions (|f| < 8, excluding Nyquist planes) agree.
  using Spectrum = enzo::util::ArrayView3<enzo::fft::cplx>;
  std::vector<enzo::fft::cplx> lo_cells(lo.delta.size());
  std::vector<enzo::fft::cplx> hi_cells(hi.delta.size());
  const Spectrum lo_k(lo_cells.data(), 16, 16, 16);
  const Spectrum hi_k(hi_cells.data(), 32, 32, 32);
  enzo::fft::fft3_real(lo.delta.view(), lo_k);
  enzo::fft::fft3_real(hi.delta.view(), hi_k);
  const double n_lo = 16.0 * 16 * 16, n_hi = 32.0 * 32 * 32;
  int checked = 0;
  for (int kz = 0; kz < 16; ++kz)
    for (int ky = 0; ky < 16; ++ky)
      for (int kx = 0; kx < 16; ++kx) {
        const int fx = enzo::fft::freq_index(kx, 16);
        const int fy = enzo::fft::freq_index(ky, 16);
        const int fz = enzo::fft::freq_index(kz, 16);
        if (std::abs(fx) >= 8 || std::abs(fy) >= 8 || std::abs(fz) >= 8)
          continue;
        const auto cl = lo_k(kx, ky, kz) / n_lo;
        const auto ch = hi_k((fx + 32) % 32, (fy + 32) % 32, (fz + 32) % 32) /
                        n_hi;
        EXPECT_NEAR(cl.real(), ch.real(), 1e-10 + 1e-6 * std::abs(cl));
        EXPECT_NEAR(cl.imag(), ch.imag(), 1e-10 + 1e-6 * std::abs(cl));
        ++checked;
      }
  EXPECT_GT(checked, 3000);
  // And the real-space fields are strongly (not perfectly — extra small-scale
  // power) correlated after averaging down.
  enzo::util::Buffer3 down_buf(16, 16, 16);
  const auto down = down_buf.view();
  const auto lo_d = lo.delta.view();
  const auto hi_d = hi.delta.view();
  for (int k = 0; k < 32; ++k)
    for (int j = 0; j < 32; ++j)
      for (int i = 0; i < 32; ++i)
        down(i / 2, j / 2, k / 2) += hi_d(i, j, k) / 8.0;
  double num = 0, d1 = 0, d2 = 0;
  for (int k = 0; k < 16; ++k)
    for (int j = 0; j < 16; ++j)
      for (int i = 0; i < 16; ++i) {
        num += down(i, j, k) * lo_d(i, j, k);
        d1 += down(i, j, k) * down(i, j, k);
        d2 += lo_d(i, j, k) * lo_d(i, j, k);
      }
  EXPECT_GT(num / std::sqrt(d1 * d2), 0.8);
}

TEST(Grf, DisplacementDivergenceIsMinusDelta) {
  // δ = −∇·ψ at D = 1 (linear theory), tested spectrally via finite
  // differences on the realized fields.
  ec::Frw f = eds();
  ec::PowerSpectrum ps(f);
  const int n = 16;
  ec::InitialConditionsGenerator gen(f, ps, 8.0 * cn::kMpc, 13);
  auto out = gen.realize(n);
  const auto delta = out.delta.view();
  const double dx = 1.0 / n;  // code units
  double err = 0, norm = 0;
  for (int k = 0; k < n; ++k)
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i) {
        auto P = [&](const enzo::util::Buffer3& a, int ii, int jj, int kk) {
          return a.view()((ii + n) % n, (jj + n) % n, (kk + n) % n);
        };
        const double div =
            (P(out.psi[0], i + 1, j, k) - P(out.psi[0], i - 1, j, k) +
             P(out.psi[1], i, j + 1, k) - P(out.psi[1], i, j - 1, k) +
             P(out.psi[2], i, j, k + 1) - P(out.psi[2], i, j, k - 1)) /
            (2 * dx);
        err += std::pow(div + delta(i, j, k), 2);
        norm += std::pow(delta(i, j, k), 2);
      }
  // Central differences under-resolve the highest modes; demand the bulk.
  EXPECT_LT(std::sqrt(err / norm), 0.5);
}

TEST(Zeldovich, VelocityFactorEds) {
  // EdS: D = a, f = 1 → factor = a² H(a) t_unit.
  ec::Frw f = eds();
  ec::CodeUnits u = ec::CodeUnits::cosmological(f, 10 * cn::kMpc);
  const double a = 0.05;
  const double expected = a * a * f.hubble(a) * u.time_s;
  EXPECT_NEAR(ec::zeldovich_velocity_factor(f, u, a) / expected, 1.0, 5e-3);
}
