#include "cosmology/grf.hpp"

#include <array>
#include <cmath>
#include <vector>

#include "fft/fft.hpp"
#include "util/constants.hpp"
#include "util/error.hpp"

namespace enzo::cosmology {

namespace {

/// SplitMix64 hash step.
std::uint64_t mix(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Deterministic per-mode unit-variance complex Gaussian from the integer
/// mode vector (root-box fundamental units) and the run seed.  Hashing the
/// *physical* mode — not the lattice index — is what keeps realizations at
/// different effective resolutions mode-consistent (§4's nested-IC restart).
void mode_gaussians(std::uint64_t seed, int mx, int my, int mz, double& g1,
                    double& g2) {
  std::uint64_t h = seed;
  h = mix(h ^ static_cast<std::uint64_t>(static_cast<std::int64_t>(mx)));
  h = mix(h ^ static_cast<std::uint64_t>(static_cast<std::int64_t>(my)));
  h = mix(h ^ static_cast<std::uint64_t>(static_cast<std::int64_t>(mz)));
  const std::uint64_t u1 = mix(h);
  const std::uint64_t u2 = mix(u1);
  double x1 = static_cast<double>(u1 >> 11) * 0x1.0p-53;
  const double x2 = static_cast<double>(u2 >> 11) * 0x1.0p-53;
  if (x1 <= 1e-300) x1 = 1e-300;
  const double r = std::sqrt(-2.0 * std::log(x1));
  g1 = r * std::cos(constants::kTwoPi * x2);
  g2 = r * std::sin(constants::kTwoPi * x2);
}

}  // namespace

InitialConditionsGenerator::InitialConditionsGenerator(
    const Frw& frw, const PowerSpectrum& ps, double box_comoving_cm,
    std::uint64_t seed)
    : frw_(frw), ps_(ps), box_cm_(box_comoving_cm), seed_(seed) {
  ENZO_REQUIRE(box_cm_ > 0, "IC generator: box size must be positive");
}

GrfOutput InitialConditionsGenerator::realize(int n) const {
  ENZO_REQUIRE(fft::is_pow2(n), "IC lattice must be a power of two");
  // Modes are hashed by their index in root-box fundamental units, so the
  // mode sets shared by realizations at different n agree exactly.
  const double box_mpc = box_cm_ / constants::kMpc;
  const double v_box = box_mpc * box_mpc * box_mpc;
  const double kfund = constants::kTwoPi / box_mpc;  // Mpc^-1

  // Spectrum c is δ_k (c = 0) or ψ_k along axis c − 1.  Each is its own
  // allocation: freeing one 4n³ block would raise glibc's mmap and trim
  // thresholds to its size, and the heap would then hold on to more memory
  // for the rest of the run.
  const std::size_t cells = static_cast<std::size_t>(n) * n * n;
  std::array<std::vector<fft::cplx>, 4> spectra;
  for (std::vector<fft::cplx>& v : spectra) v.resize(cells);
  auto spectrum = [&](int c) {
    return util::ArrayView3<fft::cplx>(spectra[c].data(), n, n, n);
  };
  const util::ArrayView3<fft::cplx> dk = spectrum(0);
  const util::ArrayView3<fft::cplx> pk[3] = {spectrum(1), spectrum(2),
                                             spectrum(3)};

  for (int kz = 0; kz < n; ++kz) {
    const int fz = fft::freq_index(kz, n);
    for (int ky = 0; ky < n; ++ky) {
      const int fy = fft::freq_index(ky, n);
      for (int kx = 0; kx < n; ++kx) {
        const int fx = fft::freq_index(kx, n);
        if (fx == 0 && fy == 0 && fz == 0) continue;  // no DC power
        // Canonical representative for Hermitian symmetry: lexicographically
        // positive mode carries the random numbers; its mirror conjugates.
        bool flip = (fz < 0) || (fz == 0 && fy < 0) ||
                    (fz == 0 && fy == 0 && fx < 0);
        double g1, g2;
        mode_gaussians(seed_, flip ? -fx : fx, flip ? -fy : fy,
                       flip ? -fz : fz, g1, g2);
        // Self-conjugate lattice modes (Nyquist planes and the origin) must
        // be real for a real field.
        const bool self_conj = (fx == 0 || fx == -n / 2) &&
                               (fy == 0 || fy == -n / 2) &&
                               (fz == 0 || fz == -n / 2);
        fft::cplx g = self_conj ? fft::cplx(g1, 0.0)
                                : fft::cplx(g1, flip ? -g2 : g2) *
                                      (1.0 / std::sqrt(2.0));
        const double kxp = fx * kfund, kyp = fy * kfund, kzp = fz * kfund;
        const double kmag = std::sqrt(kxp * kxp + kyp * kyp + kzp * kzp);
        const fft::cplx delta_k = g * std::sqrt(ps_(kmag) / v_box);
        dk(kx, ky, kz) = delta_k;
        // Zel'dovich displacement: ψ_k = i k / k² δ_k (comoving Mpc),
        // converted to code (root-box) length units.
        const fft::cplx ik_over_k2 = fft::cplx(0.0, 1.0) / (kmag * kmag);
        const double to_code = 1.0 / box_mpc;
        pk[0](kx, ky, kz) = ik_over_k2 * kxp * delta_k * to_code;
        pk[1](kx, ky, kz) = ik_over_k2 * kyp * delta_k * to_code;
        pk[2](kx, ky, kz) = ik_over_k2 * kzp * delta_k * to_code;
      }
    }
  }
  // δ(x) = Σ_k δ_k e^{ikx}: the unnormalized inverse transform.
  GrfOutput out;
  util::Buffer3* const fields[4] = {&out.delta, &out.psi[0], &out.psi[1],
                                    &out.psi[2]};
  const double nn = static_cast<double>(n) * n * n;
  for (int c = 0; c < 4; ++c) {
    const util::ArrayView3<fft::cplx> spec = spectrum(c);
    fft::fft3(spec, /*inverse=*/true);
    fields[c]->resize(n, n, n);
    for (std::size_t i = 0; i < cells; ++i)
      fields[c]->data()[i] = spec.data()[i].real() * nn;
  }
  return out;
}

double InitialConditionsGenerator::expected_sigma(int n) const {
  // σ²_cell = Σ_{k≠0} P(k)/V over the lattice mode set (width = 1).
  const double box_mpc = box_cm_ / constants::kMpc;
  const double v = box_mpc * box_mpc * box_mpc;
  const double kfund = constants::kTwoPi / box_mpc;
  double sum = 0.0;
  for (int kz = 0; kz < n; ++kz) {
    const int fz = fft::freq_index(kz, n);
    for (int ky = 0; ky < n; ++ky) {
      const int fy = fft::freq_index(ky, n);
      for (int kx = 0; kx < n; ++kx) {
        const int fx = fft::freq_index(kx, n);
        if (fx == 0 && fy == 0 && fz == 0) continue;
        const double kmag =
            kfund * std::sqrt(double(fx) * fx + double(fy) * fy + double(fz) * fz);
        sum += ps_(kmag) / v;
      }
    }
  }
  return std::sqrt(sum);
}

double zeldovich_velocity_factor(const Frw& frw, const CodeUnits& units,
                                 double a) {
  // x(q,a) = q + D(a) ψ;  v_pec = a dx/dt · L = a ψ dD/dt (code length/s)
  //        = a ψ D(a) f(a) H(a).  In code velocity units (length_cm/time_s):
  const double d = frw.growth_factor(a);
  const double f = frw.growth_rate(a);
  const double h = frw.hubble(a);  // s^-1
  return a * d * f * h * units.time_s;
}

}  // namespace enzo::cosmology
