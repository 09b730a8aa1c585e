#include "chemistry/rates.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "util/annotations.hpp"
namespace enzo::chemistry {

namespace {
double clamp_T(double T) { return std::min(std::max(T, 1.0), 1e9); }

constexpr int idx(Coef c) { return static_cast<int>(c); }

// ---- the fits ----------------------------------------------------------------

// Galli & Palla (1998) low-density (n→0) H₂ cooling function, valid for
// 13 K < T < 10⁵ K, and the critical density above which level populations
// reach LTE (~10⁴ cm⁻³, weakly T-dependent).  The LTE cap makes the cooling
// time stop dropping at n ≳ n_cr (the quasi-hydrostatic phase of §4 depends
// on this saturation).
void h2_fit(double T_in, double& lambda_low, double& n_cr) {
  const double T = std::min(std::max(T_in, 13.0), 1e5);
  const double lt = std::log10(T);
  const double log_lambda = -103.0 + 97.59 * lt - 48.05 * lt * lt +
                            10.80 * lt * lt * lt - 0.9032 * lt * lt * lt * lt;
  lambda_low = std::pow(10.0, log_lambda);  // erg cm³/s
  n_cr = 1.0e4 * std::sqrt(T / 1000.0);
}

// HD cooling factor (simple low-T fit; subdominant to H₂ above ~150 K).
double hd_fit(double T) {
  if (T >= 2e4 || T <= 0.0) return 0.0;
  return 2.7e-26 * std::pow(T / 100.0, 1.4) * std::exp(-128.0 / T);
}

// Every tabulated coefficient's fit at one temperature, clamped to 1–1e9 K.
// The constant coefficients (k8, k10, k50, k52) and the deuterium aliases
// (k56 = k2, k57 = k1) are not tabulated.
void fit_coefficients(double T_in, double c[kNumCoefs]) {
  const double T = clamp_T(T_in);
  const double Tev = T * 8.617385e-5;  // K → eV
  const double lnTe = std::log(Tev);
  const double sqrtT = std::sqrt(T);
  const double T5 = std::sqrt(T / 1e5);
  // Cen (1992) recombination suppression pair, shared by k2, k6 and the
  // H⁺/He⁺⁺ recombination cooling.
  const double pA = std::pow(T / 1e3, -0.2);
  const double pB = std::pow(T / 1e6, 0.7);

  // k1: H + e → H⁺ + 2e.  Janev et al. (1987) fit as used by Abel+97.
  {
    static constexpr double a[9] = {-32.71396786, 13.5365560, -5.73932875,
                                    1.56315498, -0.28770560, 3.48255977e-2,
                                    -2.63197617e-3, 1.11954395e-4,
                                    -2.03914985e-6};
    double s = 0, p = 1;
    for (int j = 0; j < 9; ++j) {
      s += a[j] * p;
      p *= lnTe;
    }
    c[idx(Coef::k1)] = std::exp(s);
  }
  // k2: H⁺ + e → H (case A, Cen 1992 form); k6: He⁺⁺ recombination is the
  // same fit scaled for Z = 2.
  c[idx(Coef::k2)] = 8.4e-11 / sqrtT * pA / (1.0 + pB);
  c[idx(Coef::k6)] = 3.36e-10 / sqrtT * pA / (1.0 + pB);
  // k3 / k5: He, He⁺ collisional ionization (Cen 1992).
  c[idx(Coef::k3)] =
      2.38e-11 * sqrtT * std::exp(-285335.4 / T) / (1.0 + T5);
  c[idx(Coef::k5)] =
      5.68e-12 * sqrtT * std::exp(-631515.0 / T) / (1.0 + T5);
  // k4: He⁺ recombination, radiative + dielectronic (Cen 1992).
  c[idx(Coef::k4)] = 1.5e-10 * std::pow(T, -0.6353) +
                     1.9e-3 * std::pow(T, -1.5) * std::exp(-470000.0 / T) *
                         (1.0 + 0.3 * std::exp(-94000.0 / T));
  // k7: radiative attachment H + e → H⁻ (Abel+97 fit).
  c[idx(Coef::k7)] = 6.775e-15 * std::pow(Tev, 0.8779);
  // k9: radiative association H + H⁺ → H₂⁺ (Abel+97 piecewise fit; the two
  // sides have different fit families and meet with a ~7 % jump).
  c[idx(Coef::k9)] =
      (T < 6700.0)
          ? 1.85e-23 * std::pow(T, 1.8)
          : 5.81e-16 *
                std::pow(T / 56200.0, -0.6657 * std::log10(T / 56200.0));
  // k11: H₂ + H⁺ → H₂⁺ + H (endothermic by ~1.83 eV).
  c[idx(Coef::k11)] = 2.4e-9 * std::exp(-21237.15 / T);
  // k12: electron-impact dissociation H₂ + e → 2H + e.
  c[idx(Coef::k12)] =
      4.38e-10 * std::exp(-102000.0 / T) * std::pow(T, 0.35);
  // k13: collisional dissociation H₂ + H → 3H (Dove & Mandy form).
  c[idx(Coef::k13)] = 1.067e-10 * std::pow(Tev, 2.012) *
                      std::exp(-4.463 / Tev) /
                      std::pow(1.0 + 0.2472 * Tev, 3.512);
  // k14: collisional detachment H⁻ + e → H + 2e (threshold 0.755 eV).
  c[idx(Coef::k14)] =
      4.38e-10 * std::exp(-8750.0 / T) * std::pow(T, 0.35) * 0.1 +
      1.0e-11 * sqrtT * std::exp(-8750.0 / T);
  // k15: H⁻ + H → 2H + e.
  c[idx(Coef::k15)] = 5.3e-20 * T * T * std::exp(-8750.0 / T) + 1.0e-12;
  // k16: mutual neutralization H⁻ + H⁺ → 2H (strong at low T).
  c[idx(Coef::k16)] = 7.0e-8 * std::pow(T / 100.0, -0.35);
  // k17: H⁻ + H⁺ → H₂⁺ + e (two fits that meet at 10⁴ K with a ~12 % jump).
  c[idx(Coef::k17)] =
      (T < 1e4) ? 1.0e-8 * std::pow(T, -0.4)
                : 4.0e-4 * std::pow(T, -1.4) * std::exp(-15100.0 / T);
  // k18: dissociative recombination H₂⁺ + e → 2H.
  c[idx(Coef::k18)] =
      1.0e-8 * std::pow(std::max(T, 10.0) / 1000.0, -0.5) * 0.2;
  // k19: H₂⁺ + H⁻ → H₂ + H.
  c[idx(Coef::k19)] = 5.0e-7 * std::sqrt(100.0 / T);
  // k22: three-body H₂ formation 3H → H₂ + H (Palla, Salpeter & Stahler 83).
  c[idx(Coef::k22)] = 5.5e-29 / T;
  // Deuterium: charge exchange nearly thermoneutral (ΔE/k = 43 K).
  c[idx(Coef::k51)] = 1.0e-9 * std::exp(-43.0 / T);    // D + H⁺ → D⁺ + H
  c[idx(Coef::k53)] = 1.0e-9 * std::exp(-464.0 / T);   // HD + H⁺ → H₂ + D⁺
  c[idx(Coef::k54)] = 7.5e-11 * std::exp(-3820.0 / T);  // D + H₂ → HD + H
  c[idx(Coef::k55)] = 7.5e-11 * std::exp(-4240.0 / T);  // HD + H → H₂ + D

  // Collisional excitation (line) cooling: H (Lyα) and He⁺ (Cen 1992).
  c[idx(Coef::line_HI)] = 7.50e-19 * std::exp(-118348.0 / T) / (1.0 + T5);
  c[idx(Coef::line_HeII)] = 5.54e-17 * std::pow(T, -0.397) *
                            std::exp(-473638.0 / T) / (1.0 + T5);
  // Collisional ionization cooling.
  c[idx(Coef::ion_HI)] =
      1.27e-21 * sqrtT * std::exp(-157809.1 / T) / (1.0 + T5);
  c[idx(Coef::ion_HeI)] =
      9.38e-22 * sqrtT * std::exp(-285335.4 / T) / (1.0 + T5);
  c[idx(Coef::ion_HeII)] =
      4.95e-22 * sqrtT * std::exp(-631515.0 / T) / (1.0 + T5);
  // Recombination cooling.
  c[idx(Coef::rec_HII)] = 8.70e-27 * sqrtT * pA / (1.0 + pB);
  c[idx(Coef::rec_HeII)] = 1.55e-26 * std::pow(T, 0.3647);
  c[idx(Coef::rec_HeIII)] = 3.48e-26 * sqrtT * pA / (1.0 + pB);
  // Bremsstrahlung (free-free), Gaunt ≈ 1.3.
  c[idx(Coef::brems)] = 1.42e-27 * 1.3 * sqrtT;
  h2_fit(T, c[idx(Coef::h2_low)], c[idx(Coef::h2_n_cr)]);
  c[idx(Coef::hd)] = hd_fit(T);
}

// ---- the table -----------------------------------------------------------------

// Nodes T_j = 10^(j / kTableNodesPerDecade), j = 0 … kNodes − 1, span 1–1e9 K;
// each node's kNumCoefs values are contiguous (node-major), so one cell's
// 4-node stencil is one contiguous 1 KB block.  A temperature's fractional
// node coordinate is ln T · scale: ln is the cheaper libm log, and the scale
// is rounded up until ln(1e9) · scale reaches the last node, so 1e9 K reads
// it exactly (that shifts a lookup by under 1e-12 of a node).
constexpr int kNodes = 9 * kTableNodesPerDecade + 1;
constexpr double kLastNode = kNodes - 1;

class CoefficientTable {
 public:
  CoefficientTable() : v_(static_cast<std::size_t>(kNodes) * kNumCoefs) {
    for (int j = 0; j < kNodes; ++j)
      fit_coefficients(std::pow(10.0, j / double(kTableNodesPerDecade)),
                       v_.data() + static_cast<std::size_t>(j) * kNumCoefs);
    while (std::log(1e9) * scale_ < kLastNode)
      scale_ = std::nextafter(scale_, 2.0 * scale_);
  }
  [[nodiscard]] const double* data() const { return v_.data(); }
  [[nodiscard]] double scale() const { return scale_; }

 private:
  std::vector<double> v_;
  double scale_ = kTableNodesPerDecade / std::log(10.0);
};

// Built on first use (~2.5 MB, a few ms), not at startup; the function-local
// static makes a concurrent first use from several lanes safe.
const CoefficientTable& table() {
  static const CoefficientTable t;
  return t;
}

// A cell's 4-node stencil: its first node and the Lagrange weights at
// fractional node coordinate x, already clamped to the grid.  The stencil is
// one-sided at the two ends, so a temperature at or beyond an end reads that
// end node's values exactly.
struct Stencil {
  const double* node;  // kNumCoefs values per node, 4 nodes
  double w0, w1, w2, w3;
};

inline Stencil locate(const double* tab, double x) {
  int j = static_cast<int>(x) - 1;
  j = j > 0 ? j : 0;
  j = j < kNodes - 4 ? j : kNodes - 4;
  const double u = x - j;  // in [0, 3]; [1, 2) away from the ends
  const double b = u - 1.0, c = u - 2.0, d = u - 3.0;
  constexpr double kSixth = 1.0 / 6.0;
  return {tab + static_cast<std::ptrdiff_t>(j) * kNumCoefs,
          -(b * c * d) * kSixth, u * c * d * 0.5, -(u * b * d) * 0.5,
          u * b * c * kSixth};
}

// out[0..count) ← coefficients first … first + count − 1 at the stencil.  The
// loop runs along a node's contiguous coefficients (a lookup reads no
// gathered data), so every caller gets the same value for a coefficient.
inline void interpolate(const Stencil& s, int first, int count, double* out) {
  const double* p = s.node + first;
  for (int c = 0; c < count; ++c)
    out[c] = s.w0 * p[c] + s.w1 * p[kNumCoefs + c] +
             s.w2 * p[2 * kNumCoefs + c] + s.w3 * p[3 * kNumCoefs + c];
}

// Fractional node coordinate of each temperature, clamped to the grid in
// floating point before any cast reads it (a NaN lands on node 0).  The log
// is the one per-cell transcendental of the table path; the clamp sits in
// this scalar loop because GCC 12 will not if-convert a select that feeds a
// float-to-int conversion, which would keep the lookup loops scalar.
ENZO_HOT void table_coordinates(int n, const double* T, double* x) {
  const double scale = table().scale();
  // enzo-lint: allow(hotpath-transcendental) one log per cell locates it in the table
  for (int i = 0; i < n; ++i) {
    const double v = std::log(T[i]) * scale;
    const double lo = v > 0.0 ? v : 0.0;
    x[i] = lo < kLastNode ? lo : kLastNode;
  }
}

// The rate lanes out + c·stride from the coordinates x: one cell's
// coefficients at a time, then stored across the lanes.
ENZO_HOT void lookup_rates(int n, const double* x, const double* tab,
                           double* out, int stride) {
  for (int i = 0; i < n; ++i) {
    double k[kNumRateCoefs] = {};
    interpolate(locate(tab, x[i]), 0, kNumRateCoefs, k);
    for (int c = 0; c < kNumRateCoefs; ++c) out[c * stride + i] = k[c];
  }
}

// Lanes are padded to a multiple of 8 doubles (one cache line) so every lane
// starts 64-byte aligned relative to the block and strided lane arithmetic
// never splits a vector register across two lanes.
constexpr int kLanePad = 8;
int padded(int n) { return (n + (kLanePad - 1)) & ~(kLanePad - 1); }

// ---- cooling -------------------------------------------------------------------

// The T-only cooling coefficients of one cell (Coef::line_HI … Coef::hd).
struct CoolingCoefs {
  double line_HI, line_HeII, ion_HI, ion_HeI, ion_HeII, rec_HII, rec_HeII,
      rec_HeIII, brems, h2_low, h2_n_cr, hd;
};
constexpr int kFirstCooling = idx(Coef::line_HI);
constexpr int kNumCooling = kNumCoefs - kFirstCooling;

// One cell's cooling coefficients from v[c · stride], c = 0 … kNumCooling − 1.
CoolingCoefs cooling_coefs(const double* v, int stride) {
  return {v[0],          v[stride],     v[2 * stride], v[3 * stride],
          v[4 * stride], v[5 * stride], v[6 * stride], v[7 * stride],
          v[8 * stride], v[9 * stride], v[10 * stride], v[11 * stride]};
}

// The terms that depend on T_cmb alone: the Compton prefactor (T_cmb/2.725)⁴
// and the H₂ and HD coefficients at the CMB temperature.
struct CmbTerms {
  double T_cmb, a4, h2_low, h2_n_cr, hd;
};

CmbTerms cmb_terms(double T_cmb) {
  CmbTerms m{T_cmb, std::pow(T_cmb / 2.725, 4.0), 0.0, 0.0, hd_fit(T_cmb)};
  h2_fit(T_cmb, m.h2_low, m.h2_n_cr);
  return m;
}

// Λ of one cell from its coefficients at the (clamped) gas temperature T.
inline double assemble_cooling(const CoolingCoefs& k, double T,
                               const CmbTerms& m, double n_HI, double n_HII,
                               double n_HeI, double n_HeII, double n_HeIII,
                               double n_e, double n_H2, double n_HD) {
  double cool = 0.0;
  cool += k.line_HI * n_e * n_HI;
  cool += k.line_HeII * n_e * n_HeII;
  cool += k.ion_HI * n_e * n_HI;
  cool += k.ion_HeI * n_e * n_HeI;
  cool += k.ion_HeII * n_e * n_HeII;
  cool += k.rec_HII * n_e * n_HII;
  cool += k.rec_HeII * n_e * n_HeII;
  cool += k.rec_HeIII * n_e * n_HeIII;
  cool += k.brems * n_e * (n_HII + n_HeII + 4.0 * n_HeIII);
  // H₂ ro-vibrational cooling, net of the CMB radiation bath (the lines
  // thermalize with the CMB, so the gas cannot radiatively cool below
  // T_cmb — at z≈19 that floor is ~55 K).
  const double n_H_tot = n_HI + n_HII;
  cool += std::max(n_H2 * n_H_tot * k.h2_low / (1.0 + n_H_tot / k.h2_n_cr) -
                       n_H2 * n_H_tot * m.h2_low / (1.0 + n_H_tot / m.h2_n_cr),
                   0.0);
  // HD cooling, with the same CMB radiative floor.
  const double hd_dilution = 1.0 + n_H_tot / 1e6;
  cool += std::max(k.hd * n_HD * n_H_tot / hd_dilution -
                       m.hd * n_HD * n_H_tot / hd_dilution,
                   0.0);
  // Compton heating/cooling against the CMB (§2.2).
  cool += 5.65e-36 * m.a4 * (T - m.T_cmb) * n_e;
  return cool;
}

// Λ lanes: lambda holds each cell's table coordinate on entry.  Blocks of
// cells: their coefficients are read one cell at a time into block lanes,
// then Λ is assembled across the block's cells in one vector loop.
ENZO_HOT void lookup_cooling(int n, const CoolingRowInput& in,
                             const double* tab, const CmbTerms& m,
                             double* lambda) {
  constexpr int kBlock = 16;
  for (int i0 = 0; i0 < n; i0 += kBlock) {
    const int nb = std::min(kBlock, n - i0);
    double k[kNumCooling][kBlock] = {};
    for (int b = 0; b < nb; ++b) {
      double v[kNumCooling] = {};
      interpolate(locate(tab, lambda[i0 + b]), kFirstCooling, kNumCooling, v);
      for (int c = 0; c < kNumCooling; ++c) k[c][b] = v[c];
    }
#pragma GCC ivdep
    for (int b = 0; b < nb; ++b) {
      const int i = i0 + b;
      lambda[i] = assemble_cooling(cooling_coefs(&k[0][b], kBlock),
                                   clamp_T(in.T[i]), m, in.n_HI[i],
                                   in.n_HII[i], in.n_HeI[i], in.n_HeII[i],
                                   in.n_HeIII[i], in.n_e[i], in.n_H2[i],
                                   in.n_HD[i]);
    }
  }
}

// The rate set from tabulated coefficients k[c · stride] (Coef order) and
// the constant ones.
Rates gather_rates(const double* k, int stride) {
  auto at = [&](Coef c) { return k[idx(c) * stride]; };
  Rates r{};
  r.k1 = at(Coef::k1);
  r.k2 = at(Coef::k2);
  r.k3 = at(Coef::k3);
  r.k4 = at(Coef::k4);
  r.k5 = at(Coef::k5);
  r.k6 = at(Coef::k6);
  r.k7 = at(Coef::k7);
  r.k8 = kK8;
  r.k9 = at(Coef::k9);
  r.k10 = kK10;
  r.k11 = at(Coef::k11);
  r.k12 = at(Coef::k12);
  r.k13 = at(Coef::k13);
  r.k14 = at(Coef::k14);
  r.k15 = at(Coef::k15);
  r.k16 = at(Coef::k16);
  r.k17 = at(Coef::k17);
  r.k18 = at(Coef::k18);
  r.k19 = at(Coef::k19);
  r.k22 = at(Coef::k22);
  r.k50 = kK50;
  r.k51 = at(Coef::k51);
  r.k52 = kK52;
  r.k53 = at(Coef::k53);
  r.k54 = at(Coef::k54);
  r.k55 = at(Coef::k55);
  r.k56 = r.k2;  // D⁺ recombination ≈ H⁺
  r.k57 = r.k1;  // D ionization ≈ H
  return r;
}
}  // namespace

// ---- rates -----------------------------------------------------------------------

Rates compute_rates(double T) {
  double c[kNumCoefs] = {};
  fit_coefficients(T, c);
  return gather_rates(c, 1);
}

double coefficient_fit(Coef c, double T) {
  double v[kNumCoefs] = {};
  fit_coefficients(T, v);
  return v[idx(c)];
}

double coefficient_lookup(Coef c, double T) {
  double x = 0.0, v = 0.0;
  table_coordinates(1, &T, &x);
  interpolate(locate(table().data(), x), idx(c), 1, &v);
  return v;
}

ENZO_HOT void RateBatch::compute(int n, const double* T) {
  n_ = n;
  stride_ = padded(n);
  // The rate lanes, then one lane for the table coordinates.
  const std::size_t need = static_cast<std::size_t>(stride_) *
                           static_cast<std::size_t>(kNumRateCoefs + 1);
  if (store_.size() < need) {
    // enzo-lint: allow(hotpath-heap-alloc) amortized scratch growth
    store_.resize(need);
  }
  double* x = lane(kNumRateCoefs);
  table_coordinates(n, T, x);
  lookup_rates(n, x, table().data(), store_.data(), stride_);
}

Rates RateBatch::row(int i) const {
  return gather_rates(store_.data() + i, stride_);
}

// ---- cooling -----------------------------------------------------------------------

double h2_cooling_rate(double T, double n_H2, double n_H) {
  double lambda_low = 0.0, n_cr = 0.0;
  h2_fit(T, lambda_low, n_cr);
  return n_H2 * n_H * lambda_low / (1.0 + n_H / n_cr);
}

double cooling_rate(const CoolingInput& in) {
  double c[kNumCoefs] = {};
  fit_coefficients(in.T, c);
  return assemble_cooling(cooling_coefs(c + kFirstCooling, 1), clamp_T(in.T),
                          cmb_terms(in.T_cmb), in.n_HI, in.n_HII, in.n_HeI,
                          in.n_HeII, in.n_HeIII, in.n_e, in.n_H2, in.n_HD);
}

ENZO_HOT void cooling_rate_batch(int n, const CoolingRowInput& in,
                                 double* lambda) {
  table_coordinates(n, in.T, lambda);
  lookup_cooling(n, in, table().data(), cmb_terms(in.T_cmb), lambda);
}

}  // namespace enzo::chemistry
