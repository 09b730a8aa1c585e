#pragma once
// Reaction-rate and cooling-rate coefficients for the 12-species primordial
// network (§2.2): H, H⁺, He, He⁺, He⁺⁺, e⁻, H⁻, H₂, H₂⁺, D, D⁺, HD.
//
// The rate *forms* follow the compilation used by the paper (Abel, Anninos,
// Zhang & Norman 1997; Anninos et al. 1997), with the atomic
// ionization/recombination fits of Cen (1992) / Hui & Gnedin (1997), the
// three-body H₂ formation of Palla, Salpeter & Stahler (1983), and the H₂
// cooling function of Galli & Palla (1998).  Coefficients were re-entered
// from the literature; EXPERIMENTS.md compares profile *shapes*, which are
// insensitive to few-percent rate differences.
//
// All rates are cgs: two-body in cm³ s⁻¹, three-body in cm⁶ s⁻¹, cooling in
// erg cm³ s⁻¹ (multiply by the two number densities involved).
//
// Two paths read the fits.  The scalar API (compute_rates, cooling_rate,
// h2_cooling_rate) evaluates them exactly.  The row API the network solver
// runs on (RateBatch, cooling_rate_batch) reads one process-wide table
// instead, as Enzo does (Bryan et al. 2014): every temperature-dependent
// coefficient sampled from the fits at kTableNodesPerDecade nodes per decade
// of T over 1–1e9 K, read by 4-point Lagrange interpolation in log T.
// RateBatch makes the one lookup per cell, rate and cooling coefficients
// together; cooling_rate_batch assembles Λ from its lanes.  The two paths
// agree to ~1e-5 relative away from the fits' own breaks (chemistry_test's
// tolerance test), not bit for bit.

#include <vector>

namespace enzo::chemistry {

/// Two-body/three-body rate coefficients at one temperature.
struct Rates {
  // -- hydrogen/helium ionization & recombination --------------------------
  double k1;  ///< H  + e  → H⁺  + 2e
  double k2;  ///< H⁺ + e  → H   + γ
  double k3;  ///< He + e  → He⁺ + 2e
  double k4;  ///< He⁺+ e  → He  + γ  (incl. dielectronic)
  double k5;  ///< He⁺+ e  → He⁺⁺+ 2e
  double k6;  ///< He⁺⁺+e  → He⁺ + γ
  // -- H₂ chemistry ---------------------------------------------------------
  double k7;   ///< H  + e  → H⁻  + γ
  double k8;   ///< H⁻ + H  → H₂  + e
  double k9;   ///< H  + H⁺ → H₂⁺ + γ
  double k10;  ///< H₂⁺+ H  → H₂  + H⁺
  double k11;  ///< H₂ + H⁺ → H₂⁺ + H
  double k12;  ///< H₂ + e  → 2H  + e
  double k13;  ///< H₂ + H  → 3H
  double k14;  ///< H⁻ + e  → H   + 2e
  double k15;  ///< H⁻ + H  → 2H  + e
  double k16;  ///< H⁻ + H⁺ → 2H
  double k17;  ///< H⁻ + H⁺ → H₂⁺ + e
  double k18;  ///< H₂⁺+ e  → 2H
  double k19;  ///< H₂⁺+ H⁻ → H₂ + H
  double k22;  ///< 3H → H₂ + H   (three-body; cm⁶/s)
  // -- deuterium -------------------------------------------------------------
  double k50;  ///< D⁺ + H  → D  + H⁺  (charge exchange)
  double k51;  ///< D  + H⁺ → D⁺ + H
  double k52;  ///< D⁺ + H₂ → HD + H⁺
  double k53;  ///< HD + H⁺ → H₂ + D⁺
  double k54;  ///< D  + H₂* → HD + H (neutral exchange, slow)
  double k55;  ///< HD + H  → H₂ + D
  double k56;  ///< D⁺ + e  → D  + γ
  double k57;  ///< D  + e  → D⁺ + 2e
};

/// The temperature-independent coefficients (cm³ s⁻¹).  k56 and k57 alias
/// k2 and k1 (D⁺ recombination ≈ H⁺, D ionization ≈ H).
inline constexpr double kK8 = 1.43e-9;   ///< H⁻ + H → H₂ + e
inline constexpr double kK10 = 6.0e-10;  ///< H₂⁺ + H → H₂ + H⁺
inline constexpr double kK50 = 1.0e-9;   ///< D⁺ + H → D + H⁺
inline constexpr double kK52 = 2.1e-9;   ///< D⁺ + H₂ → HD + H⁺

/// Every temperature-dependent coefficient the table holds: the 22 rate
/// coefficients in `Rates` order, then the T-only cooling coefficients
/// (erg cm³ s⁻¹ per product of the densities named; `h2_n_cr` is in cm⁻³).
enum class Coef : int {
  k1, k2, k3, k4, k5, k6, k7, k9, k11, k12, k13, k14, k15, k16, k17, k18,
  k19, k22, k51, k53, k54, k55,
  line_HI,    ///< H Lyα excitation       × n_e n_HI
  line_HeII,  ///< He⁺ excitation          × n_e n_HeII
  ion_HI,     ///< H collisional ionization × n_e n_HI
  ion_HeI,    ///< He                      × n_e n_HeI
  ion_HeII,   ///< He⁺                     × n_e n_HeII
  rec_HII,    ///< H⁺ recombination        × n_e n_HII
  rec_HeII,   ///< He⁺                     × n_e n_HeII
  rec_HeIII,  ///< He⁺⁺                    × n_e n_HeIII
  brems,      ///< free-free × n_e (n_HII + n_HeII + 4 n_HeIII)
  h2_low,     ///< H₂ low-density Λ (Galli & Palla 1998)
  h2_n_cr,    ///< H₂ LTE critical density
  hd,         ///< HD factor × n_HD n_H / (1 + n_H / 1e6)
};
inline constexpr int kNumRateCoefs = static_cast<int>(Coef::k55) + 1;
inline constexpr int kNumCoefs = static_cast<int>(Coef::hd) + 1;
inline constexpr int kTableNodesPerDecade = 1024;

/// Evaluate the full rate set at gas temperature T (Kelvin) from the fits.
Rates compute_rates(double T);

/// The fit of one coefficient at T (clamped to 1–1e9 K).
double coefficient_fit(Coef c, double T);

/// The table's value of one coefficient at T: the same lookup RateBatch
/// makes, with T clamped to the table's 1–1e9 K.
double coefficient_lookup(Coef c, double T);

struct CmbTerms;
struct CoolingRowInput;

/// Row-at-a-time coefficient lookup: one SoA lane per temperature-dependent
/// coefficient (all kNumCoefs, rates and cooling), read from the coefficient
/// table for a batch of temperatures (one log and one stencil per cell).
/// Lane values do not depend on the batch length or a cell's position in it.
class RateBatch {
 public:
  /// Fill every lane for temperatures T[0..n).  Reuses capacity.
  void compute(int n, const double* T);

  /// Gather cell i's rate coefficients back into the scalar struct.
  [[nodiscard]] Rates row(int i) const;

  /// Coefficient c's lane, size() values.
  [[nodiscard]] const double* lane(Coef c) const {
    return lane(static_cast<int>(c));
  }

  [[nodiscard]] int size() const { return n_; }

 private:
  friend void cooling_rate_batch(const RateBatch& coefs, const CmbTerms& cmb,
                                 const CoolingRowInput& in, double* lambda);
  [[nodiscard]] double* lane(int idx) { return store_.data() + idx * stride_; }
  [[nodiscard]] const double* lane(int idx) const {
    return store_.data() + idx * stride_;
  }

  std::vector<double> store_;
  int n_ = 0;
  int stride_ = 0;  // padded lane length
};

/// Cooling/heating terms (erg cm⁻³ s⁻¹ once multiplied by densities inside):
struct CoolingInput {
  double T;        ///< gas temperature (K)
  double T_cmb;    ///< CMB temperature at this redshift (K)
  double n_HI, n_HII, n_HeI, n_HeII, n_HeIII, n_e, n_H2, n_HD;
};

/// Total volumetric cooling rate Λ (erg cm⁻³ s⁻¹) from the fits; positive =
/// energy loss.  Includes H/He line & ionization cooling, recombination,
/// bremsstrahlung, H₂ ro-vibrational (Galli & Palla 1998 low-density limit
/// with an LTE/critical-density cap), HD, and Compton scattering off the CMB
/// (which heats when T < T_cmb).
double cooling_rate(const CoolingInput& in);

/// The terms of Λ that depend on T_cmb alone, from the fits: the Compton
/// prefactor (T_cmb/2.725)⁴ and the H₂ and HD coefficients at the CMB
/// temperature.  T_cmb is fixed for a step, so a solver evaluates them once.
struct CmbTerms {
  double T_cmb, a4, h2_low, h2_n_cr, hd;
};
CmbTerms cmb_terms(double T_cmb);

/// SoA lanes for a row of cooling evaluations.
struct CoolingRowInput {
  const double* T;
  const double *n_HI, *n_HII, *n_HeI, *n_HeII, *n_HeIII, *n_e, *n_H2, *n_HD;
};

/// lambda[0..n) ← Λ per cell, n = coefs.size(): the terms of cooling_rate,
/// with the gas-temperature coefficients read from the cooling lanes of
/// `coefs` (computed for in.T) and the T_cmb terms from `cmb`.
void cooling_rate_batch(const RateBatch& coefs, const CmbTerms& cmb,
                        const CoolingRowInput& in, double* lambda);

/// The H₂ contribution alone from the fits (diagnostics / Fig. 4 reasoning).
double h2_cooling_rate(double T, double n_H2, double n_H);

}  // namespace enzo::chemistry
