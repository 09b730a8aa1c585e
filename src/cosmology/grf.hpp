#pragma once
// Gaussian random field + Zel'dovich initial conditions.
//
// §4: initial conditions are an inflation-inspired Gaussian random field,
// first realized at low resolution (64³) and then re-realized with
// additional nested static refinement levels (equivalent to 512³) covering
// the proto-star region.  The generator here produces: the linear
// overdensity field δ(x), the Zel'dovich displacement field ψ(x)
// (δ = −∇·ψ at D = 1), and the corresponding velocity field, at any
// power-of-two lattice resolution of the root box, from a single
// deterministic seed — so a refined region re-realizes *the same*
// large-scale modes plus additional small-scale power, exactly the restart
// trick the paper describes.

#include <array>
#include <cstdint>

#include "cosmology/frw.hpp"
#include "cosmology/power_spectrum.hpp"
#include "cosmology/units.hpp"
#include "util/array3.hpp"

namespace enzo::cosmology {

struct GrfOutput {
  util::Buffer3 delta;                ///< linear overdensity at D=1
  std::array<util::Buffer3, 3> psi;   ///< displacement field (code length)
};

class InitialConditionsGenerator {
 public:
  /// box_comoving_cm: root-domain size; fields are in code units of that box.
  InitialConditionsGenerator(const Frw& frw, const PowerSpectrum& ps,
                             double box_comoving_cm, std::uint64_t seed);

  /// Realize δ and ψ on an n³ lattice over the whole root box.  The same
  /// seed and the same (physical) mode k always receives the same random
  /// amplitude, implemented by hashing the integer mode vector in root-box
  /// units — this is what makes nested static subgrids, realized at their
  /// own level's resolution, consistent with the parent field.
  GrfOutput realize(int n) const;

  /// Linear theory rms of δ on the n-per-root-box lattice (for tests).
  double expected_sigma(int n) const;

 private:
  const Frw& frw_;
  const PowerSpectrum& ps_;
  double box_cm_;
  std::uint64_t seed_;
};

/// Scale δ and ψ from D=1 to scale factor a; returns the multiplier applied
/// to ψ to obtain the *peculiar velocity* in code units:
///   v_code = velocity_factor * ψ_code.
double zeldovich_velocity_factor(const Frw& frw, const CodeUnits& units,
                                 double a);

}  // namespace enzo::cosmology
