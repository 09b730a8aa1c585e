// Problem "ZeldovichPancake": single-mode cosmological collapse through the
// comoving machinery (§3.2's cosmology-hydro verification test).  While the
// mode is pre-caustic the flow is exactly the Zel'dovich solution — the l1
// callback inverts the Lagrangian map at the current growth factor and
// compares the root-level density against 1 + delta(x), so the regression
// harness gates the comoving Euler + expansion-source path against an exact
// cosmological solution, not just linear theory.  Past the caustic there is
// no exact solution, and the callback returns NaN.

#include <cmath>
#include <limits>

#include "analysis/reference.hpp"
#include "core/setup.hpp"
#include "problems/detail.hpp"
#include "problems/registry.hpp"
#include "util/constants.hpp"

namespace enzo::problems {

void register_zeldovich_pancake(Registry& r) {
  ProblemSpec s;
  s.name = "ZeldovichPancake";
  s.description =
      "Zel'dovich pancake: sinusoidal mode collapsing to a caustic "
      "(requires ComovingCoordinates = 1; exact pre-caustic reference)";
  s.make = [](const core::ParameterDeck& d) {
    return core::zeldovich_pancake_setup(d.pancake);
  };
  s.l1_density_error = [](const core::Simulation& sim,
                          const core::ParameterDeck& d) {
    const auto& cfg = sim.config();
    cosmology::Frw frw(cfg.frw);
    // The setup normalizes the mode so the caustic forms at a_caustic:
    // A = 1 / (2 pi D(a_c)).
    const double a_c = cosmology::Frw::a_of_z(d.pancake.a_caustic_redshift);
    analysis::ZeldovichMode m;
    m.amplitude = 1.0 / (constants::kTwoPi * frw.growth_factor(a_c));
    m.growth = frw.growth_factor(sim.scale_factor());
    if (m.growth * constants::kTwoPi * m.amplitude >= 1.0)
      return std::numeric_limits<double>::quiet_NaN();
    double l1 = 0.0;
    std::int64_t n = 0;
    detail::for_each_root_density(
        sim, [&](double x, double, double, double rho) {
          l1 += std::abs(rho - (1.0 + analysis::zeldovich_delta(m, x)));
          ++n;
        });
    return l1 / static_cast<double>(n);
  };
  s.smoke_deck =
      "TopGridDimensions = 32 1 1\n"
      "ComovingCoordinates = 1\n"
      "HubbleConstantNow = 0.5\n"
      "OmegaMatterNow = 1.0\n"
      "OmegaBaryonNow = 1.0\n"
      "InitialRedshift = 30\n"
      "PancakeCausticRedshift = 3\n"
      "StopSteps = 1\n";
  r.add(std::move(s));
}

}  // namespace enzo::problems
