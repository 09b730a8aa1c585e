#include "core/setup.hpp"

#include <cmath>

#include "chemistry/chemistry.hpp"
#include "cosmology/grf.hpp"
#include "cosmology/power_spectrum.hpp"
#include "mesh/boundary.hpp"
#include "nbody/nbody.hpp"
#include "util/annotations.hpp"
#include "util/constants.hpp"
#include "util/error.hpp"

namespace enzo::core {

using mesh::Field;
using mesh::Grid;
namespace cn = constants;

namespace {

/// Specific internal energy (code units) for temperature T and mean
/// molecular weight mu.
ENZO_UNITS_BOUNDARY double eint_code(double T, double mu, double gamma,
                                     const cosmology::CodeUnits& u) {
  const double e_cgs =
      T * cn::kBoltzmann / ((gamma - 1.0) * mu * cn::kHydrogenMass);
  return e_cgs / (u.velocity_cgs() * u.velocity_cgs());
}

/// Write gas fields on a grid from full-box δ/ψ lattices realized at the
/// grid's own level resolution.
void fill_gas_from_realization(Grid& g, const cosmology::GrfOutput& real,
                               double growth, double vfac, double rho_mean,
                               double eint) {
  const mesh::FieldView rho = g.field(Field::kDensity);
  const mesh::FieldView et = g.field(Field::kTotalEnergy);
  const mesh::FieldView ei = g.field(Field::kInternalEnergy);
  const mesh::FieldView vel[3] = {g.field(Field::kVelocityX),
                                  g.field(Field::kVelocityY),
                                  g.field(Field::kVelocityZ)};
  const util::ArrayView3<const double> delta = real.delta.view();
  const util::ArrayView3<const double> psi[3] = {
      real.psi[0].view(), real.psi[1].view(), real.psi[2].view()};
  const int n = delta.nx();
  for (int k = 0; k < g.nt(2); ++k)
    for (int j = 0; j < g.nt(1); ++j)
      for (int i = 0; i < g.nt(0); ++i) {
        // Global lattice index with periodic wrap (ghosts included so the
        // first boundary exchange starts consistent).
        auto wrap = [&](std::int64_t v, std::int64_t dims) {
          return static_cast<int>(((v % dims) + dims) % dims);
        };
        const int gi = wrap(g.box().lo[0] + (i - g.ng(0)),
                            g.spec().level_dims[0]) % n;
        const int gj = wrap(g.box().lo[1] + (j - g.ng(1)),
                            g.spec().level_dims[1]) % n;
        const int gk = wrap(g.box().lo[2] + (k - g.ng(2)),
                            g.spec().level_dims[2]) % n;
        const double d = growth * delta(gi, gj, gk);
        rho(i, j, k) = rho_mean * std::max(1.0 + d, 0.05);
        for (int c = 0; c < 3; ++c)
          vel[c](i, j, k) = vfac * psi[c](gi, gj, gk);
        double v2 = 0;
        for (int c = 0; c < 3; ++c)
          v2 += vel[c](i, j, k) * vel[c](i, j, k);
        ei(i, j, k) = eint;
        et(i, j, k) = eint + 0.5 * v2;
      }
}

}  // namespace

ProblemSetup uniform_setup(double rho, double eint) {
  ProblemSetup setup;
  setup.fill([rho, eint](Simulation& sim) {
    for (Grid* g : sim.hierarchy().grids(0)) {
      g->field(Field::kDensity).fill(rho);
      g->field(Field::kVelocityX).fill(0.0);
      g->field(Field::kVelocityY).fill(0.0);
      g->field(Field::kVelocityZ).fill(0.0);
      g->field(Field::kInternalEnergy).fill(eint);
      g->field(Field::kTotalEnergy).fill(eint);
      if (sim.config().enable_chemistry)
        chemistry::initialize_primordial_composition(
            *g, sim.config().chemistry, 1e-4, 1e-6);
    }
  });
  return setup;
}

ProblemSetup sod_tube_setup() {
  ProblemSetup setup;
  setup.configure([](SimulationConfig& cfg) {
    cfg.hierarchy.periodic = false;
    cfg.enable_gravity = false;
    cfg.enable_chemistry = false;
    cfg.enable_particles = false;
    ENZO_REQUIRE(cfg.hierarchy.root_dims[1] == 1 &&
                     cfg.hierarchy.root_dims[2] == 1,
                 "Sod tube is one-dimensional");
  });
  setup.fill([](Simulation& sim) {
    const double gamma = sim.config().hydro.gamma;
    for (Grid* g : sim.hierarchy().grids(0)) {
      const mesh::FieldView rho = g->field(Field::kDensity);
      const mesh::FieldView vx = g->field(Field::kVelocityX);
      const mesh::FieldView et = g->field(Field::kTotalEnergy);
      const mesh::FieldView ei = g->field(Field::kInternalEnergy);
      g->field(Field::kVelocityY).fill(0.0);
      g->field(Field::kVelocityZ).fill(0.0);
      for (int i = 0; i < g->nx(0); ++i) {
        const double x =
            (static_cast<double>(g->box().lo[0] + i) + 0.5) /
            g->spec().level_dims[0];
        const double r = x < 0.5 ? 1.0 : 0.125;
        const double p = x < 0.5 ? 1.0 : 0.1;
        rho(g->sx(i), 0, 0) = r;
        vx(g->sx(i), 0, 0) = 0.0;
        ei(g->sx(i), 0, 0) = p / ((gamma - 1.0) * r);
        et(g->sx(i), 0, 0) = ei(g->sx(i), 0, 0);
      }
    }
  });
  return setup;
}

ProblemSetup cosmological_setup(const CosmologySetupOptions& opt) {
  ProblemSetup setup;
  setup.configure([opt](SimulationConfig& cfg) {
    ENZO_REQUIRE(cfg.comoving, "cosmological_setup requires cfg.comoving");
    cosmology::Frw frw(cfg.frw);
    cfg.units = cosmology::CodeUnits::cosmological(frw, opt.box_comoving_cm);
    cfg.gravity.grav_const_code = cfg.units.grav_const_code;
    cfg.gravity.mean_density = 1.0;
  });
  setup.fill([opt](Simulation& sim) {
    auto& cfg = sim.config();
    cosmology::Frw frw(cfg.frw);
    const double a_i = cosmology::Frw::a_of_z(cfg.initial_redshift);
    cosmology::PowerSpectrum ps(frw);
    cosmology::InitialConditionsGenerator gen(frw, ps, opt.box_comoving_cm,
                                              opt.seed);
    const double growth = frw.growth_factor(a_i);
    // Note: the velocity factor already contains D(a_i) (v = a D f H ψ).
    const double vfac =
        cosmology::zeldovich_velocity_factor(frw, cfg.units, a_i);

    // Gas temperature: CMB-coupled until z ≈ 100, adiabatic (∝ a⁻²) after.
    const double z_i = cfg.initial_redshift;
    const double T_i = z_i >= 100.0
                           ? cn::kTcmb0 * (1.0 + z_i)
                           : cn::kTcmb0 * 101.0 *
                                 std::pow((1.0 + z_i) / 101.0, 2.0);
    const double fb = cfg.frw.omega_baryon / cfg.frw.omega_matter;

    const int n_root = static_cast<int>(cfg.hierarchy.root_dims[0]);
    auto real0 = gen.realize(n_root);
    const double e0 = eint_code(T_i, 1.22, cfg.hydro.gamma, cfg.units);
    for (Grid* g : sim.hierarchy().grids(0)) {
      fill_gas_from_realization(*g, real0, growth, vfac, fb, e0);
      if (cfg.enable_chemistry)
        chemistry::initialize_primordial_composition(
            *g, cfg.chemistry, opt.initial_ionization,
            opt.initial_h2_fraction);
    }

    // Dark matter lattice with the same displacement field.
    if (cfg.enable_particles) {
      const int n_p =
          opt.particles_per_axis > 0 ? opt.particles_per_axis : n_root;
      cosmology::GrfOutput other;
      if (n_p != n_root) other = gen.realize(n_p);
      const cosmology::GrfOutput& real_p = n_p == n_root ? real0 : other;
      nbody::create_lattice_particles(*sim.hierarchy().grids(0)[0], n_p,
                                      real_p.psi, growth, vfac, 1.0 - fb);
    }

    // Nested static levels over a shrinking central region (§4).
    const int r = cfg.hierarchy.refine_factor;
    for (int l = 1; l <= opt.nested_static_levels; ++l) {
      const std::int64_t dims =
          n_root * static_cast<std::int64_t>(std::pow(r, l));
      const std::int64_t width = dims >> l;  // half per level
      const std::int64_t lo = dims / 2 - width / 2;
      sim.add_static_region(
          l, {{lo, lo, lo}, {lo + width, lo + width, lo + width}});
    }
  });
  // Overwrite static-level data with mode-consistent finer realizations
  // ("capture as many small-wavelength modes ... as possible").
  setup.refine([opt](Simulation& sim) {
    auto& cfg = sim.config();
    cosmology::Frw frw(cfg.frw);
    const double a_i = cosmology::Frw::a_of_z(cfg.initial_redshift);
    cosmology::PowerSpectrum ps(frw);
    cosmology::InitialConditionsGenerator gen(frw, ps, opt.box_comoving_cm,
                                              opt.seed);
    const double growth = frw.growth_factor(a_i);
    const double vfac =
        cosmology::zeldovich_velocity_factor(frw, cfg.units, a_i);
    const double z_i = cfg.initial_redshift;
    const double T_i = z_i >= 100.0
                           ? cn::kTcmb0 * (1.0 + z_i)
                           : cn::kTcmb0 * 101.0 *
                                 std::pow((1.0 + z_i) / 101.0, 2.0);
    const double fb = cfg.frw.omega_baryon / cfg.frw.omega_matter;
    const double e0 = eint_code(T_i, 1.22, cfg.hydro.gamma, cfg.units);
    for (int l = 1; l <= std::min(opt.nested_static_levels,
                                  sim.hierarchy().deepest_level());
         ++l) {
      const int n_eff = static_cast<int>(sim.hierarchy().level_dims(l)[0]);
      auto real_l = gen.realize(n_eff);
      for (Grid* g : sim.hierarchy().grids(l)) {
        fill_gas_from_realization(*g, real_l, growth, vfac, fb, e0);
        if (cfg.enable_chemistry)
          chemistry::initialize_primordial_composition(
              *g, cfg.chemistry, opt.initial_ionization,
              opt.initial_h2_fraction);
        g->store_old_fields();
      }
    }
  });
  return setup;
}

ProblemSetup collapse_cloud_setup(const CollapseSetupOptions& opt) {
  ProblemSetup setup;
  setup.configure([opt](SimulationConfig& cfg) {
    cfg.comoving = false;
    cfg.enable_gravity = true;
    cfg.enable_chemistry = opt.chemistry;
    // Units: code density 1 = background; t_unit = 1/sqrt(4πG ρ_unit) so
    // G_code = 1.
    cosmology::CodeUnits u;
    u.length_cm = opt.box_proper_cm;
    u.density_cgs = opt.mean_density_cgs;
    u.time_s = 1.0 / std::sqrt(cn::kFourPi * cn::kGravity * u.density_cgs);
    u.grav_const_code = 1.0;
    u.comoving = false;
    cfg.units = u;
    cfg.gravity.grav_const_code = 1.0;
    if (opt.chemistry) {
      ENZO_REQUIRE(cfg.hierarchy.fields.size() >=
                       mesh::chemistry_field_list().size(),
                   "collapse cloud with chemistry needs the full field list");
    }
  });
  setup.fill([opt](Simulation& sim) {
    auto& cfg = sim.config();
    const cosmology::CodeUnits& u = cfg.units;
    double mean = 0.0;
    std::int64_t count = 0;
    for (Grid* g : sim.hierarchy().grids(0)) {
      const mesh::FieldView rho = g->field(Field::kDensity);
      for (int k = 0; k < g->nt(2); ++k)
        for (int j = 0; j < g->nt(1); ++j)
          for (int i = 0; i < g->nt(0); ++i) {
            // Distance from box center (including ghosts via global index).
            double r2 = 0;
            const std::int64_t gidx[3] = {g->box().lo[0] + (i - g->ng(0)),
                                          g->box().lo[1] + (j - g->ng(1)),
                                          g->box().lo[2] + (k - g->ng(2))};
            for (int d = 0; d < 3; ++d) {
              double x = (static_cast<double>(gidx[d]) + 0.5) /
                             g->spec().level_dims[d] -
                         0.5;
              if (x > 0.5) x -= 1.0;
              if (x < -0.5) x += 1.0;
              r2 += x * x;
            }
            const double q = r2 / (opt.cloud_radius * opt.cloud_radius);
            // Parabolic cloud with a smooth edge.
            const double d =
                q < 1.0 ? (opt.overdensity - 1.0) * (1.0 - q) : 0.0;
            rho(i, j, k) = 1.0 + d;
          }
      g->field(Field::kVelocityX).fill(0.0);
      g->field(Field::kVelocityY).fill(0.0);
      g->field(Field::kVelocityZ).fill(0.0);
      if (opt.chemistry)
        chemistry::initialize_primordial_composition(*g, cfg.chemistry,
                                                     opt.ionization,
                                                     opt.h2_fraction);
      // Isothermal start.
      for (int k = 0; k < g->nt(2); ++k)
        for (int j = 0; j < g->nt(1); ++j)
          for (int i = 0; i < g->nt(0); ++i) {
            const double mu =
                opt.chemistry ? chemistry::cell_mu(*g, i, j, k) : 1.22;
            const double e =
                eint_code(opt.temperature, mu, cfg.hydro.gamma, u);
            g->field(Field::kInternalEnergy)(i, j, k) = e;
            g->field(Field::kTotalEnergy)(i, j, k) = e;
          }
      for (int k = 0; k < g->nx(2); ++k)
        for (int j = 0; j < g->nx(1); ++j)
          for (int i = 0; i < g->nx(0); ++i) {
            // enzo-lint: allow(determinism-grid-fp-accumulation) serial setup pass
            mean += rho(g->sx(i), g->sy(j), g->sz(k));
            ++count;
          }
    }
    cfg.gravity.mean_density = mean / static_cast<double>(count);
  });
  return setup;
}

ProblemSetup zeldovich_pancake_setup(const PancakeOptions& opt) {
  ProblemSetup setup;
  setup.configure([opt](SimulationConfig& cfg) {
    cfg.comoving = true;
    cfg.enable_gravity = true;
    cfg.enable_chemistry = false;
    cosmology::Frw frw(cfg.frw);
    cfg.units = cosmology::CodeUnits::cosmological(frw, opt.box_comoving_cm);
    cfg.gravity.grav_const_code = 1.0;
    cfg.gravity.mean_density = 1.0;
    ENZO_REQUIRE(cfg.hierarchy.root_dims[1] == 1 &&
                     cfg.hierarchy.root_dims[2] == 1,
                 "pancake is one-dimensional");
  });
  setup.fill([opt](Simulation& sim) {
    auto& cfg = sim.config();
    cosmology::Frw frw(cfg.frw);
    const double a_i = cosmology::Frw::a_of_z(cfg.initial_redshift);
    const double a_c = cosmology::Frw::a_of_z(opt.a_caustic_redshift);
    const double d_i = frw.growth_factor(a_i);
    const double d_c = frw.growth_factor(a_c);
    // ψ(q) = −A sin(2πq); caustic when D·A·2π = 1.
    const double amp = 1.0 / (cn::kTwoPi * d_c);
    const double vfac =
        cosmology::zeldovich_velocity_factor(frw, cfg.units, a_i);
    for (Grid* g : sim.hierarchy().grids(0)) {
      const mesh::FieldView rho = g->field(Field::kDensity);
      const mesh::FieldView vx = g->field(Field::kVelocityX);
      const mesh::FieldView ei = g->field(Field::kInternalEnergy);
      const mesh::FieldView et = g->field(Field::kTotalEnergy);
      g->field(Field::kVelocityY).fill(0.0);
      g->field(Field::kVelocityZ).fill(0.0);
      for (int i = 0; i < g->nt(0); ++i) {
        const std::int64_t gi = g->box().lo[0] + (i - g->ng(0));
        const std::int64_t n = g->spec().level_dims[0];
        const double q = (static_cast<double>(((gi % n) + n) % n) + 0.5) /
                         static_cast<double>(n);
        const double psi = -amp * std::sin(cn::kTwoPi * q);
        // Linear-theory Eulerian density: δ = −D dψ/dq.
        const double delta =
            d_i * amp * cn::kTwoPi * std::cos(cn::kTwoPi * q);
        rho(i, 0, 0) = std::max(1.0 + delta, 0.05);
        // vfac already contains D(a_i).
        vx(i, 0, 0) = vfac * psi;
        const double e =
            eint_code(opt.initial_temperature, 1.22, cfg.hydro.gamma,
                      cfg.units);
        ei(i, 0, 0) = e;
        et(i, 0, 0) = e + 0.5 * vx(i, 0, 0) * vx(i, 0, 0);
      }
    }
  });
  return setup;
}

}  // namespace enzo::core
