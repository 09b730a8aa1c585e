#include "analysis/analysis.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/leaf_cells.hpp"
#include "util/constants.hpp"
#include "util/error.hpp"

namespace enzo::analysis {

using mesh::Field;
using mesh::Grid;

using detail::for_each_leaf_cell;
using detail::sep;

Peak find_densest_point(const mesh::Hierarchy& h) {
  Peak best;
  best.density = -1.0;
  for_each_leaf_cell(h, [&](const Grid& g, int i, int j, int k, double) {
    const double v = g.field(Field::kDensity)(g.sx(i), g.sy(j), g.sz(k));
    if (v > best.density) {
      best.density = v;
      best.position = g.cell_center(i, j, k);
      best.level = g.level();
    }
  });
  ENZO_REQUIRE(best.density >= 0, "empty hierarchy in find_densest_point");
  return best;
}

RadialProfile radial_profile(const mesh::Hierarchy& h, const ext::PosVec& c,
                             const ProfileOptions& opt,
                             const hydro::HydroParams& hp,
                             const chemistry::ChemUnits& units) {
  RadialProfile p;
  const int nb = opt.nbins;
  p.r.resize(nb);
  const double lmin = std::log10(opt.r_min), lmax = std::log10(opt.r_max);
  const double dl = (lmax - lmin) / nb;
  for (int b = 0; b < nb; ++b) p.r[b] = std::pow(10.0, lmin + (b + 0.5) * dl);
  std::vector<double> mass(nb, 0), volume(nb, 0), m_T(nb, 0), m_vr(nb, 0),
      m_cs(nb, 0), m_h2(nb, 0), m_hi(nb, 0), dm_mass(nb, 0), count(nb, 0);

  auto bin_of = [&](double r) -> int {
    if (r <= 0) return -1;
    const int b = static_cast<int>((std::log10(r) - lmin) / dl);
    return (b >= 0 && b < nb) ? b : -1;
  };

  const bool chem = !h.grids(0).empty() &&
                    h.grids(0)[0]->has_field(Field::kH2I);
  chemistry::ChemistryParams cp;

  for_each_leaf_cell(h, [&](const Grid& g, int i, int j, int k, double vol) {
    const auto x = g.cell_center(i, j, k);
    const double dx0 = sep(x[0], c[0], opt.periodic);
    const double dx1 = sep(x[1], c[1], opt.periodic);
    const double dx2 = sep(x[2], c[2], opt.periodic);
    const double r = std::sqrt(dx0 * dx0 + dx1 * dx1 + dx2 * dx2);
    const int b = bin_of(r);
    if (b < 0) return;
    const int si = g.sx(i), sj = g.sy(j), sk = g.sz(k);
    const double rho = g.field(Field::kDensity)(si, sj, sk);
    const double m = rho * vol;
    mass[b] += m;
    volume[b] += vol;
    count[b] += 1;
    // Radial velocity.
    const double vr = r > 0 ? (g.field(Field::kVelocityX)(si, sj, sk) * dx0 +
                               g.field(Field::kVelocityY)(si, sj, sk) * dx1 +
                               g.field(Field::kVelocityZ)(si, sj, sk) * dx2) /
                                  r
                            : 0.0;
    m_vr[b] += m * vr;
    const double ei =
        std::max(g.field(Field::kInternalEnergy)(si, sj, sk), 0.0);
    const double cs = std::sqrt(hp.gamma * (hp.gamma - 1.0) * ei);
    m_cs[b] += m * cs;
    double T;
    if (chem) {
      T = chemistry::cell_temperature(g, si, sj, sk, units);
      const double rH = cp.hydrogen_fraction * rho;
      m_h2[b] += m * g.field(Field::kH2I)(si, sj, sk) / rH;
      m_hi[b] += m * g.field(Field::kHI)(si, sj, sk) / rH;
    } else {
      T = (hp.gamma - 1.0) * ei * units.e_cgs * opt.mu_fallback *
          constants::kHydrogenMass / constants::kBoltzmann;
    }
    m_T[b] += m * T;
  });
  // Dark matter.
  for (int l = 0; l <= h.deepest_level(); ++l)
    for (const Grid* g : h.grids(l))
      for (const mesh::Particle& part : g->particles()) {
        const double dx0 = sep(part.x[0], c[0], opt.periodic);
        const double dx1 = sep(part.x[1], c[1], opt.periodic);
        const double dx2 = sep(part.x[2], c[2], opt.periodic);
        const int b = bin_of(std::sqrt(dx0 * dx0 + dx1 * dx1 + dx2 * dx2));
        if (b >= 0) dm_mass[b] += part.mass;
      }

  p.gas_density.resize(nb);
  p.dm_density.resize(nb);
  p.temperature.resize(nb);
  p.v_radial.resize(nb);
  p.sound_speed.resize(nb);
  p.h2_fraction.resize(nb);
  p.hi_fraction.resize(nb);
  p.enclosed_gas_mass.resize(nb);
  p.cell_count = count;
  double cum = 0;
  for (int b = 0; b < nb; ++b) {
    const double m = mass[b];
    p.gas_density[b] = volume[b] > 0 ? m / volume[b] : 0.0;
    p.temperature[b] = m > 0 ? m_T[b] / m : 0.0;
    p.v_radial[b] = m > 0 ? m_vr[b] / m : 0.0;
    p.sound_speed[b] = m > 0 ? m_cs[b] / m : 0.0;
    p.h2_fraction[b] = m > 0 ? m_h2[b] / m : 0.0;
    p.hi_fraction[b] = m > 0 ? m_hi[b] / m : 0.0;
    // Shell volume for DM density.
    const double r_lo = std::pow(10.0, lmin + b * dl);
    const double r_hi = std::pow(10.0, lmin + (b + 1) * dl);
    const double shell =
        4.0 / 3.0 * constants::kPi * (r_hi * r_hi * r_hi - r_lo * r_lo * r_lo);
    p.dm_density[b] = dm_mass[b] / shell;
    cum += m;
    p.enclosed_gas_mass[b] = cum;
  }
  return p;
}

Slice density_slice(const mesh::Hierarchy& h, int axis, ext::pos_t coord,
                    const std::array<double, 2>& center2d, double half,
                    int n) {
  Slice s;
  s.n = n;
  s.log10_density.assign(static_cast<std::size_t>(n) * n, 0.0);
  s.min_log = 1e300;
  s.max_log = -1e300;
  const int a1 = (axis + 1) % 3, a2 = (axis + 2) % 3;

  for (int v = 0; v < n; ++v) {
    for (int u = 0; u < n; ++u) {
      ext::PosVec x;
      x[axis] = ext::fmod_pos(coord, ext::pos_t(1.0));
      const double xu = center2d[0] - half + (u + 0.5) * (2 * half / n);
      const double xv = center2d[1] - half + (v + 0.5) * (2 * half / n);
      x[a1] = ext::fmod_pos(ext::pos_t(xu), ext::pos_t(1.0));
      x[a2] = ext::fmod_pos(ext::pos_t(xv), ext::pos_t(1.0));
      // Finest grid containing the point.
      const Grid* best = nullptr;
      for (int l = h.deepest_level(); l >= 0 && !best; --l)
        for (const Grid* g : h.grids(l))
          if (g->contains_position(x)) {
            best = g;
            break;
          }
      ENZO_REQUIRE(best != nullptr, "slice point outside hierarchy");
      s.finest_level_touched = std::max(s.finest_level_touched, best->level());
      int idx[3];
      for (int d = 0; d < 3; ++d) {
        idx[d] = static_cast<int>(best->local_index_of(x[d], d));
        idx[d] = std::clamp(idx[d], 0, best->nx(d) - 1);
      }
      const double rho = best->field(Field::kDensity)(
          best->sx(idx[0]), best->sy(idx[1]), best->sz(idx[2]));
      const double lg = std::log10(std::max(rho, 1e-300));
      s.log10_density[static_cast<std::size_t>(v) * n + u] = lg;
      s.min_log = std::min(s.min_log, lg);
      s.max_log = std::max(s.max_log, lg);
    }
  }
  return s;
}

HierarchyStats hierarchy_stats(const mesh::Hierarchy& h) {
  HierarchyStats s;
  s.max_level = h.deepest_level();
  s.total_grids = h.total_grids();
  s.total_cells = h.total_cells();
  s.grids_per_level = h.grids_per_level();
  s.work_per_level = h.work_per_level();
  const double wmax =
      s.work_per_level.empty()
          ? 1.0
          : *std::max_element(s.work_per_level.begin(), s.work_per_level.end());
  if (wmax > 0)
    for (double& w : s.work_per_level) w /= wmax;
  return s;
}

}  // namespace enzo::analysis
