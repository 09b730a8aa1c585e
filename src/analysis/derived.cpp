#include "analysis/derived.hpp"

#include <algorithm>
#include <cmath>
#include <deque>

#include "analysis/leaf_cells.hpp"
#include "chemistry/rates.hpp"
#include "util/constants.hpp"
#include "util/error.hpp"

namespace enzo::analysis {

using mesh::Field;
using mesh::Grid;

using detail::for_each_leaf_cell;
using detail::sep;

CoolingTimeStats cooling_time_in_sphere(const mesh::Hierarchy& h,
                                        const ext::PosVec& center,
                                        double radius,
                                        const chemistry::ChemUnits& units) {
  CoolingTimeStats out;
  out.min = std::numeric_limits<double>::max();
  double msum = 0, mtsum = 0;
  const bool periodic = true;
  for_each_leaf_cell(h, [&](const Grid& g, int i, int j, int k, double vol) {
    const auto x = g.cell_center(i, j, k);
    const double dx0 = sep(x[0], center[0], periodic);
    const double dx1 = sep(x[1], center[1], periodic);
    const double dx2 = sep(x[2], center[2], periodic);
    if (dx0 * dx0 + dx1 * dx1 + dx2 * dx2 > radius * radius) return;
    const int si = g.sx(i), sj = g.sy(j), sk = g.sz(k);
    const double T = chemistry::cell_temperature(g, si, sj, sk, units);
    const double nfac = units.n_factor;
    chemistry::CoolingInput ci{
        T,
        units.t_cmb,
        g.field(Field::kHI)(si, sj, sk) * nfac,
        g.field(Field::kHII)(si, sj, sk) * nfac,
        g.field(Field::kHeI)(si, sj, sk) * nfac / 4.0,
        g.field(Field::kHeII)(si, sj, sk) * nfac / 4.0,
        g.field(Field::kHeIII)(si, sj, sk) * nfac / 4.0,
        g.field(Field::kElectron)(si, sj, sk) * nfac,
        g.field(Field::kH2I)(si, sj, sk) * nfac / 2.0,
        g.field(Field::kHDI)(si, sj, sk) * nfac / 3.0};
    const double lambda = chemistry::cooling_rate(ci);
    if (lambda <= 0) return;
    const double rho_cgs = g.field(Field::kDensity)(si, sj, sk) * units.rho_cgs;
    const double e_cgs =
        std::max(g.field(Field::kInternalEnergy)(si, sj, sk), 0.0) *
        units.e_cgs;
    const double tc = rho_cgs * e_cgs / lambda / units.time_s;  // code time
    const double m = g.field(Field::kDensity)(si, sj, sk) * vol;
    out.min = std::min(out.min, tc);
    msum += m;
    mtsum += m * tc;
    ++out.cells;
  });
  out.mass_weighted_mean = msum > 0 ? mtsum / msum : 0.0;
  if (out.cells == 0) out.min = 0.0;
  return out;
}

double two_body_relaxation_time(const mesh::Hierarchy& h,
                                const ext::PosVec& center, double radius) {
  // Gather member particles.
  std::size_t n = 0;
  double msum = 0, v2sum = 0;
  for (int l = 0; l <= h.deepest_level(); ++l)
    for (const Grid* g : h.grids(l))
      for (const mesh::Particle& p : g->particles()) {
        const double dx0 = sep(p.x[0], center[0], true);
        const double dx1 = sep(p.x[1], center[1], true);
        const double dx2 = sep(p.x[2], center[2], true);
        if (dx0 * dx0 + dx1 * dx1 + dx2 * dx2 > radius * radius) continue;
        ++n;
        msum += p.mass;
        v2sum += p.v[0] * p.v[0] + p.v[1] * p.v[1] + p.v[2] * p.v[2];
      }
  if (n < 2) return std::numeric_limits<double>::infinity();
  const double v_rms = std::sqrt(v2sum / static_cast<double>(n));
  if (v_rms <= 0) return std::numeric_limits<double>::infinity();
  const double t_cross = 2.0 * radius / v_rms;
  const double nn = static_cast<double>(n);
  return nn / (8.0 * std::log(std::max(nn, 2.0))) * t_cross;
}

double xray_luminosity(const mesh::Hierarchy& h, const ext::PosVec& center,
                       double radius, const chemistry::ChemUnits& units,
                       double length_cm_per_code) {
  double lum = 0;
  for_each_leaf_cell(h, [&](const Grid& g, int i, int j, int k, double vol) {
    const auto x = g.cell_center(i, j, k);
    const double dx0 = sep(x[0], center[0], true);
    const double dx1 = sep(x[1], center[1], true);
    const double dx2 = sep(x[2], center[2], true);
    if (dx0 * dx0 + dx1 * dx1 + dx2 * dx2 > radius * radius) return;
    const int si = g.sx(i), sj = g.sy(j), sk = g.sz(k);
    const double T = chemistry::cell_temperature(g, si, sj, sk, units);
    const double nfac = units.n_factor;
    const double n_e = g.field(Field::kElectron)(si, sj, sk) * nfac;
    const double n_ion = g.field(Field::kHII)(si, sj, sk) * nfac +
                         g.field(Field::kHeII)(si, sj, sk) * nfac / 4.0 +
                         4.0 * g.field(Field::kHeIII)(si, sj, sk) * nfac / 4.0;
    const double emissivity = 1.42e-27 * 1.3 * std::sqrt(T) * n_e * n_ion;
    const double cell_cm3 = vol * std::pow(length_cm_per_code, 3);
    lum += emissivity * cell_cm3;
  });
  return lum;
}

std::array<double, 3> InertiaTensor::eigenvalues() const {
  // Cyclic Jacobi on the symmetric 3×3.
  std::array<std::array<double, 3>, 3> a = I;
  for (int sweep = 0; sweep < 50; ++sweep) {
    double off = 0;
    for (int p = 0; p < 3; ++p)
      for (int q = p + 1; q < 3; ++q) off += a[p][q] * a[p][q];
    if (off < 1e-24) break;
    for (int p = 0; p < 3; ++p)
      for (int q = p + 1; q < 3; ++q) {
        if (std::abs(a[p][q]) < 1e-300) continue;
        const double theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q]);
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (int r = 0; r < 3; ++r) {
          const double arp = a[r][p], arq = a[r][q];
          a[r][p] = c * arp - s * arq;
          a[r][q] = s * arp + c * arq;
        }
        for (int r = 0; r < 3; ++r) {
          const double apr = a[p][r], aqr = a[q][r];
          a[p][r] = c * apr - s * aqr;
          a[q][r] = s * apr + c * aqr;
        }
      }
  }
  std::array<double, 3> ev{a[0][0], a[1][1], a[2][2]};
  std::sort(ev.begin(), ev.end());
  return ev;
}

double InertiaTensor::sphericity() const {
  const auto ev = eigenvalues();
  return ev[2] > 0 ? ev[0] / ev[2] : 0.0;
}

InertiaTensor gas_inertia_tensor(const mesh::Hierarchy& h,
                                 const ext::PosVec& center, double radius) {
  InertiaTensor out;
  for_each_leaf_cell(h, [&](const Grid& g, int i, int j, int k, double vol) {
    const auto x = g.cell_center(i, j, k);
    const double d[3] = {sep(x[0], center[0], true), sep(x[1], center[1], true),
                         sep(x[2], center[2], true)};
    if (d[0] * d[0] + d[1] * d[1] + d[2] * d[2] > radius * radius) return;
    const double m =
        g.field(Field::kDensity)(g.sx(i), g.sy(j), g.sz(k)) * vol;
    out.mass += m;
    const double r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
    for (int p = 0; p < 3; ++p)
      for (int q = 0; q < 3; ++q)
        out.I[p][q] += m * ((p == q ? r2 : 0.0) - d[p] * d[q]);
  });
  return out;
}

Projection surface_density(const mesh::Hierarchy& h, int axis, int n) {
  Projection out;
  out.n = n;
  out.sigma.assign(static_cast<std::size_t>(n) * n, 0.0);
  const int a1 = (axis + 1) % 3, a2 = (axis + 2) % 3;
  for_each_leaf_cell(h, [&](const Grid& g, int i, int j, int k, double vol) {
    const int idx[3] = {i, j, k};
    (void)idx;
    const auto x = g.cell_center(i, j, k);
    // Column length through the cell: its own width along the axis.
    const double dl = g.cell_width_d(axis);
    const double rho =
        g.field(Field::kDensity)(g.sx(i), g.sy(j), g.sz(k));
    // The cell's transverse footprint may span several map pixels (coarse
    // cells) or a fraction of one (fine cells): accumulate by overlap.
    const double w = g.cell_width_d(a1);
    const double u0 = ext::pos_to_double(x[a1]) - 0.5 * w;
    const double v0 = ext::pos_to_double(x[a2]) - 0.5 * g.cell_width_d(a2);
    const double px = 1.0 / n;
    const int ulo = std::clamp(static_cast<int>(u0 / px), 0, n - 1);
    const int uhi = std::clamp(static_cast<int>((u0 + w) / px - 1e-12), 0, n - 1);
    const int vlo = std::clamp(static_cast<int>(v0 / px), 0, n - 1);
    const int vhi = std::clamp(
        static_cast<int>((v0 + g.cell_width_d(a2)) / px - 1e-12), 0, n - 1);
    for (int vv = vlo; vv <= vhi; ++vv)
      for (int uu = ulo; uu <= uhi; ++uu) {
        // Overlap fractions along each transverse axis.
        const double ou = std::max(
            0.0, std::min(u0 + w, (uu + 1) * px) - std::max(u0, uu * px));
        const double ov = std::max(
            0.0, std::min(v0 + g.cell_width_d(a2), (vv + 1) * px) -
                     std::max(v0, vv * px));
        out.sigma[static_cast<std::size_t>(vv) * n + uu] +=
            rho * dl * (ou / px) * (ov / px);
      }
    (void)vol;
  });
  out.min = *std::min_element(out.sigma.begin(), out.sigma.end());
  out.max = *std::max_element(out.sigma.begin(), out.sigma.end());
  return out;
}

std::vector<Clump> find_clumps(const mesh::Hierarchy& h,
                               double density_threshold, int map_level) {
  // Build the finest-coverage density map at map_level resolution.
  const mesh::Index3 dims = h.level_dims(map_level);
  const int nx = static_cast<int>(dims[0]);
  const int ny = static_cast<int>(dims[1]);
  const int nz = static_cast<int>(dims[2]);
  util::Buffer3 map_buf(nx, ny, nz);
  const mesh::FieldView map = map_buf.view();
  // Coarse levels first; finer levels overwrite (volume-averaged upward by
  // construction of the hierarchy's projection, so level-l data are the
  // best available on their footprint).
  for (int l = 0; l <= std::min(map_level, h.deepest_level()); ++l)
    for (const Grid* g : h.grids(l)) {
      const std::int64_t r = dims[0] / g->spec().level_dims[0];
      for (int k = 0; k < g->nx(2); ++k)
        for (int j = 0; j < g->nx(1); ++j)
          for (int i = 0; i < g->nx(0); ++i) {
            const double rho =
                g->field(Field::kDensity)(g->sx(i), g->sy(j), g->sz(k));
            for (std::int64_t ck = 0; ck < (nz > 1 ? r : 1); ++ck)
              for (std::int64_t cj = 0; cj < (ny > 1 ? r : 1); ++cj)
                for (std::int64_t ci = 0; ci < (nx > 1 ? r : 1); ++ci)
                  map(static_cast<int>((g->box().lo[0] + i) * (nx > 1 ? r : 1) + ci),
                      static_cast<int>((g->box().lo[1] + j) * (ny > 1 ? r : 1) + cj),
                      static_cast<int>((g->box().lo[2] + k) * (nz > 1 ? r : 1) + ck)) =
                      rho;
          }
    }

  // 6-connected flood fill above threshold (periodic).
  std::vector<int> label_data(map.size(), -1);
  const util::ArrayView3<int> label(label_data.data(), nx, ny, nz);
  std::vector<Clump> clumps;
  const double cellvol = 1.0 / (static_cast<double>(nx) * ny * nz);
  for (int k0 = 0; k0 < nz; ++k0)
    for (int j0 = 0; j0 < ny; ++j0)
      for (int i0 = 0; i0 < nx; ++i0) {
        if (map(i0, j0, k0) < density_threshold || label(i0, j0, k0) >= 0)
          continue;
        const int id = static_cast<int>(clumps.size());
        Clump c;
        double wx = 0, wy = 0, wz = 0;
        std::deque<std::array<int, 3>> queue{{i0, j0, k0}};
        label(i0, j0, k0) = id;
        while (!queue.empty()) {
          auto [i, j, k] = queue.front();
          queue.pop_front();
          const double rho = map(i, j, k);
          const double m = rho * cellvol;
          c.mass += m;
          c.cells += 1;
          c.peak_density = std::max(c.peak_density, rho);
          // Mass-weighted center with minimum-image relative to the seed.
          auto rel = [](int a, int a0, int nn) {
            int d = a - a0;
            if (d > nn / 2) d -= nn;
            if (d < -nn / 2) d += nn;
            return d;
          };
          wx += m * rel(i, i0, nx);
          wy += m * rel(j, j0, ny);
          wz += m * rel(k, k0, nz);
          const int di[6] = {1, -1, 0, 0, 0, 0};
          const int dj[6] = {0, 0, 1, -1, 0, 0};
          const int dk[6] = {0, 0, 0, 0, 1, -1};
          for (int nb = 0; nb < 6; ++nb) {
            const int ii = ((i + di[nb]) % nx + nx) % nx;
            const int jj = ((j + dj[nb]) % ny + ny) % ny;
            const int kk = ((k + dk[nb]) % nz + nz) % nz;
            if (map(ii, jj, kk) >= density_threshold && label(ii, jj, kk) < 0) {
              label(ii, jj, kk) = id;
              queue.push_back({ii, jj, kk});
            }
          }
        }
        auto wrap01 = [](double v) { return v - std::floor(v); };
        c.center[0] = ext::pos_t(wrap01((i0 + 0.5 + wx / c.mass) / nx));
        c.center[1] = ext::pos_t(wrap01((j0 + 0.5 + wy / c.mass) / ny));
        c.center[2] = ext::pos_t(wrap01((k0 + 0.5 + wz / c.mass) / nz));
        clumps.push_back(c);
      }
  std::sort(clumps.begin(), clumps.end(),
            [](const Clump& a, const Clump& b) { return a.mass > b.mass; });
  return clumps;
}

}  // namespace enzo::analysis
