#include "nbody/nbody.hpp"

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "exec/executor.hpp"
#include "mesh/topology.hpp"
#include "perf/metrics.hpp"
#include "perf/trace.hpp"
#include "util/error.hpp"
#include "util/flops.hpp"

namespace enzo::nbody {

using mesh::Grid;
using mesh::Particle;

namespace {

int gm_ghost(const Grid& g, int d) {
  return g.spec().level_dims[d] > 1 ? 1 : 0;
}

/// CIC geometry for one particle on one grid: base cell (local, may be -1)
/// and the weight of the base cell per axis.
struct Cic {
  int base[3];
  double w0[3];
};

Cic cic_of(const Grid& g, const Particle& p) {
  Cic c;
  for (int d = 0; d < 3; ++d) {
    if (g.spec().level_dims[d] == 1) {
      c.base[d] = 0;
      c.w0[d] = 1.0;
      continue;
    }
    // Cell-center coordinate: xi = x/dx − 1/2 (extended precision, then the
    // residual fraction is safely double).
    const ext::pos_t xi =
        p.x[d] * ext::pos_t(static_cast<double>(g.spec().level_dims[d])) -
        ext::pos_t(0.5);
    const ext::pos_t fl = ext::floor(xi);
    const std::int64_t gbase = static_cast<std::int64_t>(fl.to_double());
    const double frac = (xi - fl).to_double();
    c.base[d] = static_cast<int>(gbase - g.box().lo[d]);
    c.w0[d] = 1.0 - frac;
  }
  return c;
}

/// One particle's cloud on a grid's gravitating-mass storage: the flat
/// index and k-plane of its base cell, the base-cell weight per axis, and
/// its density.  Kept compact: the deposit writes and reads one per
/// particle.
struct Cloud {
  std::int32_t at;
  std::int32_t k;
  double w0[3];
  double dens;
};

}  // namespace

void deposit_particles_cic(Grid& g, exec::LevelExecutor* ex) {
  if (g.particles().empty()) return;
  ENZO_REQUIRE(g.has_gravity(), "deposit requires allocated gravity arrays");
  static perf::Counter& deposits =
      perf::Registry::global().counter("nbody.cic_deposits");
  const mesh::ConstParticleView pp = std::as_const(g).particles();
  const std::size_t np = pp.size();
  deposits.add(np);
  const mesh::FieldView gm = g.gravitating_mass();
  double cellvol = 1.0;
  for (int d = 0; d < 3; ++d)
    cellvol *= 1.0 / static_cast<double>(g.spec().level_dims[d]);
  const double inv_vol = 1.0 / cellvol;
  const int gx = gm_ghost(g, 0), gy = gm_ghost(g, 1), gz = gm_ghost(g, 2);

  // Pass 1, over particle chunks: each particle's cloud.  The whole cloud
  // must lie in the storage (the one-cell ghost layer absorbs edge clouds).
  const auto clouds = std::make_unique_for_overwrite<Cloud[]>(np);
  exec::maybe_parallel_for(ex, np, 1024, [&](std::size_t b, std::size_t e) {
    for (std::size_t n = b; n < e; ++n) {
      const Cic c = cic_of(g, pp[n]);
      const int i = c.base[0] + gx, j = c.base[1] + gy, k = c.base[2] + gz;
      ENZO_REQUIRE(gm.contains(i, j, k) && gm.contains(i + gx, j + gy, k + gz),
                   "CIC deposit escaped the ghost layer");
      clouds[n] = {static_cast<std::int32_t>(gm.index(i, j, k)), k,
                   {c.w0[0], c.w0[1], c.w0[2]}, pp[n].mass * inv_vol};
    }
  });
  // Pass 2, over slabs of k-planes: every slab walks all clouds in particle
  // order and adds only the terms that land in its planes, so each cell sums
  // its terms in the serial order at any lane count.
  const int planes = gm.nz();
  const int lanes = ex != nullptr ? ex->threads() : 1;
  const auto slab = static_cast<std::size_t>((planes + lanes - 1) / lanes);
  const std::ptrdiff_t sy = gm.stride(1), sz = gm.stride(2);
  double* const mass = gm.data();
  exec::maybe_parallel_for(
      ex, static_cast<std::size_t>(planes), slab,
      [&](std::size_t k0, std::size_t k1) {
        const auto lo = static_cast<int>(k0), hi = static_cast<int>(k1);
        for (const Cloud& c : std::span(clouds.get(), np)) {
          if (c.k + gz < lo || c.k >= hi) continue;
          for (int bz = 0; bz <= gz; ++bz) {
            if (c.k + bz < lo || c.k + bz >= hi) continue;
            const double wz = bz ? 1.0 - c.w0[2] : c.w0[2];
            for (int by = 0; by <= gy; ++by) {
              const double wy = by ? 1.0 - c.w0[1] : c.w0[1];
              for (int bx = 0; bx <= gx; ++bx) {
                const double wx = bx ? 1.0 - c.w0[0] : c.w0[0];
                mass[c.at + bz * sz + by * sy + bx] += wx * wy * wz * c.dens;
              }
            }
          }
        }
      });
  // A grid covering the whole periodic domain wraps its ghost deposits back
  // into the active region so no mass is lost.
  if (g.covers_periodic_domain()) {
    const int nx = g.nx(0), ny = g.nx(1), nz = g.nx(2);
    for (int k = -gz; k < nz + gz; ++k)
      for (int j = -gy; j < ny + gy; ++j)
        for (int i = -gx; i < nx + gx; ++i) {
          const bool ghost_cell = i < 0 || i >= nx || j < 0 || j >= ny ||
                                  k < 0 || k >= nz;
          if (!ghost_cell) continue;
          const int wi = ((i % nx) + nx) % nx;
          const int wj = ((j % ny) + ny) % ny;
          const int wk = ((k % nz) + nz) % nz;
          gm(wi + gx, wj + gy, wk + gz) += gm(i + gx, j + gy, k + gz);
          gm(i + gx, j + gy, k + gz) = 0.0;
        }
  }
  static util::ComponentFlops flops("nbody");
  flops.add(util::flop_cost::kCicPerParticle * np);
}

void kick_particles(Grid& g, double dt, double adot_over_a,
                    exec::LevelExecutor* ex) {
  if (g.particles().empty()) return;
  ENZO_REQUIRE(g.has_gravity(), "kick requires acceleration fields");
  const double x = 0.5 * adot_over_a * dt;
  const double decay = (1.0 - x) / (1.0 + x);
  const mesh::ParticleView pp = g.particles();
  exec::maybe_parallel_for(ex, pp.size(), 512, [&](std::size_t b,
                                                   std::size_t e) {
    for (std::size_t n = b; n < e; ++n) {
      Particle& p = pp[n];
      Cic c = cic_of(g, p);
      // Acceleration arrays cover active cells only: clamp the cloud.
      for (int d = 0; d < 3; ++d) {
        const int nmax = g.nx(d) - (g.spec().level_dims[d] > 1 ? 2 : 1);
        if (c.base[d] < 0) {
          c.base[d] = 0;
          c.w0[d] = 1.0;
        } else if (c.base[d] > nmax) {
          c.base[d] = nmax;
          c.w0[d] = 0.0;
        }
      }
      for (int d = 0; d < 3; ++d) {
        if (g.spec().level_dims[d] == 1) continue;
        const auto& acc = g.acceleration(d);
        double a_p = 0.0;
        for (int bz = 0; bz < (g.spec().level_dims[2] > 1 ? 2 : 1); ++bz)
          for (int by = 0; by < (g.spec().level_dims[1] > 1 ? 2 : 1); ++by)
            for (int bx = 0; bx < (g.spec().level_dims[0] > 1 ? 2 : 1); ++bx) {
              const double w = (bx ? 1.0 - c.w0[0] : c.w0[0]) *
                               (by ? 1.0 - c.w0[1] : c.w0[1]) *
                               (bz ? 1.0 - c.w0[2] : c.w0[2]);
              a_p += w * acc(c.base[0] + bx, c.base[1] + by, c.base[2] + bz);
            }
        p.v[d] = p.v[d] * decay + dt * a_p;
      }
      // Degenerate axes still feel the drag.
      for (int d = 0; d < 3; ++d)
        if (g.spec().level_dims[d] == 1) p.v[d] *= decay;
    }
  });
  static util::ComponentFlops flops("nbody");
  flops.add(util::flop_cost::kCicPerParticle * pp.size());
}

void drift_particles(Grid& g, double dt, double a, exec::LevelExecutor* ex) {
  const ext::pos_t one(1.0);
  const mesh::ParticleView pp = g.particles();
  const bool periodic = g.spec().periodic;
  exec::maybe_parallel_for(ex, pp.size(), 512, [&](std::size_t b,
                                                   std::size_t e) {
    for (std::size_t n = b; n < e; ++n)
      for (int d = 0; d < 3; ++d) {
        ext::pos_t& x = pp[n].x[d];
        x += ext::pos_t(pp[n].v[d] * dt / a);
        if (periodic) x = ext::fmod_pos(x, one);
      }
  });
}

double particle_timestep(const Grid& g, double a, double cfl) {
  double dt = std::numeric_limits<double>::max();
  for (const Particle& p : g.particles())
    for (int d = 0; d < 3; ++d) {
      if (g.spec().level_dims[d] == 1) continue;
      const double v = std::abs(p.v[d]);
      if (v > 0.0) dt = std::min(dt, cfl * a * g.cell_width_d(d) / v);
    }
  return dt;
}

void redistribute_particles(mesh::Hierarchy& h, exec::LevelExecutor* ex) {
  perf::TraceScope scope("redistribute_particles", perf::component::kNbody);
  // Re-home any particle that escaped its grid or for which a finer grid
  // now contains its position (the ownership invariant is finest-owner).
  // The topology point index answers finest-owner in O(1) per particle; its
  // candidate lists preserve grid order, so the owner it returns is the
  // grid a linear deepest-first scan would find.  The lookups run over
  // particle chunks; the keep/homeless split walks them in index order.
  const mesh::OverlapTopology& topo = h.topology();
  std::vector<std::pair<Particle, Grid*>> homeless;
  for (int l = h.deepest_level(); l >= 0; --l)
    for (Grid* g : h.grids(l)) {
      const mesh::ParticleView pp = g->particles();
      std::vector<Particle> keep;
      keep.reserve(pp.size());
      // Allocated after `keep`: allocated before it, this array left the
      // 32³ cosmology box's peak RSS 2.7 MB higher (glibc heap layout).
      std::vector<Grid*> owner(pp.size());
      exec::maybe_parallel_for(ex, pp.size(), 1024,
                               [&](std::size_t b, std::size_t e) {
                                 for (std::size_t n = b; n < e; ++n)
                                   owner[n] = topo.finest_owner(pp[n].x);
                               });
      for (std::size_t n = 0; n < pp.size(); ++n) {
        if (owner[n] == g)
          keep.push_back(pp[n]);
        else
          homeless.emplace_back(pp[n], owner[n]);
      }
      pp.swap(keep);
    }
  for (const auto& [p, dest] : homeless) {
    ENZO_REQUIRE(dest != nullptr,
                 "particle left the domain at (" +
                     std::to_string(ext::pos_to_double(p.x[0])) + ", " +
                     std::to_string(ext::pos_to_double(p.x[1])) + ", " +
                     std::to_string(ext::pos_to_double(p.x[2])) + ") v=(" +
                     std::to_string(p.v[0]) + ", " + std::to_string(p.v[1]) +
                     ", " + std::to_string(p.v[2]) + ")");
    dest->particles().push_back(p);
  }
}

std::size_t total_particles(const mesh::Hierarchy& h) {
  std::size_t n = 0;
  for (int l = 0; l <= h.deepest_level(); ++l)
    for (const Grid* g : h.grids(l)) n += g->particles().size();
  return n;
}

double total_particle_mass(const mesh::Hierarchy& h) {
  double m = 0;
  for (int l = 0; l <= h.deepest_level(); ++l)
    for (const Grid* g : h.grids(l))
      for (const Particle& p : g->particles()) m += p.mass;
  return m;
}

void create_lattice_particles(Grid& root, int n,
                              const std::array<util::Buffer3, 3>& psi,
                              double growth, double vfac, double total_mass) {
  ENZO_REQUIRE(psi[0].nx() == n && psi[0].ny() == n && psi[0].nz() == n,
               "displacement field resolution mismatch");
  const util::ArrayView3<const double> disp_field[3] = {
      psi[0].view(), psi[1].view(), psi[2].view()};
  const double mass = total_mass / (static_cast<double>(n) * n * n);
  const mesh::ParticleView pp = root.particles();
  pp.reserve(pp.size() + static_cast<std::size_t>(n) * n * n);
  std::uint64_t id = pp.size();
  const ext::pos_t one(1.0);
  const ext::pos_t inv_n(1.0 / n);
  for (int k = 0; k < n; ++k)
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i) {
        Particle p;
        const int idx[3] = {i, j, k};
        for (int d = 0; d < 3; ++d) {
          const double disp = growth * disp_field[d](i, j, k);
          p.x[d] = ext::fmod_pos(
              (ext::pos_t(static_cast<double>(idx[d])) + ext::pos_t(0.5)) *
                      inv_n +
                  ext::pos_t(disp),
              one);
          p.v[d] = vfac * disp_field[d](i, j, k);
        }
        p.mass = mass;
        p.id = id++;
        pp.push_back(p);
      }
}

}  // namespace enzo::nbody
