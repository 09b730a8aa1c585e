// Hydro driver for one grid: dimensional splitting, flux-register
// accumulation, expansion and gravity source terms, dual-energy
// synchronization, and the CFL timestep (§3.2.1).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>

#include "exec/executor.hpp"
#include "hydro/hydro.hpp"
#include "hydro/pencil.hpp"
#include "perf/metrics.hpp"
#include "perf/trace.hpp"
#include "util/annotations.hpp"
#include "util/arena.hpp"
#include "util/error.hpp"
#include "util/flops.hpp"

namespace enzo::hydro {

using mesh::ConstFieldView;
using mesh::Field;
using mesh::FieldView;
using mesh::Grid;

namespace {

constexpr Field kVel[3] = {Field::kVelocityX, Field::kVelocityY,
                           Field::kVelocityZ};

std::vector<Field> species_fields(const Grid& g) {
  std::vector<Field> out;
  for (Field f : g.field_list())
    if (mesh::is_species(f)) out.push_back(f);
  return out;
}

/// Per-thread batch workspace: the sweep driver runs one batch at a time per
/// thread, so a single thread-local workspace keeps the sweeps
/// allocation-free while keeping batches private to their executor thread.
PencilBatch& batch_scratch() {
  thread_local PencilBatch pb;
  return pb;
}

/// Thread-local, arena-backed scratch for the ZEUS source step: the viscous
/// pressures q[3] and the gas pressure p.  Blocks come from the process-wide
/// solver scratch arena, so repeated calls on same-shaped grids are
/// allocation-free and differently-shaped grids recycle each other's blocks.
struct ZeusScratch {
  util::Buffer3 q[3];
  util::Buffer3 p;
};

struct ZeusViews {
  FieldView q[3];
  FieldView p;
};

/// Reshape the scratch for this grid and hand out views, zero-filled like
/// the freshly-constructed arrays the source step used to allocate.
/// Deliberately not ENZO_HOT: any (re)acquisition happens here, outside the
/// stencil loops.
ZeusViews zeus_scratch_views(const Grid& g) {
  thread_local ZeusScratch s = [] {
    ZeusScratch z;
    for (auto& b : z.q) b.set_arena(&util::Arena::scratch());
    z.p.set_arena(&util::Arena::scratch());
    return z;
  }();
  ZeusViews v;
  for (int d = 0; d < 3; ++d) {
    s.q[d].resize(g.nt(0), g.nt(1), g.nt(2), 0.0);
    v.q[d] = s.q[d].view();
  }
  s.p.resize(g.nt(0), g.nt(1), g.nt(2), 0.0);
  v.p = s.p.view();
  return v;
}

/// ZEUS grid-wide source step: pressure gradient, artificial viscosity and
/// compression heating, using ghost data for the one-cell stencils.
ENZO_HOT void zeus_source_step(Grid& g, double dt, const HydroParams& hp,
                               const cosmology::Expansion& exp) {
  const double gamma = hp.gamma;
  const ConstFieldView rho = g.field(Field::kDensity);
  const FieldView eint = g.field(Field::kInternalEnergy);
  // Per-axis viscous pressures on active+1 cells (arena-backed scratch).
  const ZeusViews zs = zeus_scratch_views(g);
  const FieldView p = zs.p;
  const FieldView* q = zs.q;
  for (int k = 0; k < g.nt(2); ++k)
    for (int j = 0; j < g.nt(1); ++j)
      for (int i = 0; i < g.nt(0); ++i)
        p(i, j, k) = std::max((gamma - 1.0) * rho(i, j, k) * eint(i, j, k),
                              hp.pressure_floor);
  for (int d = 0; d < 3; ++d) {
    if (g.spec().level_dims[d] == 1) continue;
    const ConstFieldView v = g.field(kVel[d]);
    const int off[3] = {d == 0 ? 1 : 0, d == 1 ? 1 : 0, d == 2 ? 1 : 0};
    for (int k = off[2]; k < g.nt(2) - off[2]; ++k)
      for (int j = off[1]; j < g.nt(1) - off[1]; ++j)
        for (int i = off[0]; i < g.nt(0) - off[0]; ++i) {
          const double du = 0.5 * (v(i + off[0], j + off[1], k + off[2]) -
                                   v(i - off[0], j - off[1], k - off[2]));
          if (du < 0.0)
            q[d](i, j, k) = hp.zeus_viscosity * hp.zeus_viscosity *
                            rho(i, j, k) * du * du;
        }
  }
  // Velocity kick and heating on active cells.
  for (int k = g.sz(0); k < g.sz(g.nx(2)); ++k)
    for (int j = g.sy(0); j < g.sy(g.nx(1)); ++j)
      for (int i = g.sx(0); i < g.sx(g.nx(0)); ++i) {
        double divv = 0.0;
        for (int d = 0; d < 3; ++d) {
          if (g.spec().level_dims[d] == 1) continue;
          const double dx_eff = exp.a * g.cell_width_d(d);
          const int off[3] = {d == 0 ? 1 : 0, d == 1 ? 1 : 0, d == 2 ? 1 : 0};
          const FieldView v = g.field(kVel[d]);
          const double grad =
              (p(i + off[0], j + off[1], k + off[2]) +
               q[d](i + off[0], j + off[1], k + off[2]) -
               p(i - off[0], j - off[1], k - off[2]) -
               q[d](i - off[0], j - off[1], k - off[2])) /
              (2.0 * dx_eff);
          v(i, j, k) -= dt * grad / rho(i, j, k);
          divv += 0.5 *
                  (v(i + off[0], j + off[1], k + off[2]) -
                   v(i - off[0], j - off[1], k - off[2])) /
                  dx_eff;
        }
        const double qtot = q[0](i, j, k) + q[1](i, j, k) + q[2](i, j, k);
        eint(i, j, k) = std::max(
            eint(i, j, k) -
                dt * (p(i, j, k) + qtot) / rho(i, j, k) * divv,
            0.0);
      }
}

}  // namespace

ENZO_HOT SweepCounts sweep_all_axes(Grid& g, double dt,
                                    const HydroParams& hp,
                                    const cosmology::Expansion& exp,
                                    exec::LevelExecutor* ex) {
  // enzo-lint: allow(hotpath-heap-alloc) once per grid call, not per batch
  const std::vector<Field> species = species_fields(g);
  const int nscal = static_cast<int>(species.size());
  const SweepParams sp{hp.gamma, hp.flattening, hp.zeus_viscosity};
  const bool ppm = hp.solver == Solver::kPpm;
  static util::ComponentFlops flops("hydro");

  const char* sweep_names[2][3] = {{"ppm_sweep_x", "ppm_sweep_y",
                                    "ppm_sweep_z"},
                                   {"zeus_sweep_x", "zeus_sweep_y",
                                    "zeus_sweep_z"}};
  // The sweep order actually run: the non-degenerate axes, x first.
  int order[3];
  int nsweeps = 0;
  for (int d = 0; d < 3; ++d)
    if (g.spec().level_dims[d] > 1) order[nsweeps++] = d;
  // Split sweeps consume ghost data; for a grid covering the whole
  // periodic domain the wrap can be refreshed exactly between sweeps,
  // keeping the conservative update exact at the external boundary.  The
  // wrap reaches every ghost cell only if no axis is shorter than its ghost
  // depth (the periodic images are one domain length away).
  const bool rewraps = g.covers_periodic_domain();
  bool rewrap_reaches_all = rewraps;
  for (int d = 0; d < 3; ++d)
    rewrap_reaches_all = rewrap_reaches_all && g.nx(d) >= g.ng(d);
  const int ghost[3] = {g.ng(0), g.ng(1), g.ng(2)};
  // enzo-lint: allow(hotpath-heap-alloc) once per grid call, not per batch
  std::vector<util::ArrayView3<double>> species_views(
      static_cast<std::size_t>(nscal));
  // enzo-lint: allow(hotpath-heap-alloc) once per grid call, not per batch
  std::vector<FluxTarget> targets(static_cast<std::size_t>(6 + nscal));
  SweepCounts counts;
  for (int s = 0; s < nsweeps; ++s) {
    const int d = order[s];
    ENZO_REQUIRE(g.ng(d) >= min_ghost_zones(hp.solver),
                 "hydro sweep: fewer ghost cells than the solver's stencil "
                 "reads (GhostZones)");
    perf::TraceScope sweep_scope(sweep_names[ppm ? 0 : 1][d],
                                 perf::component::kHydro, g.level());
    if (s > 0 && rewraps) g.wrap_own_ghosts();
    const int t1 = (d + 1) % 3, t2 = (d + 2) % 3;
    const double dx_eff = exp.a * g.cell_width_d(d);
    const int np = g.nt(d);

    // Live pencils.  A pencil updates only the active cells of its line, so
    // a pencil in a ghost row of transverse axis t writes nothing but ghost
    // cells.  Within this call only a later sweep along t reads those, and
    // only when no rewrap has replaced them first; otherwise the next
    // boundary fill overwrites them unread.  So t contributes its ghost rows
    // only when it is swept later and the rewrap does not reach every ghost
    // cell; every active cell, and every register entry, stays the same.
    int first[3] = {0, 0, 0}, count[3] = {1, 1, 1};
    for (const int t : {t1, t2}) {
      const bool later =
          std::find(order + s + 1, order + nsweeps, t) != order + nsweeps;
      const bool ghost_rows = later && !rewrap_reaches_all;
      first[t] = ghost_rows ? 0 : g.ng(t);
      count[t] = ghost_rows ? g.nt(t) : g.nx(t);
    }
    // Batch axis: the fastest transverse axis the level does not collapse
    // (the fastest one when it collapses both).
    const int lower = std::min(t1, t2), upper = std::max(t1, t2);
    const bool lower_live =
        g.spec().level_dims[lower] > 1 || g.spec().level_dims[upper] == 1;
    const int a = lower_live ? lower : upper;
    const int o = lower_live ? upper : lower;

    for (int sc = 0; sc < nscal; ++sc)
      species_views[static_cast<std::size_t>(sc)] =
          g.field(species[static_cast<std::size_t>(sc)]);
    const BatchFields bf{g.field(Field::kDensity),
                         g.field(kVel[d]),
                         g.field(kVel[t1]),
                         g.field(kVel[t2]),
                         g.field(Field::kTotalEnergy),
                         g.field(Field::kInternalEnergy),
                         species_views.data()};
    // Flux lane q adds into targets[q] (register order, pencil.hpp).
    const Field flux_fields[6] = {Field::kDensity,     kVel[d],
                                  kVel[t1],            kVel[t2],
                                  Field::kTotalEnergy, Field::kInternalEnergy};
    for (int q = 0; q < 6 + nscal; ++q) {
      const Field fld = q < 6 ? flux_fields[q]
                              : species[static_cast<std::size_t>(q - 6)];
      targets[static_cast<std::size_t>(q)] = {g.flux(fld, d),
                                              g.boundary_flux(fld, d, 0),
                                              g.boundary_flux(fld, d, 1)};
    }
    // Registers store ∫ F dt/a, with a at each subcycle's half-time: the
    // cell update divides by the *proper* width a·Δx, so the correction
    // (which divides by the comoving parent width only) closes exactly even
    // when a changes between a child's subcycles.  a = 1 in non-comoving
    // runs.
    const double dt_w = dt / exp.a;

    // Batches are independent — each reads its own pre-sweep lines and
    // writes its own cells, register lines and boundary-flux entries — so
    // the executor may chunk them freely.  They follow the grid's geometry,
    // not the chunks, so every result and count is the same at any lane
    // count.
    const std::size_t per_row =
        (static_cast<std::size_t>(count[a]) + kBatch - 1) / kBatch;
    const std::size_t nbatches = per_row * static_cast<std::size_t>(count[o]);
    std::atomic<std::uint64_t> riemann_sweeps{0};
    exec::maybe_parallel_for(
        ex, nbatches, 1, [&](std::size_t begin, std::size_t end) {
      PencilBatch& pb = batch_scratch();
      pb.reset(np, g.ng(d), nscal);
      std::uint64_t sweeps = 0;
      for (std::size_t idx = begin; idx < end; ++idx) {
        const int q = static_cast<int>(idx % per_row);
        BatchPlace at;
        at.d = d;
        at.a = a;
        at.o = o;
        at.a0 = first[a] + q * kBatch;
        at.o0 = first[o] + static_cast<int>(idx / per_row);
        at.live = std::min(kBatch, count[a] - q * kBatch);
        gather_batch(pb, bf, at, hp.gamma, hp.pressure_floor);
        if (ppm)
          sweeps += ppm_sweep_batch(pb, dt, dx_eff, sp) *
                    static_cast<std::uint64_t>(at.live);
        else
          zeus_sweep_batch(pb, sp);
        update_batch(pb, dt, dx_eff, hp.density_floor);
        scatter_batch(pb, bf, at);
        // Only pencils whose transverse coordinates are active own register
        // lines (the registers hold active faces only).
        add_batch_fluxes(pb, targets.data(), at, ghost, dt_w);
      }
      riemann_sweeps.fetch_add(sweeps, std::memory_order_relaxed);
    });
    const std::uint64_t swept = static_cast<std::uint64_t>(count[a]) *
                                static_cast<std::uint64_t>(count[o]) *
                                static_cast<std::uint64_t>(np);
    counts.pencil_cells += swept;
    counts.riemann_sweeps += riemann_sweeps.load(std::memory_order_relaxed);
    // kPpmPerCellPerSweep already covers the full variable set; passive
    // scalars add roughly reconstruction + upwinding each.
    const std::uint64_t cost =
        (ppm ? util::flop_cost::kPpmPerCellPerSweep
             : util::flop_cost::kZeusPerCellPerSweep) +
        12 * static_cast<std::uint64_t>(nscal);
    flops.add(cost * swept);
  }
  return counts;
}

namespace {

/// Crank–Nicolson decay factor for dq/dt = -k q over dt.
double cn_decay(double k, double dt) {
  const double x = 0.5 * k * dt;
  return (1.0 - x) / (1.0 + x);
}

ENZO_HOT void apply_expansion_sources(Grid& g, double dt,
                                      const HydroParams& hp,
                                      const cosmology::Expansion& exp) {
  if (exp.adot_over_a == 0.0) return;
  const double fv = cn_decay(exp.adot_over_a, dt);
  const double fe = cn_decay(3.0 * (hp.gamma - 1.0) * exp.adot_over_a, dt);
  const FieldView vx = g.field(Field::kVelocityX);
  const FieldView vy = g.field(Field::kVelocityY);
  const FieldView vz = g.field(Field::kVelocityZ);
  const FieldView etot = g.field(Field::kTotalEnergy);
  const FieldView eint = g.field(Field::kInternalEnergy);
  for (int k = g.sz(0); k < g.sz(g.nx(2)); ++k)
    for (int j = g.sy(0); j < g.sy(g.nx(1)); ++j)
      for (int i = g.sx(0); i < g.sx(g.nx(0)); ++i) {
        const double v2_old = vx(i, j, k) * vx(i, j, k) +
                              vy(i, j, k) * vy(i, j, k) +
                              vz(i, j, k) * vz(i, j, k);
        vx(i, j, k) *= fv;
        vy(i, j, k) *= fv;
        vz(i, j, k) *= fv;
        const double ei_old = eint(i, j, k);
        eint(i, j, k) *= fe;
        // Keep total energy consistent via deltas (preserves the shock
        // heating information it carries).
        etot(i, j, k) += 0.5 * v2_old * (fv * fv - 1.0) +
                         (eint(i, j, k) - ei_old);
      }
}

ENZO_HOT void dual_energy_sync(Grid& g, const HydroParams& hp) {
  const FieldView vx = g.field(Field::kVelocityX);
  const FieldView vy = g.field(Field::kVelocityY);
  const FieldView vz = g.field(Field::kVelocityZ);
  const FieldView etot = g.field(Field::kTotalEnergy);
  const FieldView eint = g.field(Field::kInternalEnergy);
  const ConstFieldView rho = g.field(Field::kDensity);
  for (int k = g.sz(0); k < g.sz(g.nx(2)); ++k)
    for (int j = g.sy(0); j < g.sy(g.nx(1)); ++j)
      for (int i = g.sx(0); i < g.sx(g.nx(0)); ++i) {
        const double v2 = vx(i, j, k) * vx(i, j, k) +
                          vy(i, j, k) * vy(i, j, k) +
                          vz(i, j, k) * vz(i, j, k);
        const double ei_tot = etot(i, j, k) - 0.5 * v2;
        if (ei_tot > hp.dual_energy_eta1 * etot(i, j, k) && ei_tot > 0.0) {
          eint(i, j, k) = ei_tot;
        } else if (etot(i, j, k) <= 0.0 || ei_tot <= 0.0) {
          // Repair a kinetically-dominated or corrupted total energy.
          etot(i, j, k) = eint(i, j, k) + 0.5 * v2;
        }
        const double ei_floor =
            hp.pressure_floor / ((hp.gamma - 1.0) * rho(i, j, k));
        if (eint(i, j, k) < ei_floor) eint(i, j, k) = ei_floor;
      }
}

}  // namespace

int min_ghost_zones(Solver s) { return s == Solver::kPpm ? 3 : 2; }

void require_ghost_zones(int nghost, Solver s) {
  const int need = min_ghost_zones(s);
  ENZO_REQUIRE(nghost >= need,
               "GhostZones = " + std::to_string(nghost) + " is below " +
                   std::to_string(need) + ", the ghost depth the " +
                   (s == Solver::kPpm ? "PPM" : "Zeus") +
                   " solver's stencil reads (HydroMethod = " +
                   (s == Solver::kPpm ? "PPM" : "Zeus") + ")");
}

const char* dt_limiter_name(DtLimiter lim) {
  switch (lim) {
    case DtLimiter::kNone: return "none";
    case DtLimiter::kCfl: return "cfl";
    case DtLimiter::kExpansion: return "expansion";
    case DtLimiter::kAcceleration: return "acceleration";
    case DtLimiter::kParticle: return "particle";
    case DtLimiter::kStopTime: return "stop_time";
    case DtLimiter::kParentWindow: return "parent_window";
  }
  return "none";
}

ENZO_HOT TimestepInfo compute_timestep_info(const Grid& g,
                                            const HydroParams& params,
                                            const cosmology::Expansion& exp) {
  TimestepInfo info;
  double dt = std::numeric_limits<double>::max();
  const ConstFieldView rho = g.field(Field::kDensity);
  const ConstFieldView eint = g.field(Field::kInternalEnergy);
  const ConstFieldView vel[3] = {g.field(Field::kVelocityX),
                                 g.field(Field::kVelocityY),
                                 g.field(Field::kVelocityZ)};
  for (int k = g.sz(0); k < g.sz(g.nx(2)); ++k)
    for (int j = g.sy(0); j < g.sy(g.nx(1)); ++j)
      for (int i = g.sx(0); i < g.sx(g.nx(0)); ++i) {
        const double p = std::max(
            (params.gamma - 1.0) * rho(i, j, k) * eint(i, j, k),
            params.pressure_floor);
        const double c = std::sqrt(params.gamma * p / rho(i, j, k));
        for (int d = 0; d < 3; ++d) {
          if (g.spec().level_dims[d] == 1) continue;
          const double dx_eff = exp.a * g.cell_width_d(d);
          const double v = std::abs(vel[d](i, j, k));
          dt = std::min(dt, params.cfl * dx_eff / (v + c + 1e-300));
        }
      }
  if (dt < std::numeric_limits<double>::max()) info.limiter = DtLimiter::kCfl;
  // Expansion limiter.
  if (exp.adot_over_a > 0.0) {
    const double dt_exp = params.max_expansion / exp.adot_over_a;
    if (dt_exp < dt) {
      dt = dt_exp;
      info.limiter = DtLimiter::kExpansion;
    }
  }
  // Acceleration limiter.
  if (g.has_gravity()) {
    for (int d = 0; d < 3; ++d) {
      if (g.spec().level_dims[d] == 1) continue;
      const double gmax = std::max(std::abs(g.acceleration(d).min()),
                                   std::abs(g.acceleration(d).max()));
      if (gmax > 0.0) {
        const double dx_eff = exp.a * g.cell_width_d(d);
        const double dt_acc = params.cfl * std::sqrt(2.0 * dx_eff / gmax);
        if (dt_acc < dt) {
          dt = dt_acc;
          info.limiter = DtLimiter::kAcceleration;
        }
      }
    }
  }
  info.dt = dt;
  return info;
}

void solve_hydro_step(Grid& g, double dt, const HydroParams& params,
                      const cosmology::Expansion& exp,
                      exec::LevelExecutor* ex) {
  ENZO_REQUIRE(dt > 0.0, "hydro step requires dt > 0");
  // Per-step flux arrays are reset every solve (they describe *this* step,
  // the window the grid's own children must match).  The boundary registers
  // accumulate across subcycles — they describe the window of the *parent's*
  // step and are reset by the driver when that window opens.
  g.reset_fluxes();
  if (!g.has_boundary_fluxes()) g.reset_boundary_fluxes();
  if (params.solver == Solver::kZeus) zeus_source_step(g, dt, params, exp);
  const SweepCounts swept = sweep_all_axes(g, dt, params, exp, ex);
  apply_expansion_sources(g, dt, params, exp);
  dual_energy_sync(g, params);
  static perf::Counter& cells_updated =
      perf::Registry::global().counter("hydro.cells_updated");
  static perf::Counter& pencil_cells =
      perf::Registry::global().counter("hydro.pencil_cells");
  static perf::Counter& riemann_sweeps =
      perf::Registry::global().counter("hydro.riemann_sweeps");
  cells_updated.add(static_cast<std::uint64_t>(g.nx(0)) * g.nx(1) * g.nx(2));
  pencil_cells.add(swept.pencil_cells);
  riemann_sweeps.add(swept.riemann_sweeps);
}

ENZO_HOT void apply_gravity_sources(Grid& g, double dt,
                                    const HydroParams& params) {
  if (!g.has_gravity()) return;
  const FieldView etot = g.field(Field::kTotalEnergy);
  const FieldView v[3] = {g.field(Field::kVelocityX),
                          g.field(Field::kVelocityY),
                          g.field(Field::kVelocityZ)};
  for (int k = 0; k < g.nx(2); ++k)
    for (int j = 0; j < g.nx(1); ++j)
      for (int i = 0; i < g.nx(0); ++i) {
        const int si = g.sx(i), sj = g.sy(j), sk = g.sz(k);
        double v2_old = 0.0, v2_new = 0.0;
        for (int d = 0; d < 3; ++d) {
          const double vd = v[d](si, sj, sk);
          v2_old += vd * vd;
          const double vn = vd + dt * g.acceleration(d)(i, j, k);
          v[d](si, sj, sk) = vn;
          v2_new += vn * vn;
        }
        etot(si, sj, sk) += 0.5 * (v2_new - v2_old);
      }
  dual_energy_sync(g, params);
}

}  // namespace enzo::hydro
