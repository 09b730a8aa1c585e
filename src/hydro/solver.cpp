// Hydro driver for one grid: dimensional splitting, flux-register
// accumulation, expansion and gravity source terms, dual-energy
// synchronization, and the CFL timestep (§3.2.1).

#include <algorithm>
#include <cmath>

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

ENZO_HOT std::uint64_t sweep_all_axes(Grid& g, double dt,
                                      const HydroParams& hp,
                                      const cosmology::Expansion& exp,
                                      exec::LevelExecutor* ex) {
  // enzo-lint: allow(hotpath-heap-alloc) once per grid call, not per pencil
  const std::vector<Field> species = species_fields(g);
  const int nscal = static_cast<int>(species.size());
  const SweepParams sp{hp.gamma, hp.flattening, hp.zeus_viscosity};
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
  std::uint64_t pencil_cells = 0;
  for (int s = 0; s < nsweeps; ++s) {
    const int d = order[s];
    perf::TraceScope sweep_scope(
        sweep_names[hp.solver == Solver::kPpm ? 0 : 1][d],
        perf::component::kHydro, g.level());
    if (s > 0 && rewraps) g.wrap_own_ghosts();
    const int t1 = (d + 1) % 3, t2 = (d + 2) % 3;
    const double dx_eff = exp.a * g.cell_width_d(d);
    const int np = g.nt(d);
    const int lo = g.ng(d), hi = g.ng(d) + g.nx(d);

    // Live pencils.  A pencil updates only the active cells of its line, so
    // a pencil in a ghost row of transverse axis t writes nothing but ghost
    // cells.  Within this call only a later sweep along t reads those, and
    // only when no rewrap has replaced them first; otherwise the next
    // boundary fill overwrites them unread.  So t contributes its ghost rows
    // only when it is swept later and the rewrap does not reach every ghost
    // cell; every active cell, and every register entry, stays the same.
    const int ts[2] = {t1, t2};
    int first[2], count[2];
    for (int e = 0; e < 2; ++e) {
      const bool later =
          std::find(order + s + 1, order + nsweeps, ts[e]) != order + nsweeps;
      const bool ghost_rows = later && !rewrap_reaches_all;
      first[e] = ghost_rows ? 0 : g.ng(ts[e]);
      count[e] = ghost_rows ? g.nt(ts[e]) : g.nx(ts[e]);
    }

    const FieldView rho = g.field(Field::kDensity);
    const FieldView vu = g.field(kVel[d]);
    const FieldView v1 = g.field(kVel[t1]);
    const FieldView v2 = g.field(kVel[t2]);
    const FieldView etot = g.field(Field::kTotalEnergy);
    const FieldView eint = g.field(Field::kInternalEnergy);

    // Raw base pointers for the bulk gather/scatter (hoisted once per axis,
    // like the views above).
    // enzo-lint: allow(hotpath-heap-alloc) once per axis, not per pencil
    std::vector<double*> species_base(static_cast<std::size_t>(nscal));
    for (int sc = 0; sc < nscal; ++sc)
      species_base[static_cast<std::size_t>(sc)] =
          g.field(species[static_cast<std::size_t>(sc)]).data();
    const PencilFields pf{rho.data(),  vu.data(),   v1.data(),
                          v2.data(),   etot.data(), eint.data(),
                          species_base.data()};

    // Pencils are independent — each (j1, j2) pair reads its own pre-sweep
    // line and writes its own cells, flux-register line, and boundary-flux
    // entries — so the executor may chunk them freely.  (This replaces the
    // old OpenMP pragma: loop parallelism now lives only in the
    // LevelExecutor layer, so grid tasks and pencil chunks cannot
    // oversubscribe each other.)
    const int n1 = count[0], n2 = count[1];
    exec::maybe_parallel_for(
        ex, static_cast<std::size_t>(n1) * static_cast<std::size_t>(n2), 1,
        [&](std::size_t pencil_begin, std::size_t pencil_end) {
      for (std::size_t pidx = pencil_begin; pidx < pencil_end; ++pidx) {
        const int j2 =
            first[1] + static_cast<int>(pidx / static_cast<std::size_t>(n1));
        const int j1 =
            first[0] + static_cast<int>(pidx % static_cast<std::size_t>(n1));
        Pencil& pc = pencil_scratch();
        pc.reset(np, g.ng(d), nscal);
        const PencilMap pm = pencil_map(d, g.nt(0), g.nt(1), g.nt(2), j1, j2);
        gather_pencil(pc, pf, pm, hp.gamma, hp.pressure_floor);
        if (hp.solver == Solver::kPpm)
          ppm_sweep(pc, dt, dx_eff, sp);
        else
          zeus_sweep(pc, dt, dx_eff, sp);
        // Conservative update over the SoA lanes, then bulk scatter of the
        // active cells back to the grid.
        apply_conservative_update(pc, dt, dx_eff, hp.density_floor);
        scatter_pencil(pc, pf, pm);

        // Accumulate time-integrated fluxes for the flux correction step.
        // The registers hold active faces only, so only active pencils own
        // a register line: face lo + f of the pencil is entry f, at the
        // pencil's active transverse coordinates.  Registers store ∫ F dt/a,
        // with a at each subcycle's half-time: the cell update divides by
        // the *proper* width a·Δx, so the correction (which divides by the
        // comoving parent width only) closes exactly even when a changes
        // between a child's subcycles.  a = 1 in non-comoving runs.
        int c[3];
        c[d] = 0;
        c[t1] = j1 - g.ng(t1);
        c[t2] = j2 - g.ng(t2);
        if (c[t1] < 0 || c[t1] >= g.nx(t1) || c[t2] < 0 || c[t2] >= g.nx(t2))
          continue;
        const double dt_w = dt / exp.a;
        auto accumulate = [&](Field fld, const double* ff) {
          const FieldView reg = g.flux(fld, d);
          double* r = reg.line(d, hi - lo + 1, c[0], c[1], c[2]);
          const std::ptrdiff_t rs = reg.stride(d);
          for (int f = lo; f <= hi; ++f)
            r[static_cast<std::ptrdiff_t>(f - lo) * rs] += dt_w * ff[f];
          // Window-accumulated boundary registers (for the parent's flux
          // correction); plane arrays have extent 1 along d.
          g.boundary_flux(fld, d, 0)(c[0], c[1], c[2]) += dt_w * ff[lo];
          g.boundary_flux(fld, d, 1)(c[0], c[1], c[2]) += dt_w * ff[hi];
        };
        accumulate(Field::kDensity, pc.f_rho);
        accumulate(kVel[d], pc.f_mu);
        accumulate(kVel[t1], pc.f_mvt1);
        accumulate(kVel[t2], pc.f_mvt2);
        accumulate(Field::kTotalEnergy, pc.f_etot);
        accumulate(Field::kInternalEnergy, pc.f_eint);
        for (int sc = 0; sc < nscal; ++sc)
          accumulate(species[static_cast<std::size_t>(sc)], pc.f_scal(sc));
      }
    });
    const std::uint64_t swept =
        static_cast<std::uint64_t>(n1) * static_cast<std::uint64_t>(n2) *
        static_cast<std::uint64_t>(np);
    pencil_cells += swept;
    // kPpmPerCellPerSweep already covers the full variable set; passive
    // scalars add roughly reconstruction + upwinding each.
    const std::uint64_t cost =
        (hp.solver == Solver::kPpm ? util::flop_cost::kPpmPerCellPerSweep
                                   : util::flop_cost::kZeusPerCellPerSweep) +
        12 * static_cast<std::uint64_t>(nscal);
    flops.add(cost * swept);
  }
  return pencil_cells;
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
  const std::uint64_t gathered = sweep_all_axes(g, dt, params, exp, ex);
  apply_expansion_sources(g, dt, params, exp);
  dual_energy_sync(g, params);
  static perf::Counter& cells_updated =
      perf::Registry::global().counter("hydro.cells_updated");
  static perf::Counter& pencil_cells =
      perf::Registry::global().counter("hydro.pencil_cells");
  cells_updated.add(static_cast<std::uint64_t>(g.nx(0)) * g.nx(1) * g.nx(2));
  pencil_cells.add(gathered);
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
