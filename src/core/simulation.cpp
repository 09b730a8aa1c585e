#include "core/simulation.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "chemistry/chemistry.hpp"
#include "gravity/gravity.hpp"
#include "hydro/hydro.hpp"
#include "util/constants.hpp"
#include "mesh/boundary.hpp"
#include "mesh/project.hpp"
#include "mesh/topology.hpp"
#include "nbody/nbody.hpp"
#include "perf/log.hpp"
#include "perf/metrics.hpp"
#include "perf/trace.hpp"
#include "util/error.hpp"

namespace enzo::core {

using mesh::Field;
using mesh::Grid;

namespace {
constexpr Field kVelField[3] = {Field::kVelocityX, Field::kVelocityY,
                                Field::kVelocityZ};
}  // namespace

Simulation::Simulation(SimulationConfig cfg)
    : cfg_(std::move(cfg)), hierarchy_(cfg_.hierarchy), frw_(cfg_.frw) {
  if (cfg_.comoving) {
    a_ = cosmology::Frw::a_of_z(cfg_.initial_redshift);
    time_ = ext::pos_t(frw_.time_of_a(a_) / cfg_.units.time_s);
  }
}

void Simulation::sync_hierarchy_params() {
  ENZO_REQUIRE(hierarchy_.grids(0).empty(),
               "cannot re-parameterize a built hierarchy");
  hierarchy_ = mesh::Hierarchy(cfg_.hierarchy);
}

void Simulation::configure_for_restart(const ProblemSetup& setup) {
  for (const auto& fn : setup.configure_) fn(cfg_);
  sync_hierarchy_params();
}

void Simulation::initialize(const ProblemSetup& setup) {
  // Configure hooks may adjust hierarchy parameters (boundary type, field
  // list): re-derive the still-empty hierarchy before building the root.
  for (const auto& fn : setup.configure_) fn(cfg_);
  if (cfg_.enable_hydro)
    hydro::require_ghost_zones(cfg_.hierarchy.nghost, cfg_.hydro.solver);
  sync_hierarchy_params();
  hierarchy_.build_root(setup.tiles_);
  for (const auto& [lvl, box] : setup.static_regions_)
    add_static_region(lvl, box);
  for (const auto& fn : setup.fill_) fn(*this);

  // Finalize: the fill hooks may have set the unit system, so (re)base the
  // cosmic clock on the final units, snapshot old states, and run the
  // initial rebuild cascade.
  if (cfg_.comoving) {
    a_ = cosmology::Frw::a_of_z(cfg_.initial_redshift);
    time_ = ext::pos_t(frw_.time_of_a(a_) / cfg_.units.time_s);
  }
  for (Grid* g : hierarchy_.grids(0)) {
    g->set_time(time_);
    g->set_old_time(time_);
    g->store_old_fields();
  }
  if (cfg_.hierarchy.max_level >= 1) hierarchy_.rebuild(1, flagger());
  for (int l = 1; l <= hierarchy_.deepest_level(); ++l)
    for (Grid* g : hierarchy_.grids(l)) {
      g->set_time(time_);
      g->set_old_time(time_);
    }
  level_steps_.assign(static_cast<std::size_t>(cfg_.hierarchy.max_level) + 2,
                      0);

  for (const auto& fn : setup.refine_) fn(*this);
}

exec::LevelExecutor& Simulation::executor() {
  const exec::ExecConfig& want = cfg_.exec;
  if (!exec_ || exec_built_.backend != want.backend ||
      exec_built_.threads != want.threads) {
    exec_ = exec::make_executor(want);
    exec_built_ = want;
  }
  return *exec_;
}

std::uint64_t Simulation::grid_cost(const mesh::Grid& g) const {
  const std::uint64_t cells = static_cast<std::uint64_t>(g.nx(0)) *
                              static_cast<std::uint64_t>(g.nx(1)) *
                              static_cast<std::uint64_t>(g.nx(2));
  std::uint64_t cost = cells;
  if (cfg_.enable_chemistry) {
    // Historical subcycles-per-hydro-cell ratio from the metrics registry:
    // a cheap global proxy for how collapsed (and therefore chemically
    // stiff) the gas is.  Capped so one hot grid cannot starve the rest.
    static perf::Counter& subcycles =
        perf::Registry::global().counter("chemistry.subcycles");
    static perf::Counter& hydro_cells =
        perf::Registry::global().counter("hydro.cells_updated");
    const std::uint64_t rate = std::min<std::uint64_t>(
        64, subcycles.value() / std::max<std::uint64_t>(1, hydro_cells.value()));
    cost += cells * rate;
  }
  if (cfg_.enable_particles)
    cost += 4 * static_cast<std::uint64_t>(g.particles().size());
  return cost;
}

void Simulation::add_static_region(int level, const mesh::IndexBox& box) {
  ENZO_REQUIRE(level >= 1 && level <= cfg_.hierarchy.max_level,
               "static region level out of range");
  static_regions_.emplace_back(level, box);
}

mesh::Hierarchy::FlagFn Simulation::flagger() {
  return [this](const Grid& g, std::vector<mesh::Index3>& flags) {
    const int child_level = g.level() + 1;
    const RefinementCriteria& rc = cfg_.refinement;
    double vol = 1.0;
    for (int d = 0; d < 3; ++d)
      vol *= 1.0 / static_cast<double>(g.spec().level_dims[d]);
    const auto& rho = g.field(Field::kDensity);
    const auto& eint = g.field(Field::kInternalEnergy);
    const double gamma = cfg_.hydro.gamma;
    const double gc = cfg_.units.grav_const_code;
    const double dx = g.cell_width_d(0);

    // NGP dark-matter mass per cell (for the DM mass criterion), in a
    // scratch block recycled across grids and rebuilds.
    util::Buffer3 dm_buf;
    mesh::FieldView dm;
    if (rc.dm_mass_threshold > 0 && !g.particles().empty()) {
      dm_buf.set_arena(&util::Arena::scratch());
      dm_buf.resize(g.nx(0), g.nx(1), g.nx(2), 0.0);
      dm = dm_buf.view();
      for (const mesh::Particle& p : g.particles()) {
        int idx[3];
        bool ok = true;
        for (int d = 0; d < 3; ++d) {
          idx[d] = static_cast<int>(g.local_index_of(p.x[d], d));
          if (idx[d] < 0 || idx[d] >= g.nx(d)) ok = false;
        }
        if (ok) dm(idx[0], idx[1], idx[2]) += p.mass;
      }
    }

    for (int k = 0; k < g.nx(2); ++k)
      for (int j = 0; j < g.nx(1); ++j)
        for (int i = 0; i < g.nx(0); ++i) {
          const int si = g.sx(i), sj = g.sy(j), sk = g.sz(k);
          bool flag = false;
          const double r = rho(si, sj, sk);
          if (rc.baryon_mass_threshold > 0 &&
              r * vol > rc.baryon_mass_threshold)
            flag = true;
          if (!flag && rc.overdensity_threshold > 0 &&
              r > rc.overdensity_threshold)
            flag = true;
          if (!flag && !dm.empty() && dm(i, j, k) > rc.dm_mass_threshold)
            flag = true;
          if (!flag && rc.jeans_number > 0) {
            // Comoving Jeans length: λ_J = 2π c_s sqrt(a) / sqrt(G_code ρ_c)
            // (see hydro.hpp unit conventions).
            const double cs2 =
                gamma * (gamma - 1.0) * std::max(eint(si, sj, sk), 0.0);
            const double lj =
                constants::kTwoPi * std::sqrt(cs2 * a_ / (gc * std::max(r, 1e-300)));
            if (dx > lj / rc.jeans_number) flag = true;
          }
          if (flag)
            flags.push_back({g.box().lo[0] + i, g.box().lo[1] + j,
                             g.box().lo[2] + k});
        }

    // Static regions pinned at child_level (§4 nested initial conditions):
    // flag the parent cells under them.
    for (const auto& [lvl, box] : static_regions_) {
      if (lvl != child_level) continue;
      const int r = cfg_.hierarchy.refine_factor;
      mesh::IndexBox foot = box.coarsened(r).intersect(g.box());
      for (std::int64_t k = foot.lo[2]; k < foot.hi[2]; ++k)
        for (std::int64_t j = foot.lo[1]; j < foot.hi[1]; ++j)
          for (std::int64_t i = foot.lo[0]; i < foot.hi[0]; ++i)
            flags.push_back({i, j, k});
    }
  };
}

Simulation::ClockState Simulation::clock_state() const {
  ClockState s;
  s.time = time_;
  s.root_steps = root_steps_;
  s.level_steps = level_steps_;
  s.static_regions = static_regions_;
  s.diag_baseline_set = diag_baseline_set_;
  s.diag_mass0 = diag_mass0_;
  s.diag_energy0 = diag_energy0_;
  s.audit_baseline_set = audit_baseline_set_;
  s.audit_mass0 = audit_mass0_;
  s.audit_energy0 = audit_energy0_;
  return s;
}

void Simulation::restore_clock_state(const ClockState& s) {
  time_ = s.time;
  update_scale_factor();
  root_steps_ = s.root_steps;
  // The restart config may raise max_level (the §4 deepen-on-restart trick):
  // keep the saved cadence counters and zero-extend for the new levels.
  level_steps_.assign(static_cast<std::size_t>(cfg_.hierarchy.max_level) + 2,
                      0);
  for (std::size_t l = 0;
       l < std::min(level_steps_.size(), s.level_steps.size()); ++l)
    level_steps_[l] = s.level_steps[l];
  static_regions_.clear();
  for (const auto& [lvl, box] : s.static_regions) add_static_region(lvl, box);
  diag_baseline_set_ = s.diag_baseline_set;
  diag_mass0_ = s.diag_mass0;
  diag_energy0_ = s.diag_energy0;
  audit_baseline_set_ = s.audit_baseline_set;
  audit_mass0_ = s.audit_mass0;
  audit_energy0_ = s.audit_energy0;
}

cosmology::Expansion Simulation::expansion_at(double t_code) const {
  if (!cfg_.comoving) return cosmology::Expansion::statics();
  const double a = frw_.a_of_time(t_code * cfg_.units.time_s);
  return {a, frw_.hubble(a) * cfg_.units.time_s};
}

chemistry::ChemUnits Simulation::chem_units() const {
  return chemistry::ChemUnits::from(cfg_.units, a_, cfg_.hydro.gamma);
}

void Simulation::update_scale_factor() {
  if (cfg_.comoving)
    a_ = frw_.a_of_time(ext::pos_to_double(time_) * cfg_.units.time_s);
}

double Simulation::compute_level_timestep(int level) {
  auto grids = hierarchy_.grids(level);
  const cosmology::Expansion exp =
      expansion_at(ext::pos_to_double(grids[0]->time()));
  // Ordered reduction: the per-grid minima are computed in parallel but
  // folded left-to-right with the same strict-< tie-breaks as the old
  // serial loop (hydro before particles within a grid, earlier grids win
  // ties), so the chosen limiter is identical at any thread count.
  struct DtInfo {
    double dt;
    hydro::DtLimiter limiter;
  };
  const DtInfo init{std::numeric_limits<double>::max(),
                    hydro::DtLimiter::kNone};
  const DtInfo best = executor().reduce_ordered(
      {"compute_timestep", perf::component::kOther, level}, grids.size(), init,
      [&](std::size_t n) {
        const Grid& g = *grids[n];
        DtInfo local = init;
        if (cfg_.enable_hydro) {
          const hydro::TimestepInfo info =
              hydro::compute_timestep_info(g, cfg_.hydro, exp);
          if (info.dt < local.dt) local = {info.dt, info.limiter};
        }
        if (cfg_.enable_particles) {
          const double dtp = nbody::particle_timestep(g, exp.a, cfg_.hydro.cfl);
          if (dtp < local.dt) local = {dtp, hydro::DtLimiter::kParticle};
        }
        return local;
      },
      [](const DtInfo& acc, const DtInfo& v) {
        return v.dt < acc.dt ? v : acc;
      });
  ENZO_REQUIRE(best.dt > 0 && std::isfinite(best.dt),
               "non-positive timestep at level " + std::to_string(level));
  if (level == 0) root_dt_limiter_ = best.limiter;
  return best.dt;
}

void Simulation::solve_gravity_level(int level) {
  perf::TraceScope scope("gravity", perf::component::kGravity, level);
  exec::LevelExecutor& ex = executor();
  // Assemble gravitating mass on this level and every finer one, deposit
  // particles, and push child mass down into parents.  A level's mass is
  // read only by its own solve and by the restriction into its parent, so
  // the coarser levels (rebuilt by their own solves) are left alone.
  for (int l = hierarchy_.deepest_level(); l >= level; --l) {
    gravity::begin_gravitating_mass(hierarchy_, l, &ex);
    if (cfg_.enable_particles) {
      auto grids = hierarchy_.grids(l);
      // CIC deposits scatter only into the owning grid's gravitating-mass
      // field (particles live on the grid they deposit into).
      ex.for_each(
          {"cic_deposit", perf::component::kNbody, l}, grids.size(),
          [&](std::size_t n) { nbody::deposit_particles_cic(*grids[n], &ex); },
          [&](std::size_t n) {
            return static_cast<std::uint64_t>(grids[n]->particles().size());
          });
    }
  }
  gravity::restrict_gravitating_mass(hierarchy_, &ex, level);
  if (level == 0)
    gravity::solve_root_gravity(hierarchy_, cfg_.gravity, a_, &ex);
  else
    gravity::solve_subgrid_gravity(hierarchy_, level, cfg_.gravity, a_, &ex);
  auto grids = hierarchy_.grids(level);
  ex.for_each(
      {"accelerations", perf::component::kGravity, level}, grids.size(),
      [&](std::size_t n) { gravity::compute_accelerations(*grids[n], a_); },
      [&](std::size_t n) { return grid_cost(*grids[n]); });
}

void Simulation::step_grids(int level, double dt,
                            const cosmology::Expansion& exp) {
  auto grids = hierarchy_.grids(level);
  const std::uint64_t gen = hierarchy_.generation();
  const chemistry::ChemUnits cu = chem_units();
  exec::LevelExecutor& ex = executor();
  // Each task advances exactly one grid: all writes (fields, fluxes,
  // particles) stay inside that grid; ghost values were filled before the
  // phase and are read-only here.  Physics kernels receive the executor for
  // their *intra*-grid parallel_for loops; nested work shares the one pool
  // (a nested drain runs only its own leaf group), so parallelism never
  // oversubscribes the lane count.
  ex.for_each(
      {"step_grids", perf::component::kOther, level}, grids.size(),
      [&](std::size_t n) {
        Grid* g = grids[n];
        g->store_old_fields();
        if (cfg_.enable_hydro) {
          perf::TraceScope scope("hydro", perf::component::kHydro, level);
          hydro::solve_hydro_step(*g, dt, cfg_.hydro, exp, &ex);
        }
        if (cfg_.enable_gravity) {
          perf::TraceScope scope("gravity_sources", perf::component::kGravity,
                                 level);
          hydro::apply_gravity_sources(*g, dt, cfg_.hydro);
        }
        if (cfg_.enable_chemistry) {
          perf::TraceScope scope("chemistry", perf::component::kChemistry,
                                 level);
          chemistry::solve_chemistry_step(*g, dt, cfg_.chemistry, cu, &ex);
        }
        if (cfg_.enable_particles) {
          perf::TraceScope scope("nbody", perf::component::kNbody, level);
          nbody::kick_particles(*g, dt, exp.adot_over_a, &ex);
          nbody::drift_particles(*g, dt, exp.a, &ex);
        }
      },
      [&](std::size_t n) { return grid_cost(*grids[n]); });
  ENZO_REQUIRE(gen == hierarchy_.generation(),
               "hierarchy rebuilt during step_grids");
  // Zone-cycles (cell-updates across every level and substep): the
  // regression harness's throughput denominator.
  static perf::Counter& zones =
      perf::Registry::global().counter("driver.zone_cycles");
  std::uint64_t cells = 0;
  for (const Grid* g : grids)
    cells += static_cast<std::uint64_t>(g->nx(0)) * g->nx(1) * g->nx(2);
  zones.add(cells);
}

void Simulation::evolve_level(int level, ext::pos_t parent_time) {
  auto level_grids = hierarchy_.grids(level);
  if (level_grids.empty()) return;
  perf::TraceScope level_scope("evolve_level/L" + std::to_string(level),
                               perf::component::kOther, level);
  exec::LevelExecutor& ex = executor();
  // A new parent window opens: zero the boundary flux registers that the
  // parent's flux correction will read after this level catches up.
  if (cfg_.enable_hydro)
    ex.for_each({"reset_boundary_fluxes", perf::component::kHydro, level},
                level_grids.size(),
                [&](std::size_t n) { level_grids[n]->reset_boundary_fluxes(); });
  mesh::set_boundary_values(hierarchy_, level, &ex);

  int substeps = 0;
  while (level_grids[0]->time() < parent_time) {
    ENZO_REQUIRE(++substeps <= cfg_.max_substeps_per_level,
                 "too many substeps at level " + std::to_string(level));
    level_grids = hierarchy_.grids(level);
    const ext::pos_t t_now = level_grids[0]->time();
    double dt = compute_level_timestep(level);
    const double remaining = ext::pos_to_double(parent_time - t_now);
    bool last = false;
    // Clamp to the window end — and also stretch when the leftover after an
    // unclamped step would be fp residue (≲1e-10 of the window): a
    // denormal-tiny cleanup substep buys nothing, and at level 0 it let
    // different resolutions land at slightly different stop times.
    if (remaining - dt <= 1e-10 * remaining) {
      dt = remaining;
      last = true;
    }
    if (cfg_.trace_wcycle)
      trace_.push_back({level, ext::pos_to_double(t_now), dt});
    perf::StructuredLog& slog = perf::StructuredLog::global();
    if (slog.enabled(perf::LogLevel::kDebug)) {
      double vmax = 0, emin = 1e300, rmax = 0;
      for (Grid* g : level_grids) {
        for (int d = 0; d < 3; ++d) {
          vmax = std::max(vmax, std::abs(g->field(kVelField[d]).min()));
          vmax = std::max(vmax, std::abs(g->field(kVelField[d]).max()));
        }
        emin = std::min(emin, g->field(Field::kInternalEnergy).min());
        rmax = std::max(rmax, g->field(Field::kDensity).max());
      }
      slog.logf(perf::LogLevel::kDebug, "evolve",
                "lvl %d sub %d t=%.5f dt=%.3e vmax=%.3e emin=%.3e "
                "rmax=%.3e grids=%zu",
                level, substeps, ext::pos_to_double(t_now), dt, vmax, emin,
                rmax, level_grids.size());
    }

    const cosmology::Expansion exp =
        expansion_at(ext::pos_to_double(t_now) + 0.5 * dt);

    if (cfg_.enable_gravity) solve_gravity_level(level);
    step_grids(level, dt, exp);

    // Advance the level clock in extended precision; the final substep lands
    // on the parent time *exactly*.
    const ext::pos_t t_new = last ? parent_time : t_now + ext::pos_t(dt);
    for (Grid* g : level_grids) g->set_time(t_new);
    if (level == 0) {
      time_ = t_new;
      update_scale_factor();
    }

    mesh::set_boundary_values(hierarchy_, level, &ex);
    evolve_level(level + 1, t_new);

    // Flux correction + projection (§3.2.1 two-way coupling).
    {
      // All corrections before any projection: a correction may land on a
      // coarse cell covered by a *sibling* of the correcting child, and the
      // sibling's projected average must win there (interleaving the two
      // passes let a later child's correction clobber an earlier sibling's
      // projection, leaving parent ≠ child average on those cells).
      //
      // Both operations write only the child's *parent*, so tasks are
      // grouped by parent: one task runs all of a parent's children — the
      // corrections in child order, then the projections in child order —
      // which is exactly the serial ordering restricted to that parent
      // (cross-parent writes touch disjoint cells).
      // The topology cache holds the first-seen-order grouping,
      // precomputed at rebuild time.
      const std::vector<mesh::ParentGroup> none;
      const std::vector<mesh::ParentGroup>& groups =
          hierarchy_.num_grids(level + 1) == 0
              ? none
              : hierarchy_.topology().children_by_parent(level + 1);
      ex.for_each(
          {"flux_projection", perf::component::kOther, level}, groups.size(),
          [&](std::size_t n) {
            const auto& [parent, kids] = groups[n];
            for (Grid* child : kids)
              mesh::flux_correct_from_child(*child, *parent);
            for (Grid* child : kids) mesh::project_to_parent(*child, *parent);
          },
          [&](std::size_t n) {
            std::uint64_t c = 0;
            for (const Grid* child : groups[n].second)
              c += static_cast<std::uint64_t>(child->nx(0)) * child->nx(1) *
                   child->nx(2);
            return c;
          });
    }
    if (cfg_.enable_particles) {
      perf::TraceScope scope("particle_redistribute",
                             perf::component::kNbody, level);
      nbody::redistribute_particles(hierarchy_, &ex);
    }

    // RebuildHierarchy(level+1).
    ++level_steps_[static_cast<std::size_t>(level)];
    if (level + 1 <= cfg_.hierarchy.max_level &&
        level_steps_[static_cast<std::size_t>(level)] %
                cfg_.rebuild_interval ==
            0) {
      hierarchy_.rebuild(level + 1, flagger());
      for (int l = level + 1; l <= hierarchy_.deepest_level(); ++l)
        for (Grid* g : hierarchy_.grids(l))
          if (!(g->time() == t_new)) g->set_time(t_new);
    }
    level_grids = hierarchy_.grids(level);
  }
}

void Simulation::step_root(double dt) { step_root_to(time_ + ext::pos_t(dt), dt); }

void Simulation::step_root_to(ext::pos_t target, double dt) {
  // The limiter was recorded by the compute_level_timestep(0) call (or
  // overridden by a stop-time clamp) just before this; capture it now because
  // evolve_level recomputes level-0 timesteps internally.
  const hydro::DtLimiter limiter = root_dt_limiter_;
  // enzo-lint: allow(determinism-nondeterministic-source) wall-clock telemetry
  const auto wall0 = std::chrono::steady_clock::now();
  evolve_level(0, target);
  ++root_steps_;
  root_dt_limiter_ = limiter;
  if (diag_sink_ != nullptr) {
    const double wall =
        // enzo-lint: allow(determinism-nondeterministic-source) telemetry
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
            .count();
    diag_sink_->write(make_step_record(dt, limiter, wall));
  }
  if (cfg_.audit_invariants &&
      root_steps_ % std::max(1, cfg_.audit_interval) == 0)
    run_audit();
  if (post_step_hook_) post_step_hook_(*this);
}

double Simulation::advance_root_step() {
  ENZO_REQUIRE(!hierarchy_.grids(0).empty(),
               "no root level: build the run with initialize() first");
  const double dt0 = compute_level_timestep(0);
  step_root(dt0);
  return dt0;
}

const analysis::AuditReport& Simulation::run_audit() {
  // The ghost-agreement check compares against the sibling copies that
  // SetBoundaryValues installs; the last fill of a step predates the final
  // projection pass, so refresh boundaries from the current (consistent)
  // state first — exactly what the next step would do anyway.
  for (int l = 0; l <= hierarchy_.deepest_level(); ++l)
    mesh::set_boundary_values(hierarchy_, l, &executor());

  analysis::AuditOptions opts;
  // Mass/energy leave through the boundary on outflow domains, and energy is
  // not conserved under gravity sources, expansion, or chemistry heating:
  // only arm the conservation baselines where closure is expected.
  const bool mass_closed = cfg_.hierarchy.periodic && cfg_.enable_hydro;
  const bool energy_closed = mass_closed && !cfg_.enable_gravity &&
                             !cfg_.enable_chemistry && !cfg_.comoving;
  if (audit_baseline_set_) {
    if (mass_closed) opts.mass_baseline = audit_mass0_;
    if (energy_closed) opts.energy_baseline = audit_energy0_;
  }
  last_audit_ = analysis::audit_and_report(hierarchy_, opts);
  if (!audit_baseline_set_) {
    audit_mass0_ = last_audit_.mass_total;
    audit_energy0_ = last_audit_.energy_total;
    audit_baseline_set_ = true;
  }
  ++audits_run_;
  audit_violations_total_ += last_audit_.total_violations;
  return last_audit_;
}

void Simulation::evolve_until(double t_stop, int max_steps) {
  const ext::pos_t target(t_stop);
  // Arrival tolerance, relative to t_stop: anything closer than a few ulps
  // counts as arrived, so fp residue never schedules a denormal-tiny step.
  const double tol =
      8.0 * std::numeric_limits<double>::epsilon() * std::abs(t_stop);
  for (int s = 0; s < max_steps; ++s) {
    const double remaining = ext::pos_to_double(target - time_);
    if (remaining <= tol) break;
    const double dt0 = compute_level_timestep(0);
    if (dt0 >= remaining * (1.0 - 1e-12) || remaining - dt0 <= tol) {
      // Final step: clamp (or stretch, by at most tol) onto the *exact*
      // extended-precision target, so every resolution ends at bit-identical
      // dd(t_stop) instead of t_stop minus resolution-dependent fp residue.
      root_dt_limiter_ = hydro::DtLimiter::kStopTime;
      step_root_to(target, remaining);
      continue;  // the arrival check above terminates the loop
    }
    step_root(dt0);
  }
}

void Simulation::set_diagnostics_sink(perf::DiagnosticsSink* sink) {
  diag_sink_ = sink;
  diag_baseline_set_ = false;
}

perf::StepRecord Simulation::make_step_record(double dt,
                                              hydro::DtLimiter limiter,
                                              double wall_seconds) {
  perf::StepRecord rec;
  rec.step = root_steps_;
  rec.t = time_d();
  rec.dt = dt;
  rec.dt_limiter = hydro::dt_limiter_name(limiter);
  rec.a = a_;
  rec.z = cfg_.comoving ? 1.0 / a_ - 1.0 : 0.0;
  for (int l = 0; l <= hierarchy_.deepest_level(); ++l) {
    perf::LevelStat ls;
    ls.level = l;
    for (const Grid* g : hierarchy_.grids(l)) {
      ++ls.grids;
      ls.cells += static_cast<std::uint64_t>(g->nx(0)) *
                  static_cast<std::uint64_t>(g->nx(1)) *
                  static_cast<std::uint64_t>(g->nx(2));
    }
    rec.levels.push_back(ls);
  }
  // Conservation diagnostics from the root level.
  const auto [mass, energy] = analysis::root_totals(hierarchy_);
  if (!diag_baseline_set_) {
    diag_mass0_ = mass;
    diag_energy0_ = energy;
    diag_baseline_set_ = true;
  }
  rec.mass_total = mass;
  rec.mass_residual =
      diag_mass0_ != 0.0 ? (mass - diag_mass0_) / diag_mass0_ : 0.0;
  rec.energy_total = energy;
  rec.energy_residual = diag_energy0_ != 0.0
                            ? (energy - diag_energy0_) / std::abs(diag_energy0_)
                            : 0.0;
  perf::Registry& reg = perf::Registry::global();
  rec.peak_bytes =
      static_cast<std::uint64_t>(reg.gauge("alloc.peak_bytes").value());
  rec.flops = reg.counter("flops.total").value();
  rec.wall_seconds = wall_seconds;
  return rec;
}

}  // namespace enzo::core
