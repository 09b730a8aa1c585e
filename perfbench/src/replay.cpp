#include "replay.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chemistry/chemistry.hpp"
#include "gravity/gravity.hpp"
#include "hydro/hydro.hpp"
#include "mesh/boundary.hpp"
#include "mesh/project.hpp"
#include "mesh/topology.hpp"
#include "nbody/nbody.hpp"
#include "perf/metrics.hpp"
#include "perf/trace.hpp"
#include "util/error.hpp"

namespace perfbench {

using enzo::core::Simulation;
using enzo::exec::LevelExecutor;
using enzo::mesh::Grid;
namespace component = enzo::perf::component;

namespace {

using Clock = std::chrono::steady_clock;

// ---- spans -------------------------------------------------------------------

enum class Kind : std::uint8_t {
  kRoot,   ///< one root step (driver lane)
  kPhase,  ///< one layer call made by the replay (driver lane)
  kWait,   ///< a lane blocked in for_each / parallel_for until its batch ends
  kTask,   ///< one for_each task
  kChunk,  ///< one parallel_for chunk
  kSub,    ///< one layer call inside a task (hydro, chemistry, ...)
};

struct Span {
  const char* name = "";
  int level = -1;
  int lane = 0;
  Kind kind = Kind::kRoot;
  std::int64_t id = 0;
  std::int64_t parent = -1;
  double t0 = 0.0;
  double t1 = 0.0;
};

/// What a thread is inside of: the innermost open span.  Tasks inherit the
/// submitting thread's context so their parent is the span that caused them.
struct Ctx {
  std::int64_t id = -1;
  const char* name = "core";
  int level = -1;
};
thread_local Ctx t_ctx;

/// Spans are appended to per-thread buffers (no lock on the hot path) and
/// merged when the replay ends.  Lanes are numbered in registration order;
/// the constructing (driver) thread is lane 0.
class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) { (void)lane(); }
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }
  std::int64_t next_id() { return next_id_.fetch_add(1); }
  void push(Span s) {
    Lane& l = lane();
    s.lane = l.id;
    l.spans.push_back(s);
  }
  /// All spans; call after every lane is quiescent.
  std::vector<Span> collect() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<Span> all;
    for (const auto& l : lanes_)
      all.insert(all.end(), l->spans.begin(), l->spans.end());
    return all;
  }

 private:
  struct Lane {
    int id = 0;
    std::vector<Span> spans;
  };
  struct LaneSlot {
    const SpanRecorder* owner = nullptr;
    Lane* lane = nullptr;
  };
  Lane& lane() {
    thread_local LaneSlot slot;
    if (slot.owner != this) {
      std::lock_guard<std::mutex> lk(mu_);
      lanes_.push_back(std::make_unique<Lane>());
      lanes_.back()->id = static_cast<int>(lanes_.size()) - 1;
      slot = {this, lanes_.back().get()};
    }
    return *slot.lane;
  }

  Clock::time_point epoch_;
  std::atomic<std::int64_t> next_id_{0};
  mutable std::mutex mu_;  // guards lanes_
  std::vector<std::unique_ptr<Lane>> lanes_;
};

/// RAII span on the calling thread; becomes the thread's context while open.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, Kind kind, const char* name, int level)
      : rec_(rec), saved_(t_ctx) {
    span_.name = name;
    span_.level = level;
    span_.kind = kind;
    span_.id = rec.next_id();
    span_.parent = saved_.id;
    span_.t0 = rec.now();
    t_ctx = {span_.id, name, level};
  }
  ~ScopedSpan() {
    span_.t1 = rec_.now();
    rec_.push(span_);
    t_ctx = saved_;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int64_t id() const { return span_.id; }

 private:
  SpanRecorder& rec_;
  Ctx saved_;
  Span span_;
};

/// Runs a task body under the submitter's context, restoring the worker's.
class CtxSwap {
 public:
  explicit CtxSwap(const Ctx& c) : saved_(t_ctx) { t_ctx = c; }
  ~CtxSwap() { t_ctx = saved_; }
  CtxSwap(const CtxSwap&) = delete;
  CtxSwap& operator=(const CtxSwap&) = delete;

 private:
  Ctx saved_;
};

/// Forwards every batch to the simulation's own executor, wrapping each task
/// and chunk in a span.  Module functions receive this executor, so their
/// internal phases are traced too.
class TracingExecutor final : public LevelExecutor {
 public:
  TracingExecutor(LevelExecutor& inner, SpanRecorder& rec)
      : inner_(inner), rec_(rec) {}

  enzo::exec::Backend backend() const override { return inner_.backend(); }
  int threads() const override { return inner_.threads(); }

  void parallel_for(
      std::size_t n, std::size_t grain,
      const std::function<void(std::size_t, std::size_t)>& fn) override {
    ScopedSpan wait(rec_, Kind::kWait, t_ctx.name, t_ctx.level);
    const Ctx ctx = t_ctx;
    inner_.parallel_for(n, grain, [&, ctx](std::size_t b, std::size_t e) {
      CtxSwap swap(ctx);
      ScopedSpan s(rec_, Kind::kChunk, ctx.name, ctx.level);
      fn(b, e);
    });
  }

 protected:
  void run_tasks(std::size_t n, const TaskFn& fn, const CostFn& cost) override {
    ScopedSpan wait(rec_, Kind::kWait, t_ctx.name, t_ctx.level);
    const Ctx ctx = t_ctx;
    inner_.for_each(
        {ctx.name, nullptr, ctx.level}, n,
        [&, ctx](std::size_t i) {
          CtxSwap swap(ctx);
          ScopedSpan s(rec_, Kind::kTask, ctx.name, ctx.level);
          fn(i);
        },
        cost);
  }

 private:
  LevelExecutor& inner_;
  SpanRecorder& rec_;
};

// ---- layer names ---------------------------------------------------------------

constexpr const char* kBoundary = "mesh.boundary_fill";
constexpr const char* kRebuild = "mesh.rebuild";
constexpr const char* kFluxProj = "mesh.flux_projection";
constexpr const char* kTimestep = "hydro.timestep";
constexpr const char* kHydro = "hydro.step";
constexpr const char* kGravSources = "hydro.gravity_sources";
constexpr const char* kChemistry = "chemistry.step";
constexpr const char* kGravMass = "gravity.mass";
constexpr const char* kRootFft = "gravity.root_fft";
constexpr const char* kSubgridMg = "gravity.subgrid_mg";
constexpr const char* kAccel = "gravity.accelerations";
constexpr const char* kDeposit = "nbody.deposit";
constexpr const char* kKickDrift = "nbody.kick_drift";
constexpr const char* kRedistribute = "nbody.redistribute";
/// The grid-step phase: its wall is split over the sub-layers run inside it.
constexpr const char* kStepGrids = "step_grids";

/// Layers whose self seconds partition the traced wall (with
/// mesh.topology and core.unattributed).
constexpr const char* kLayers[] = {
    kBoundary, kRebuild, kFluxProj, kTimestep, kHydro,
    kGravSources, kChemistry, kGravMass, kRootFft, kSubgridMg,
    kAccel, kDeposit, kKickDrift, kRedistribute};

/// Levels reported per layer (.L0 .. .L3).
constexpr int kMaxReportLevel = 3;

/// Layers reported per level, with the levels that can occur.
struct PerLevel {
  const char* layer;
  int first_level;
};
constexpr PerLevel kPerLevel[] = {
    {kBoundary, 0}, {kRebuild, 1}, {kHydro, 0}, {kChemistry, 0},
    {kSubgridMg, 1}};

/// Registry counters read around the replay.
constexpr const char* kCounters[] = {
    "boundary.ghost_cells_filled", "hydro.cells_updated", "chemistry.subcycles",
    "arena.regrid_new_grids", "arena.regrid_kept_grids"};

std::string level_name(const char* layer, int level) {
  return std::string(layer) + ".s.L" + std::to_string(level);
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

std::uint64_t cells_of(const Grid& g) {
  return static_cast<std::uint64_t>(g.nx(0)) * static_cast<std::uint64_t>(g.nx(1)) *
         static_cast<std::uint64_t>(g.nx(2));
}

// ---- the replay driver -----------------------------------------------------------

/// Mirrors Simulation::evolve_level call for call.  State the program keeps
/// privately (clock, per-level step counters, scale factor) is carried here
/// and pushed back through Simulation::restore_clock_state at the points
/// where evolve_level updates it.
class Replay {
 public:
  Replay(Simulation& sim, SpanRecorder& rec)
      : sim_(sim),
        cfg_(sim.config()),
        h_(sim.hierarchy()),
        rec_(rec),
        ex_(sim.executor(), rec),
        topo_builds_(enzo::perf::Registry::global().counter("topology.builds")),
        topo_secs_(enzo::perf::Registry::global().gauge(
            "topology.last_build_seconds")) {
    ENZO_REQUIRE(!cfg_.trace_wcycle && !cfg_.audit_invariants,
                 "replay: disable trace_wcycle and audit_invariants");
    ENZO_REQUIRE(h_.use_topology(), "replay: needs the overlap-topology cache");
  }

  void root_step() {
    ScopedSpan root(rec_, Kind::kRoot, "core.root_step", 0);
    clock_ = sim_.clock_state();
    const double dt0 = level_timestep(0);
    evolve_level(0, clock_.time + enzo::ext::pos_t(dt0));
    ++clock_.root_steps;
    sim_.restore_clock_state(clock_);
  }

  /// Topology build seconds found inside each phase span, by span id.
  const std::unordered_map<std::int64_t, double>& topology_seconds() const {
    return topo_in_phase_;
  }
  std::uint64_t chemistry_cells() const { return chem_cells_.load(); }
  std::uint64_t particle_updates() const { return particle_updates_.load(); }

 private:
  /// A layer call on the driver lane.  A topology rebuild triggered inside it
  /// (the cache is rebuilt lazily on first query after a regrid) is split
  /// out through the program's topology build counter and gauge.
  class PhaseSpan {
   public:
    PhaseSpan(Replay& r, const char* name, int level)
        : r_(r),
          builds0_(r.topo_builds_.value()),
          span_(r.rec_, Kind::kPhase, name, level) {}
    ~PhaseSpan() {
      if (r_.topo_builds_.value() != builds0_)
        r_.topo_in_phase_[span_.id()] += r_.topo_secs_.value();
    }
    PhaseSpan(const PhaseSpan&) = delete;
    PhaseSpan& operator=(const PhaseSpan&) = delete;

   private:
    Replay& r_;
    std::uint64_t builds0_;
    ScopedSpan span_;
  };

  /// Simulation::compute_level_timestep: the ordered minimum over grids of
  /// the hydro and particle limits (the limiter it also records is
  /// diagnostics only).
  double level_timestep(int level) {
    auto grids = h_.grids(level);
    const enzo::cosmology::Expansion exp =
        sim_.expansion_at(enzo::ext::pos_to_double(grids[0]->time()));
    PhaseSpan p(*this, kTimestep, level);
    const double dt = ex_.reduce_ordered(
        {"compute_timestep", component::kOther, level}, grids.size(),
        std::numeric_limits<double>::max(),
        [&](std::size_t n) {
          const Grid& g = *grids[n];
          double local = std::numeric_limits<double>::max();
          if (cfg_.enable_hydro)
            local = std::min(local,
                             enzo::hydro::compute_timestep_info(g, cfg_.hydro, exp).dt);
          if (cfg_.enable_particles)
            local = std::min(local,
                             enzo::nbody::particle_timestep(g, exp.a, cfg_.hydro.cfl));
          return local;
        },
        [](double acc, double v) { return std::min(acc, v); });
    ENZO_REQUIRE(dt > 0 && std::isfinite(dt),
                 "replay: non-positive timestep at level " + std::to_string(level));
    return dt;
  }

  void boundary_fill(int level) {
    PhaseSpan p(*this, kBoundary, level);
    enzo::mesh::set_boundary_values(h_, level, &ex_);
  }

  void solve_gravity_level(int level) {
    for (int l = h_.deepest_level(); l >= 0; --l) {
      {
        PhaseSpan p(*this, kGravMass, l);
        enzo::gravity::begin_gravitating_mass(h_, l, &ex_);
      }
      if (cfg_.enable_particles) {
        auto grids = h_.grids(l);
        PhaseSpan p(*this, kDeposit, l);
        ex_.for_each(
            {"cic_deposit", component::kNbody, l}, grids.size(),
            [&](std::size_t n) { enzo::nbody::deposit_particles_cic(*grids[n]); },
            [&](std::size_t n) {
              return static_cast<std::uint64_t>(grids[n]->particles().size());
            });
      }
    }
    const double a = sim_.scale_factor();
    {
      PhaseSpan p(*this, kGravMass, level);
      enzo::gravity::restrict_gravitating_mass(h_, &ex_);
    }
    if (level == 0) {
      PhaseSpan p(*this, kRootFft, level);
      enzo::gravity::solve_root_gravity(h_, cfg_.gravity, a);
    } else {
      PhaseSpan p(*this, kSubgridMg, level);
      enzo::gravity::solve_subgrid_gravity(h_, level, cfg_.gravity, a, &ex_);
    }
    auto grids = h_.grids(level);
    PhaseSpan p(*this, kAccel, level);
    ex_.for_each(
        {"accelerations", component::kGravity, level}, grids.size(),
        [&](std::size_t n) { enzo::gravity::compute_accelerations(*grids[n], a); },
        [&](std::size_t n) { return sim_.grid_cost(*grids[n]); });
  }

  void step_grids(int level, double dt, const enzo::cosmology::Expansion& exp) {
    auto grids = h_.grids(level);
    const std::uint64_t gen = h_.generation();
    const enzo::chemistry::ChemUnits cu = sim_.chem_units();
    {
      PhaseSpan p(*this, kStepGrids, level);
      ex_.for_each(
          {"step_grids", component::kOther, level}, grids.size(),
          [&](std::size_t n) {
            Grid* g = grids[n];
            {
              ScopedSpan s(rec_, Kind::kSub, kHydro, level);
              g->store_old_fields();
              if (cfg_.enable_hydro)
                enzo::hydro::solve_hydro_step(*g, dt, cfg_.hydro, exp, &ex_);
            }
            if (cfg_.enable_gravity) {
              ScopedSpan s(rec_, Kind::kSub, kGravSources, level);
              enzo::hydro::apply_gravity_sources(*g, dt, cfg_.hydro);
            }
            if (cfg_.enable_chemistry) {
              ScopedSpan s(rec_, Kind::kSub, kChemistry, level);
              enzo::chemistry::solve_chemistry_step(*g, dt, cfg_.chemistry, cu,
                                                    &ex_);
              chem_cells_.fetch_add(cells_of(*g));
            }
            if (cfg_.enable_particles) {
              ScopedSpan s(rec_, Kind::kSub, kKickDrift, level);
              enzo::nbody::kick_particles(*g, dt, exp.adot_over_a);
              enzo::nbody::drift_particles(*g, dt, exp.a);
              particle_updates_.fetch_add(g->particles().size());
            }
          },
          [&](std::size_t n) { return sim_.grid_cost(*grids[n]); });
    }
    ENZO_REQUIRE(gen == h_.generation(), "replay: hierarchy rebuilt during step_grids");
    static enzo::perf::Counter& zones =
        enzo::perf::Registry::global().counter("driver.zone_cycles");
    std::uint64_t cells = 0;
    for (const Grid* g : grids) cells += cells_of(*g);
    zones.add(cells);
  }

  /// Corrections then projections, one task per parent (the topology's
  /// first-seen grouping, as in evolve_level).
  void flux_projection(int level) {
    PhaseSpan p(*this, kFluxProj, level);
    static const std::vector<enzo::mesh::ParentGroup> kNoChildren;
    const std::vector<enzo::mesh::ParentGroup>* groups = &kNoChildren;
    if (!h_.grids(level + 1).empty())
      groups = &h_.topology().children_by_parent(level + 1);
    ex_.for_each(
        {"flux_projection", component::kOther, level}, groups->size(),
        [&](std::size_t n) {
          const auto& [parent, kids] = (*groups)[n];
          for (Grid* child : kids) enzo::mesh::flux_correct_from_child(*child, *parent);
          for (Grid* child : kids) enzo::mesh::project_to_parent(*child, *parent);
        },
        [&](std::size_t n) {
          std::uint64_t c = 0;
          for (const Grid* child : (*groups)[n].second) c += cells_of(*child);
          return c;
        });
  }

  void evolve_level(int level, enzo::ext::pos_t parent_time) {
    auto level_grids = h_.grids(level);
    if (level_grids.empty()) return;
    if (cfg_.enable_hydro) {
      PhaseSpan p(*this, kFluxProj, level);
      ex_.for_each({"reset_boundary_fluxes", component::kHydro, level},
                   level_grids.size(),
                   [&](std::size_t n) { level_grids[n]->reset_boundary_fluxes(); });
    }
    boundary_fill(level);

    int substeps = 0;
    while (level_grids[0]->time() < parent_time) {
      ENZO_REQUIRE(++substeps <= cfg_.max_substeps_per_level,
                   "replay: too many substeps at level " + std::to_string(level));
      level_grids = h_.grids(level);
      const enzo::ext::pos_t t_now = level_grids[0]->time();
      double dt = level_timestep(level);
      const double remaining = enzo::ext::pos_to_double(parent_time - t_now);
      bool last = false;
      if (remaining - dt <= 1e-10 * remaining) {
        dt = remaining;
        last = true;
      }
      const enzo::cosmology::Expansion exp =
          sim_.expansion_at(enzo::ext::pos_to_double(t_now) + 0.5 * dt);

      if (cfg_.enable_gravity) solve_gravity_level(level);
      step_grids(level, dt, exp);

      const enzo::ext::pos_t t_new = last ? parent_time : t_now + enzo::ext::pos_t(dt);
      for (Grid* g : level_grids) g->set_time(t_new);
      if (level == 0) {
        // evolve_level sets time_ and re-derives the scale factor here.
        clock_.time = t_new;
        sim_.restore_clock_state(clock_);
      }

      boundary_fill(level);
      evolve_level(level + 1, t_new);
      flux_projection(level);
      if (cfg_.enable_particles) {
        PhaseSpan p(*this, kRedistribute, level);
        enzo::nbody::redistribute_particles(h_);
      }

      auto& steps = clock_.level_steps[static_cast<std::size_t>(level)];
      ++steps;
      if (level + 1 <= cfg_.hierarchy.max_level && steps % cfg_.rebuild_interval == 0) {
        PhaseSpan p(*this, kRebuild, level + 1);
        h_.rebuild(level + 1, sim_.flagger());
        for (int l = level + 1; l <= h_.deepest_level(); ++l)
          for (Grid* g : h_.grids(l))
            if (!(g->time() == t_new)) g->set_time(t_new);
      }
      level_grids = h_.grids(level);
    }
  }

  Simulation& sim_;
  const enzo::core::SimulationConfig& cfg_;
  enzo::mesh::Hierarchy& h_;
  SpanRecorder& rec_;
  TracingExecutor ex_;
  Simulation::ClockState clock_;
  enzo::perf::Counter& topo_builds_;
  enzo::perf::Gauge& topo_secs_;
  std::unordered_map<std::int64_t, double> topo_in_phase_;
  std::atomic<std::uint64_t> chem_cells_{0};
  std::atomic<std::uint64_t> particle_updates_{0};
};

// ---- attribution -------------------------------------------------------------------

/// Busy seconds of one phase, summed over lanes.
struct PhaseBusy {
  double busy = 0.0;       ///< any lane doing work (driver serial work included)
  double task_busy = 0.0;  ///< lanes inside tasks / chunks
};

/// Sweep each lane's properly nested spans; at every instant the innermost
/// open span decides what the lane is doing (a wait span means idle).
/// Busy time is attributed to the phase span the innermost span descends
/// from (-1: driver glue between phases).
std::unordered_map<std::int64_t, PhaseBusy> lane_busy(
    const std::vector<Span>& spans,
    const std::unordered_map<std::int64_t, std::int64_t>& phase_of) {
  std::unordered_map<std::int64_t, PhaseBusy> out;
  std::map<int, std::vector<const Span*>> by_lane;
  for (const Span& s : spans) by_lane[s.lane].push_back(&s);
  for (auto& [lane, v] : by_lane) {
    std::sort(v.begin(), v.end(), [](const Span* a, const Span* b) {
      if (a->t0 != b->t0) return a->t0 < b->t0;
      if (a->t1 != b->t1) return a->t1 > b->t1;
      return a->id < b->id;
    });
    std::vector<const Span*> stack;
    double cursor = 0.0;
    auto account = [&](double until) {
      if (stack.empty() || until <= cursor) return;
      const Span* top = stack.back();
      const double dt = until - cursor;
      if (top->kind != Kind::kWait) {
        PhaseBusy& pb = out[phase_of.at(top->id)];
        pb.busy += dt;
        if (top->kind == Kind::kTask || top->kind == Kind::kChunk ||
            top->kind == Kind::kSub)
          pb.task_busy += dt;
      }
    };
    auto pop_until = [&](double t) {
      while (!stack.empty() && stack.back()->t1 <= t) {
        account(stack.back()->t1);
        cursor = std::max(cursor, stack.back()->t1);
        stack.pop_back();
      }
    };
    for (const Span* s : v) {
      pop_until(s->t0);
      account(s->t0);
      cursor = std::max(cursor, s->t0);
      stack.push_back(s);
    }
    pop_until(std::numeric_limits<double>::infinity());
  }
  return out;
}

/// Every per-layer metric the replay emits; layers that do not run report 0.
std::vector<std::string> layer_metric_names() {
  std::vector<std::string> names;
  for (const char* layer : kLayers) names.push_back(std::string(layer) + ".s");
  for (const PerLevel& pl : kPerLevel)
    for (int l = pl.first_level; l <= kMaxReportLevel; ++l)
      names.push_back(level_name(pl.layer, l));
  for (const char* n :
       {"mesh.topology.s", "mesh.boundary_fill.calls", "mesh.boundary_fill.ghost_cells",
        "mesh.boundary_fill.ghost_cells_per_s", "mesh.rebuild.grids_new",
        "mesh.rebuild.grids_kept", "hydro.cells_per_s", "chemistry.cells_per_s",
        "chemistry.subcycles_per_cell", "nbody.particles_per_s", "exec.tasks",
        "exec.task_busy_s", "exec.lane_idle_s", "exec.straggler_s", "exec.cpu_util",
        "core.unattributed_s", "core.traced_wall_s"})
    names.emplace_back(n);
  return names;
}

/// Seconds inside root spans that no layer call covers, measured from the
/// driver lane's spans alone.  Records in `rep` when those spans do not nest
/// as the attribution assumes (root spans disjoint; layer calls on the
/// driver lane, disjoint, each inside a root span): then the layer seconds
/// plus these gaps no longer add up to the traced wall.
double driver_lane_gaps(const std::vector<Span>& spans, LayerReport& rep) {
  const auto fail = [&rep](const std::string& why) {
    if (!rep.spans_ok) return;
    rep.spans_ok = false;
    rep.spans_why = why;
  };
  std::vector<const Span*> roots, phases;
  for (const Span& s : spans) {
    if (s.kind != Kind::kRoot && s.kind != Kind::kPhase) continue;
    if (s.lane != 0) fail(std::string(s.name) + " ran off the driver lane");
    (s.kind == Kind::kRoot ? roots : phases).push_back(&s);
  }
  const auto by_start = [](const Span* a, const Span* b) { return a->t0 < b->t0; };
  std::sort(roots.begin(), roots.end(), by_start);
  std::sort(phases.begin(), phases.end(), by_start);
  double gaps = 0.0;
  std::size_t next = 0;
  for (std::size_t r = 0; r < roots.size(); ++r) {
    const Span& root = *roots[r];
    if (r > 0 && root.t0 < roots[r - 1]->t1) fail("root steps overlap");
    double cursor = root.t0;
    for (; next < phases.size() && phases[next]->t0 < root.t1; ++next) {
      const Span& p = *phases[next];
      if (p.t0 < cursor)
        fail(std::string(p.name) + " overlaps another layer call or starts "
                                   "outside a root step");
      if (p.t1 > root.t1) fail(std::string(p.name) + " ends after its root step");
      gaps += std::max(0.0, p.t0 - cursor);
      cursor = std::max(cursor, p.t1);
    }
    gaps += std::max(0.0, root.t1 - cursor);
  }
  if (next != phases.size()) fail("a layer call lies after the last root step");
  return gaps;
}

}  // namespace

LayerReport traced_replay(Simulation& sim, int steps) {
  enzo::perf::Registry& reg = enzo::perf::Registry::global();
  std::map<std::string, std::uint64_t> c0;
  for (const char* c : kCounters) c0[c] = reg.counter(c).value();

  SpanRecorder rec;
  Replay replay(sim, rec);
  const int lanes = sim.executor().threads();
  const double cpu0 = cpu_seconds();
  for (int s = 0; s < steps; ++s) replay.root_step();
  const double cpu = cpu_seconds() - cpu0;

  std::map<std::string, double> counts;
  for (const char* c : kCounters)
    counts[c] = static_cast<double>(reg.counter(c).value() - c0[c]);

  const std::vector<Span> spans = rec.collect();
  std::unordered_map<std::int64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;
  // Phase ancestor of every span (-1 for root spans and glue).
  std::unordered_map<std::int64_t, std::int64_t> phase_of;
  for (const Span& s : spans) {
    const Span* p = &s;
    while (p != nullptr && p->kind != Kind::kPhase) {
      auto it = by_id.find(p->parent);
      p = it == by_id.end() ? nullptr : it->second;
    }
    phase_of[s.id] = p != nullptr ? p->id : -1;
  }

  LayerReport rep;
  std::map<std::string, double>& m = rep.metrics;
  for (const std::string& n : layer_metric_names()) m[n] = 0.0;

  double traced_wall = 0.0, phase_wall = 0.0, task_busy = 0.0, all_busy = 0.0;
  double straggler = 0.0;
  const auto busy = lane_busy(spans, phase_of);
  for (const auto& [id, pb] : busy) {
    all_busy += pb.busy;
    task_busy += pb.task_busy;
  }
  // Sub-layer busy seconds inside each step_grids phase, by sub-layer name.
  std::unordered_map<std::int64_t, std::map<const char*, double>> sub_busy;
  for (const Span& s : spans)
    if (s.kind == Kind::kSub) sub_busy[phase_of[s.id]][s.name] += s.t1 - s.t0;

  auto add_layer = [&](const char* layer, int level, double secs) {
    m[std::string(layer) + ".s"] += secs;
    for (const PerLevel& pl : kPerLevel)
      if (std::string(pl.layer) == layer && level >= pl.first_level &&
          level <= kMaxReportLevel)
        m[level_name(layer, level)] += secs;
  };
  for (const Span& s : spans) {
    if (s.kind == Kind::kRoot) traced_wall += s.t1 - s.t0;
    if (s.kind != Kind::kPhase) continue;
    const double wall = s.t1 - s.t0;
    phase_wall += wall;
    auto b = busy.find(s.id);
    const double pb = b == busy.end() ? 0.0 : b->second.busy;
    straggler += wall - pb / lanes;
    double self = wall;
    auto topo = replay.topology_seconds().find(s.id);
    if (topo != replay.topology_seconds().end()) {
      const double t = std::min(topo->second, self);
      m["mesh.topology.s"] += t;
      self -= t;
    }
    if (std::string(s.name) == kStepGrids) {
      // One task runs several layers on its grid: split the phase wall by
      // each layer's share of the busy time inside it.
      const auto& subs = sub_busy[s.id];
      double total = 0.0;
      for (const auto& [name, secs] : subs) total += secs;
      if (total <= 0.0) {
        add_layer(kHydro, s.level, self);
      } else {
        for (const auto& [name, secs] : subs)
          add_layer(name, s.level, self * secs / total);
      }
    } else {
      add_layer(s.name, s.level, self);
    }
    if (std::string(s.name) == kBoundary) m["mesh.boundary_fill.calls"] += 1.0;
  }
  for (const Span& s : spans)
    if (s.kind == Kind::kTask) m["exec.tasks"] += 1.0;

  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  m["mesh.boundary_fill.ghost_cells"] = counts["boundary.ghost_cells_filled"];
  m["mesh.boundary_fill.ghost_cells_per_s"] =
      ratio(counts["boundary.ghost_cells_filled"], m["mesh.boundary_fill.s"]);
  m["mesh.rebuild.grids_new"] = counts["arena.regrid_new_grids"];
  m["mesh.rebuild.grids_kept"] = counts["arena.regrid_kept_grids"];
  m["hydro.cells_per_s"] = ratio(counts["hydro.cells_updated"], m["hydro.step.s"]);
  const double chem_cells = static_cast<double>(replay.chemistry_cells());
  m["chemistry.cells_per_s"] = ratio(chem_cells, m["chemistry.step.s"]);
  m["chemistry.subcycles_per_cell"] = ratio(counts["chemistry.subcycles"], chem_cells);
  m["nbody.particles_per_s"] =
      ratio(static_cast<double>(replay.particle_updates()), m["nbody.kick_drift.s"]);
  m["exec.task_busy_s"] = task_busy;
  m["exec.lane_idle_s"] = std::max(0.0, lanes * traced_wall - all_busy);
  m["exec.straggler_s"] = straggler;
  m["exec.cpu_util"] = ratio(cpu, lanes * traced_wall);
  m["core.unattributed_s"] = driver_lane_gaps(spans, rep);
  m["core.traced_wall_s"] = traced_wall;

  rep.traced_wall_s = traced_wall;
  if (rep.spans_ok && phase_wall > traced_wall) {
    rep.spans_ok = false;
    rep.spans_why = "layer calls add up to more than the traced wall";
  }
  rep.accounted_s = m["core.unattributed_s"] + m["mesh.topology.s"];
  for (const char* layer : kLayers) rep.accounted_s += m[std::string(layer) + ".s"];
  rep.spans = spans.size();
  return rep;
}

}  // namespace perfbench
