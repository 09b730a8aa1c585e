#include "analysis/auditor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

#include "mesh/topology.hpp"
#include "perf/log.hpp"
#include "perf/metrics.hpp"
#include "perf/trace.hpp"

namespace enzo::analysis {

using mesh::Field;
using mesh::Grid;
using mesh::Index3;
using mesh::IndexBox;

namespace {

struct AuditContext {
  const AuditOptions& opts;
  AuditReport& report;

  void record(const char* check, int level, std::uint64_t grid_id,
              std::string detail) {
    if (report.violations.size() < opts.max_recorded)
      report.violations.push_back({check, level, grid_id, std::move(detail)});
    ++report.total_violations;
  }

  /// Relative mismatch of two values that should agree to roundoff;
  /// returns 0 when both sit below the absolute floor.
  double mismatch(double a, double b) {
    const double scale = std::max({std::abs(a), std::abs(b), opts.abs_tol});
    const double m = std::abs(a - b) / scale;
    report.max_rel_error = std::max(report.max_rel_error, m);
    return m;
  }
};

std::string cell_str(std::int64_t i, std::int64_t j, std::int64_t k) {
  return "(" + std::to_string(i) + "," + std::to_string(j) + "," +
         std::to_string(k) + ")";
}

/// Per-axis refinement ratio between a level and its parent level
/// (degenerate axes have ratio 1).
void axis_ratios(const mesh::Hierarchy& h, int level, std::int64_t rd[3]) {
  const Index3 cd = h.level_dims(level);
  const Index3 pd = h.level_dims(level - 1);
  for (int d = 0; d < 3; ++d) rd[d] = cd[d] / pd[d];
}

// ---- topology: the overlap cache matches the current structure -------------

// Must run before any check that calls h.topology(): that accessor lazily
// rebuilds a stale cache, which would hide exactly the condition we are
// trying to flag.
void check_topology(const mesh::Hierarchy& h, AuditContext& ctx) {
  const auto cached = h.topology_cache_generation();
  if (cached.has_value() && *cached != h.generation())
    ctx.record("topology", 0, 0,
               "overlap-topology cache is stale: built for generation " +
                   std::to_string(*cached) + " but hierarchy is at " +
                   std::to_string(h.generation()));
}

// ---- structure and particle ownership: the hierarchy's own invariants -----

void check_structure(const mesh::Hierarchy& h, AuditContext& ctx) {
  h.for_each_invariant_violation([&](const char* rule, int level,
                                     std::uint64_t grid_id,
                                     std::string detail) {
    const bool particles = std::string_view(rule) == "particles";
    if (particles ? ctx.opts.check_particles : ctx.opts.check_structure)
      ctx.record(rule, level, grid_id, std::move(detail));
  });
}

// ---- projection: parent cells equal conservative child averages ------------

void check_projection(const mesh::Hierarchy& h, AuditContext& ctx) {
  for (int l = 1; l <= h.deepest_level(); ++l) {
    std::int64_t rd[3];
    axis_ratios(h, l, rd);
    const double inv_nf = 1.0 / (static_cast<double>(rd[0]) * rd[1] * rd[2]);
    for (const Grid* child : h.grids(l)) {
      const Grid* parent = child->parent();
      if (parent == nullptr) continue;  // reported by check_structure
      IndexBox cover;
      for (int d = 0; d < 3; ++d) {
        cover.lo[d] = child->box().lo[d] / rd[d];
        cover.hi[d] = (child->box().hi[d] + rd[d] - 1) / rd[d];
      }
      cover = cover.intersect(parent->box());
      if (!child->has_field(Field::kDensity)) continue;
      const auto& crho = child->field(Field::kDensity);
      for (std::int64_t pk = cover.lo[2]; pk < cover.hi[2]; ++pk)
        for (std::int64_t pj = cover.lo[1]; pj < cover.hi[1]; ++pj)
          for (std::int64_t pi = cover.lo[0]; pi < cover.hi[0]; ++pi) {
            const int ci0 = static_cast<int>(pi * rd[0] - child->box().lo[0]) +
                            child->ng(0);
            const int cj0 = static_cast<int>(pj * rd[1] - child->box().lo[1]) +
                            child->ng(1);
            const int ck0 = static_cast<int>(pk * rd[2] - child->box().lo[2]) +
                            child->ng(2);
            const int psi =
                static_cast<int>(pi - parent->box().lo[0]) + parent->ng(0);
            const int psj =
                static_cast<int>(pj - parent->box().lo[1]) + parent->ng(1);
            const int psk =
                static_cast<int>(pk - parent->box().lo[2]) + parent->ng(2);
            ++ctx.report.cells_checked;

            double rho_sum = 0.0;
            for (int ck = 0; ck < rd[2]; ++ck)
              for (int cj = 0; cj < rd[1]; ++cj)
                for (int ci = 0; ci < rd[0]; ++ci)
                  rho_sum += crho(ci0 + ci, cj0 + cj, ck0 + ck);

            for (Field f : parent->field_list()) {
              if (!child->has_field(f)) continue;
              const bool density_like = mesh::is_density_like(f);
              if (!density_like && !ctx.opts.check_projection_products)
                continue;
              const auto& ca = child->field(f);
              const auto& pa = parent->field(f);
              double fine, coarse;
              if (density_like) {
                double sum = 0.0;
                for (int ck = 0; ck < rd[2]; ++ck)
                  for (int cj = 0; cj < rd[1]; ++cj)
                    for (int ci = 0; ci < rd[0]; ++ci)
                      sum += ca(ci0 + ci, cj0 + cj, ck0 + ck);
                fine = sum * inv_nf;
                coarse = pa(psi, psj, psk);
              } else {
                // Specific field: compare the conserved product ρ·q, the
                // quantity projection actually preserves.
                double sum = 0.0;
                for (int ck = 0; ck < rd[2]; ++ck)
                  for (int cj = 0; cj < rd[1]; ++cj)
                    for (int ci = 0; ci < rd[0]; ++ci)
                      sum += crho(ci0 + ci, cj0 + cj, ck0 + ck) *
                             ca(ci0 + ci, cj0 + cj, ck0 + ck);
                fine = sum * inv_nf;
                coarse = pa(psi, psj, psk) *
                         parent->field(Field::kDensity)(psi, psj, psk);
              }
              if (ctx.mismatch(fine, coarse) > ctx.opts.rel_tol)
                ctx.record(
                    "projection", l, child->id(),
                    std::string(mesh::field_name(f)) + " parent cell " +
                        cell_str(pi, pj, pk) + ": coarse " +
                        std::to_string(coarse) + " vs child average " +
                        std::to_string(fine));
            }
          }
    }
  }
}

// ---- ghosts: sibling-covered ghost zones agree with sibling data -----------

void check_ghosts(const mesh::Hierarchy& h, AuditContext& ctx) {
  const bool periodic = h.params().periodic;
  // The point index answers the per-cell owner search; its bin candidate
  // lists preserve grid order, so it returns the same first-containing grid
  // as a linear scan (check_topology already ran, so refreshing here is
  // safe).
  const mesh::OverlapTopology& topo = h.topology();
  for (int l = 0; l <= h.deepest_level(); ++l) {
    const Index3 dims = h.level_dims(l);
    const auto lv = h.grids(l);
    for (const Grid* g : lv) {
      bool reported = false;  // one violation per grid keeps reports readable
      for (int sk = 0; sk < g->nt(2) && !reported; ++sk)
        for (int sj = 0; sj < g->nt(1) && !reported; ++sj)
          for (int si = 0; si < g->nt(0) && !reported; ++si) {
            const int s[3] = {si, sj, sk};
            Index3 p;
            bool ghost = false, outside = false;
            for (int d = 0; d < 3; ++d) {
              const std::int64_t local = s[d] - g->ng(d);
              if (local < 0 || local >= g->nx(d)) ghost = true;
              p[d] = g->box().lo[d] + local;
              if (dims[d] == 1) {
                p[d] = 0;
              } else if (periodic) {
                p[d] = ((p[d] % dims[d]) + dims[d]) % dims[d];
              } else if (p[d] < 0 || p[d] >= dims[d]) {
                outside = true;
              }
            }
            if (!ghost || outside) continue;
            const Grid* owner = topo.grid_at(l, p);
            if (owner == nullptr) continue;  // parent-interpolated ghost
            ++ctx.report.ghosts_checked;
            const int oi =
                static_cast<int>(p[0] - owner->box().lo[0]) + owner->ng(0);
            const int oj =
                static_cast<int>(p[1] - owner->box().lo[1]) + owner->ng(1);
            const int ok =
                static_cast<int>(p[2] - owner->box().lo[2]) + owner->ng(2);
            for (Field f : g->field_list()) {
              if (!owner->has_field(f)) continue;
              const double mine = g->field(f)(si, sj, sk);
              const double theirs = owner->field(f)(oi, oj, ok);
              if (ctx.mismatch(mine, theirs) > ctx.opts.rel_tol) {
                ctx.record("ghosts", l, g->id(),
                           std::string(mesh::field_name(f)) + " ghost " +
                               cell_str(p[0], p[1], p[2]) + ": " +
                               std::to_string(mine) + " vs sibling " +
                               std::to_string(theirs));
                reported = true;
                break;
              }
            }
          }
    }
  }
}

// ---- flux registers: parent face fluxes match child boundary registers -----

void check_flux_registers(const mesh::Hierarchy& h, AuditContext& ctx) {
  for (int l = 1; l <= h.deepest_level(); ++l) {
    std::int64_t rd[3];
    axis_ratios(h, l, rd);
    const auto siblings = h.grids(l);
    for (const Grid* child : siblings) {
      const Grid* parent = child->parent();
      if (parent == nullptr || !child->has_boundary_fluxes() ||
          !parent->has_fluxes())
        continue;
      // Coarse footprint of the child.
      IndexBox ccover;
      for (int d = 0; d < 3; ++d) {
        ccover.lo[d] = child->box().lo[d] / rd[d];
        ccover.hi[d] = (child->box().hi[d] + rd[d] - 1) / rd[d];
      }
      for (int d = 0; d < 3; ++d) {
        if (child->spec().level_dims[d] == 1) continue;
        const int e1 = (d + 1) % 3, e2 = (d + 2) % 3;
        const double inv_area =
            1.0 / (static_cast<double>(rd[e1]) * rd[e2]);
        for (int side = 0; side < 2; ++side) {
          const std::int64_t face_c = side == 0 ? ccover.lo[d] : ccover.hi[d];
          const std::int64_t out_c = side == 0 ? face_c - 1 : face_c;
          // Mirror flux correction's applicability: the outside coarse cell
          // must lie inside this parent (a sibling's cell is that sibling
          // parent's business) …
          if (out_c < parent->box().lo[d] || out_c >= parent->box().hi[d])
            continue;
          for (std::int64_t p2 = ccover.lo[e2]; p2 < ccover.hi[e2]; ++p2)
            for (std::int64_t p1 = ccover.lo[e1]; p1 < ccover.hi[e1]; ++p1) {
              std::int64_t pc[3];
              pc[d] = out_c;
              pc[e1] = p1;
              pc[e2] = p2;
              // Active index of the outside cell (registers hold active
              // faces only).
              int pf[3];
              bool in_parent = true;
              for (int e = 0; e < 3; ++e) {
                const std::int64_t off = pc[e] - parent->box().lo[e];
                if (off < 0 || off >= parent->nx(e)) in_parent = false;
                pf[e] = static_cast<int>(off);
              }
              if (!in_parent) continue;
              // … and must not itself be refined: a fine/fine interface is
              // corrected by whichever child wrote last, so the register
              // comparison is only meaningful at true fine/coarse faces.
              bool refined = false;
              for (const Grid* s : siblings) {
                if (s == child) continue;
                IndexBox sc;
                for (int e = 0; e < 3; ++e) {
                  sc.lo[e] = s->box().lo[e] / rd[e];
                  sc.hi[e] = (s->box().hi[e] + rd[e] - 1) / rd[e];
                }
                if (sc.contains(Index3{pc[0], pc[1], pc[2]})) {
                  refined = true;
                  break;
                }
              }
              if (refined) continue;
              if (side == 0) pf[d] += 1;
              const int c1_0 =
                  static_cast<int>(p1 * rd[e1] - child->box().lo[e1]);
              const int c2_0 =
                  static_cast<int>(p2 * rd[e2] - child->box().lo[e2]);
              ++ctx.report.faces_checked;
              for (Field f : parent->field_list()) {
                if (!child->has_field(f)) continue;
                const auto& cbf = child->boundary_flux(f, d, side);
                double fine = 0.0;
                for (int c2 = 0; c2 < rd[e2]; ++c2)
                  for (int c1 = 0; c1 < rd[e1]; ++c1) {
                    int ci[3];
                    ci[d] = 0;
                    ci[e1] = c1_0 + c1;
                    ci[e2] = c2_0 + c2;
                    fine += cbf(ci[0], ci[1], ci[2]);
                  }
                fine *= inv_area;
                const double coarse = parent->flux(f, d)(pf[0], pf[1], pf[2]);
                if (ctx.mismatch(fine, coarse) > ctx.opts.rel_tol)
                  ctx.record("flux", l, child->id(),
                             std::string(mesh::field_name(f)) + " axis " +
                                 std::to_string(d) + " side " +
                                 std::to_string(side) + " face at " +
                                 cell_str(pc[0], pc[1], pc[2]) +
                                 ": parent flux " + std::to_string(coarse) +
                                 " vs child register " + std::to_string(fine));
              }
            }
        }
      }
    }
  }
}

// ---- particle mass, finiteness, conservation ---------------------------------

void check_particle_mass(const mesh::Hierarchy& h, AuditContext& ctx) {
  for (int l = 0; l <= h.deepest_level(); ++l)
    for (const Grid* g : h.grids(l))
      for (const mesh::Particle& p : g->particles()) {
        if (!(p.mass > 0.0) || !std::isfinite(p.mass))
          ctx.record("particles", l, g->id(),
                     "particle " + std::to_string(p.id) +
                         " has non-positive mass " + std::to_string(p.mass));
      }
}

void check_finite(const mesh::Hierarchy& h, AuditContext& ctx) {
  for (int l = 0; l <= h.deepest_level(); ++l)
    for (const Grid* g : h.grids(l))
      for (Field f : g->field_list()) {
        const auto& a = g->field(f);
        bool bad = false;
        for (const double v : a)
          if (!std::isfinite(v)) {
            bad = true;
            break;
          }
        if (bad)
          ctx.record("finite", l, g->id(),
                     std::string(mesh::field_name(f)) +
                         " contains non-finite values");
        if (f == Field::kDensity) {
          // Positivity is only required on active cells (fresh grids carry
          // zero-initialized ghosts until the next boundary fill).
          bool nonpos = false;
          for (int k = 0; k < g->nx(2) && !nonpos; ++k)
            for (int j = 0; j < g->nx(1) && !nonpos; ++j)
              for (int i = 0; i < g->nx(0); ++i)
                if (!(a(g->sx(i), g->sy(j), g->sz(k)) > 0.0)) {
                  nonpos = true;
                  break;
                }
          if (nonpos)
            ctx.record("finite", l, g->id(), "non-positive active density");
        }
      }
}

void check_conservation(AuditContext& ctx) {
  const AuditOptions& o = ctx.opts;
  AuditReport& r = ctx.report;
  auto drift = [&](const char* what, double now, double baseline) {
    const double scale = std::max(std::abs(baseline), o.abs_tol);
    const double rel = std::abs(now - baseline) / scale;
    if (rel > o.conservation_rel_tol)
      ctx.record("conservation", 0, 0,
                 std::string(what) + " drifted by " + std::to_string(rel) +
                     " relative (now " + std::to_string(now) + ", baseline " +
                     std::to_string(baseline) + ")");
  };
  if (o.mass_baseline) drift("mass", r.mass_total, *o.mass_baseline);
  if (o.energy_baseline) drift("energy", r.energy_total, *o.energy_baseline);
}

}  // namespace

RootTotals root_totals(const mesh::Hierarchy& h) {
  RootTotals t;
  for (const Grid* g : h.grids(0)) {
    if (!g->has_field(Field::kDensity)) continue;
    double vol = 1.0;
    for (int d = 0; d < 3; ++d) vol *= g->cell_width_d(d);
    const auto& rho = g->field(Field::kDensity);
    const bool has_e = g->has_field(Field::kTotalEnergy);
    const auto& etot = g->field(has_e ? Field::kTotalEnergy : Field::kDensity);
    for (int k = 0; k < g->nx(2); ++k)
      for (int j = 0; j < g->nx(1); ++j)
        for (int i = 0; i < g->nx(0); ++i) {
          const int si = g->sx(i), sj = g->sy(j), sk = g->sz(k);
          const double m = rho(si, sj, sk) * vol;
          // enzo-lint: allow(determinism-grid-fp-accumulation) serial sum
          t.mass += m;
          if (has_e) t.energy += m * etot(si, sj, sk);
        }
  }
  return t;
}

std::string AuditReport::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s: %zu violation(s) over %d level(s), %zu grid(s); "
                "%lld projected cells, %lld ghosts, %lld faces checked; "
                "max rel err %.3e",
                passed() ? "audit OK" : "AUDIT FAILED", total_violations,
                levels, grids, static_cast<long long>(cells_checked),
                static_cast<long long>(ghosts_checked),
                static_cast<long long>(faces_checked), max_rel_error);
  return buf;
}

AuditReport audit_hierarchy(const mesh::Hierarchy& h,
                            const AuditOptions& opts) {
  perf::TraceScope scope("audit", perf::component::kOther, 0);
  AuditReport report;
  report.levels = h.deepest_level() + 1;
  report.grids = h.total_grids();
  AuditContext ctx{opts, report};
  if (opts.check_topology) check_topology(h, ctx);
  if (opts.check_structure || opts.check_particles) check_structure(h, ctx);
  if (opts.check_projection) check_projection(h, ctx);
  if (opts.check_ghosts) check_ghosts(h, ctx);
  if (opts.check_flux_registers) check_flux_registers(h, ctx);
  if (opts.check_particles) check_particle_mass(h, ctx);
  if (opts.check_finite) check_finite(h, ctx);
  const RootTotals totals = root_totals(h);
  report.mass_total = totals.mass;
  report.energy_total = totals.energy;
  check_conservation(ctx);
  return report;
}

AuditReport audit_and_report(const mesh::Hierarchy& h,
                             const AuditOptions& opts) {
  AuditReport report = audit_hierarchy(h, opts);
  perf::Registry& reg = perf::Registry::global();
  reg.counter("audit.runs").add(1);
  reg.counter("audit.violations").add(report.total_violations);
  reg.gauge("audit.last_violations")
      .set(static_cast<double>(report.total_violations));
  reg.gauge("audit.max_rel_error").set(report.max_rel_error);
  for (const AuditViolation& v : report.violations)
    reg.counter("audit.violations." + v.check).add(1);

  perf::StructuredLog& log = perf::StructuredLog::global();
  if (report.passed()) {
    log.log(perf::LogLevel::kInfo, "audit", report.summary());
  } else {
    for (const AuditViolation& v : report.violations)
      log.logf(perf::LogLevel::kError, "audit",
               "[%s] level %d grid %llu: %s", v.check.c_str(), v.level,
               static_cast<unsigned long long>(v.grid_id), v.detail.c_str());
    if (report.total_violations > report.violations.size())
      log.logf(perf::LogLevel::kError, "audit",
               "… and %zu more violation(s) not recorded",
               report.total_violations - report.violations.size());
    log.log(perf::LogLevel::kError, "audit", report.summary());
  }
  return report;
}

}  // namespace enzo::analysis
