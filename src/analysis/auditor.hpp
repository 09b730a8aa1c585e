#pragma once
// Runtime AMR invariant auditor: the correctness companion to the telemetry
// subsystem.  Walks a hierarchy and verifies the Berger–Colella SAMR
// invariants the extreme-resolution machinery depends on (§3.1–3.2.1):
//
//   * structure  — proper nesting: grids inside the domain, aligned to and
//                  contained in a single live parent, siblings non-overlapping;
//   * projection — fine→coarse consistency: every parent cell covered by a
//                  child equals the conservative average of the child's cells
//                  (mass and species closure; optionally the conserved ρ·q
//                  products of the specific fields);
//   * ghosts     — ghost zones that overlap a same-level sibling's active
//                  region (including periodic images) agree with the sibling
//                  data, i.e. SetBoundaryValues step 2 actually holds;
//   * flux       — at fine/coarse interfaces the parent's time-integrated
//                  face flux equals the area-averaged child boundary
//                  register (what flux correction leaves behind, §3.2.1);
//   * particles  — every particle lies inside its owning grid;
//   * finite     — all field data is finite and active densities positive;
//   * conservation — root-level mass/energy totals against caller baselines;
//   * topology   — the regrid-cached overlap topology (mesh/topology.hpp) was
//                  built for the current structure generation (a stale cache
//                  means consumers may hold dead neighbor lists).
//
// A silent nesting or ghost bug shows up as wrong physics, not a crash; the
// auditor turns it into a structured report.  Violations are *collected*,
// not thrown, so a corrupted hierarchy yields a complete diagnosis; results
// are published through the PR-1 StructuredLog / metrics registry via
// audit_and_report.
//
// The ghost check assumes boundary values are current (the Simulation hook
// refreshes them before auditing); a freshly rebuilt, never-filled grid has
// zeroed ghosts and would report spurious mismatches.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mesh/hierarchy.hpp"

namespace enzo::analysis {

struct AuditOptions {
  /// Verify the overlap-topology cache is not stale: a cache built for an
  /// older structure generation means some consumer could be holding dead
  /// neighbor lists.  Runs before every other check (the other checks may
  /// query — and thereby silently refresh — the cache).
  bool check_topology = true;
  bool check_structure = true;
  bool check_projection = true;
  /// Also require the conserved products ρ·q of specific fields (velocity,
  /// energy) to project consistently.  Exact right after projection, but a
  /// hierarchy rebuild refills new grids with limited linear interpolation
  /// whose mass-weighted averages need not reproduce the parent, so this is
  /// off by default for end-of-step audits and on in controlled tests.
  bool check_projection_products = false;
  bool check_ghosts = true;
  bool check_flux_registers = true;
  bool check_particles = true;
  bool check_finite = true;
  /// Relative tolerance for value comparisons (roundoff headroom; the
  /// quantities compared are bitwise-reproducible sums in exact arithmetic).
  double rel_tol = 1e-10;
  /// Magnitude floor below which absolute differences are ignored.
  double abs_tol = 1e-12;
  /// Root-level conservation baselines; unset disables the check.
  std::optional<double> mass_baseline;
  std::optional<double> energy_baseline;
  /// The AMR machinery (flux correction + projection) is conservative to
  /// roundoff, but the solver's positivity floors (vacuum guard on density,
  /// species clamps) legitimately inject mass at the ~1e-6 level in strong
  /// collapse runs; the tolerance sits above that, and well below the
  /// per-step growth a genuine closure leak produces.
  double conservation_rel_tol = 1e-5;
  /// At most this many violations keep their detail string (all are counted).
  std::size_t max_recorded = 64;
};

struct AuditViolation {
  std::string check;       ///< "structure" | "projection" | "ghosts" | ...
  int level = 0;
  std::uint64_t grid_id = 0;
  std::string detail;
};

struct AuditReport {
  std::vector<AuditViolation> violations;  ///< first max_recorded, in order
  std::size_t total_violations = 0;
  int levels = 0;
  std::size_t grids = 0;
  std::int64_t cells_checked = 0;     ///< parent cells compared by projection
  std::int64_t ghosts_checked = 0;    ///< ghost cells compared against siblings
  std::int64_t faces_checked = 0;     ///< coarse faces compared by flux check
  double max_rel_error = 0.0;         ///< worst relative mismatch observed
  double mass_total = 0.0;            ///< root-level totals (always computed)
  double energy_total = 0.0;
  bool passed() const { return total_violations == 0; }
  /// One-line human-readable result.
  std::string summary() const;
};

/// Root-level mass Σ ρV and energy Σ ρVE over active cells, summed serially
/// in grid order (children are projected into their parents after every
/// W-cycle, so the root view is complete).  Diagnostics records and the
/// conservation check both read it.
struct RootTotals {
  double mass = 0.0;
  double energy = 0.0;
};
RootTotals root_totals(const mesh::Hierarchy& h);

/// Run every enabled check; never throws on violations (only on malformed
/// input such as a negative-extent hierarchy).
AuditReport audit_hierarchy(const mesh::Hierarchy& h,
                            const AuditOptions& opts = {});

/// audit_hierarchy plus reporting: violations and the summary go to
/// StructuredLog (error level when failing, info when clean) and the
/// `audit.*` counters/gauges of the global metrics Registry.
AuditReport audit_and_report(const mesh::Hierarchy& h,
                             const AuditOptions& opts = {});

}  // namespace enzo::analysis
