#pragma once
// Simulation configuration: the knobs of §3 plus problem selection.

#include "chemistry/chemistry.hpp"
#include "cosmology/frw.hpp"
#include "cosmology/units.hpp"
#include "exec/exec_config.hpp"
#include "gravity/gravity.hpp"
#include "hydro/hydro.hpp"
#include "mesh/hierarchy.hpp"

namespace enzo::core {

/// §3.2.3: the three refinement criteria.  Negative values disable a
/// criterion.
struct RefinementCriteria {
  /// Flag a cell when its gas mass (code units) exceeds this (Lagrangian
  /// refinement: "whenever a cell accumulates at least this much mass").
  double baryon_mass_threshold = -1.0;
  /// Same for the dark-matter mass in a cell (NGP-binned particles).
  double dm_mass_threshold = -1.0;
  /// Resolve the local Jeans length by at least this many cells
  /// (Δx < L_J/N_J; the paper varied N_J from 4 to 64).
  double jeans_number = -1.0;
  /// Simple overdensity flag (used by test problems).
  double overdensity_threshold = -1.0;
};

struct SimulationConfig {
  mesh::HierarchyParams hierarchy;
  hydro::HydroParams hydro;
  chemistry::ChemistryParams chemistry;
  gravity::GravityParams gravity;
  RefinementCriteria refinement;

  bool enable_hydro = true;
  bool enable_gravity = false;
  bool enable_chemistry = false;
  bool enable_particles = false;

  /// Comoving (cosmological) run: a(t) integrated from frw; otherwise a = 1.
  bool comoving = false;
  cosmology::FrwParameters frw;
  double initial_redshift = 99.0;
  cosmology::CodeUnits units = cosmology::CodeUnits::simple();

  /// Rebuild the hierarchy every N steps of each level (1 = every step,
  /// §3.2.2: rebuilt "thousands of times").
  int rebuild_interval = 1;
  /// Run the AMR invariant auditor (analysis/auditor.hpp) after every
  /// audit_interval-th root step, reporting through StructuredLog and the
  /// `audit.*` metrics.  Deck key: AuditInvariants / AuditInterval.
  bool audit_invariants = false;
  int audit_interval = 1;
  /// Record the (level, t, dt) order of timesteps (Fig. 2).
  bool trace_wcycle = false;
  /// Safety valve on subcycles per level step.
  int max_substeps_per_level = 64;
  /// Execution backend for the per-level grid sweeps (deck key Threads;
  /// run_deck flag --threads N).
  exec::ExecConfig exec;
};

}  // namespace enzo::core
