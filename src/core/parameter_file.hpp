#pragma once
// Parameter-file front end.
//
// Production cosmology codes are driven by plain-text parameter files
// (Enzo's `ProblemType = 30`-style decks); this module parses that format
// into a SimulationConfig + problem selection so runs are reproducible from
// a checked-in text file rather than recompiled C++.
//
// Format: one `Key = value` per line; `#` starts a comment; keys are
// case-sensitive; unknown keys are an error (catching typos is the whole
// point of a deck parser).  Example:
//
//     # first-star collapse at laptop scale
//     ProblemType            = CollapseCloud
//     TopGridDimensions      = 16 16 16
//     MaximumRefinementLevel = 4
//     RefineByJeansLength    = 4
//     ChemistryEnabled       = 1
//     CloudOverdensity       = 10.0
//
// The problem is selected *by name* from the problem-generator registry
// (src/problems/registry.hpp): any registered problem — built-in or added
// via problems::Registrar — is deck-selectable, and the "unknown
// ProblemType" error lists exactly the registered names, so the accepted
// set can never drift from the actual generators.
//
// See `parse_parameter_file` for the full key list; render_deck() is the
// exact inverse of the parser (every non-default value is emitted with
// round-trip float precision), pinned by the deck round-trip suite in
// tests/deck_test.cpp.

#include <iosfwd>
#include <string>

#include "core/setup.hpp"
#include "core/simulation.hpp"

namespace enzo::core {

/// Sedov–Taylor blast options (problem `SedovBlast` / `SedovBlastSMR`):
/// energy deposited as thermal energy in a central sphere of the given
/// radius (code units) in an ambient medium with rho = 1, eint = 1e-4.
struct SedovOptions {
  double energy = 1.0;    ///< deck key SedovEnergy
  double radius = 0.08;   ///< deck key SedovDepositRadius
};

/// Everything a deck specifies: the simulation config, the problem, and the
/// per-problem options.
struct ParameterDeck {
  /// Problem-registry name (deck key ProblemType), e.g. "SodTube".
  std::string problem = "Uniform";
  SimulationConfig config;
  CollapseSetupOptions collapse;
  CosmologySetupOptions cosmology;
  PancakeOptions pancake;
  SedovOptions sedov;
  double uniform_density = 1.0;
  double uniform_eint = 1.0;
  // Run control.
  double stop_time = -1.0;      ///< code units; <0 → use stop_steps only
  int stop_steps = 10;
  /// Checkpoint directory (periodic mode) or file path (end-of-run mode).
  std::string checkpoint_path;
  /// Root steps between automatic checkpoints; 0 → only one at end of run.
  int checkpoint_interval = 0;
  /// Rolling retention: keep the newest N snapshots in checkpoint_path.
  int checkpoint_keep = 3;
};

/// Parse a deck from a stream; throws enzo::Error with line numbers on
/// malformed input, unknown keys, or a ProblemType that is not registered.
ParameterDeck parse_parameter_deck(std::istream& in);

/// Convenience: parse from a file path.
ParameterDeck parse_parameter_file(const std::string& path);

/// The deck's problem as a composable ProblemSetup (problem-registry
/// dispatch on deck.problem).
ProblemSetup deck_problem_setup(const ParameterDeck& deck);

/// Build the run: Simulation::initialize with the deck's problem setup, on a
/// simulation constructed from deck.config.
void setup_from_deck(Simulation& sim, const ParameterDeck& deck);

/// Restart path: apply only the deck setup's configure hooks (units, physics
/// toggles, field list) so the config matches the original run; the state
/// itself then comes from io::read_checkpoint / restore_latest_checkpoint.
void configure_from_deck(Simulation& sim, const ParameterDeck& deck);

/// Render the effective deck back to text.  Exact inverse of the parser:
/// re-parsing the result reproduces the deck (round-trip float formatting;
/// values equal to the deck defaults are omitted, a fixed always-emitted
/// core set excepted).
std::string render_deck(const ParameterDeck& deck);

}  // namespace enzo::core
