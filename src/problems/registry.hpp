#pragma once
// Problem-generator registry (ROADMAP item 3), modeled on Athena++'s
// src/pgen/ + tst/regression/ split: every runnable problem is a named
// ProblemSpec — a factory from a parsed parameter deck to a composable
// core::ProblemSetup, plus the problem-specific metadata the verification
// harness needs (an analytic L1-error callback where an exact solution
// exists, and a minimal smoke deck for the initialize-and-step test).
//
// The deck parser resolves `ProblemType = <name>` against this registry, so
// the set of deck-selectable problems and the "unknown ProblemType" error
// text are *derived from* the actual generators and can never drift from
// them (the bug this PR removes: a hard-coded name map in
// core/parameter_file.cpp).
//
// Built-ins live in the per-problem TUs of this directory and are installed
// by Registry::global() itself (explicit register_* calls — registration via
// unreferenced file-level statics is not static-library-safe).  Out-of-tree
// problems (tests, experiments) self-register at load time:
//
//   static problems::Registrar reg({
//       .name = "MyBlob",
//       .description = "pressure blob in a periodic box",
//       .make = [](const core::ParameterDeck& d) { ... },
//   });

#include <functional>
#include <string>
#include <vector>

#include "core/parameter_file.hpp"
#include "core/problem_setup.hpp"

namespace enzo::problems {

/// A registered problem: everything the deck front end and the regression
/// harness need to know about one generator.
struct ProblemSpec {
  /// Deck-facing name (`ProblemType = <name>`); unique, case-sensitive.
  std::string name;
  /// One-line human description (listed by run_deck and the docs).
  std::string description;
  /// Deck → composable setup; the only required callback.
  std::function<core::ProblemSetup(const core::ParameterDeck&)> make;
  /// Analytic checker: mean |rho - rho_exact| over the root grid at the
  /// simulation's current time, in the problem's own density normalization.
  /// Null when no exact solution exists (collapse, cosmology); returns NaN
  /// when the solution does not hold at the current time (ZeldovichPancake
  /// past its caustic).
  std::function<double(const core::Simulation&, const core::ParameterDeck&)>
      l1_density_error;
  /// Minimal deck text (without the ProblemType line) that initializes the
  /// problem at smoke-test scale; the registry unit test appends
  /// `ProblemType = <name>`, initializes, and takes one audited root step.
  std::string smoke_deck;
};

class Registry {
 public:
  /// The process-wide registry, with all built-in problems installed.
  static Registry& global();

  /// Register a spec; duplicate names are an error.
  void add(ProblemSpec spec);

  /// Lookup by name; nullptr when absent.
  const ProblemSpec* find(const std::string& name) const;
  /// Lookup by name; throws enzo::Error listing the registered names.
  const ProblemSpec& at(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> names() const;
  /// The names joined for error/help text: "A, B, C".
  std::string names_joined() const;

 private:
  Registry();
  std::vector<ProblemSpec> specs_;  ///< sorted by name
};

/// Self-registration helper for out-of-tree problems: construct one at
/// namespace scope in a TU that is linked into the binary *and referenced*
/// (in a test file, the TEST functions themselves are the reference).
struct Registrar {
  explicit Registrar(ProblemSpec spec);
};

}  // namespace enzo::problems
