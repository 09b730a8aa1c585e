#pragma once
// Contract annotations checked by tools/enzo_lint (see DESIGN.md §11).
//
// These macros carry no runtime semantics beyond an optimizer hint; their
// value is that the lint rules key off the tokens, turning the project's
// implicit contracts into machine-checked ones:
//
//   ENZO_HOT
//     Marks a function as hot-path kernel code (hydro/chemistry/gravity
//     inner loops, executor phase bodies).  Inside an ENZO_HOT function
//     body enzo-lint flags heap allocation (`new`, allocating locals,
//     container growth) and locking — per-cell work must run on
//     preallocated, capacity-reusing scratch (see hydro::PencilBatch::reset).
//     Expands to the GCC/Clang `hot` attribute so the annotation also
//     steers block placement.
//
//   ENZO_UNITS_COMOVING / ENZO_UNITS_PROPER / ENZO_UNITS_BOUNDARY
//     Unit-frame tags for cosmology::CodeUnits consumers.  Code units are
//     comoving (Bryan, Abel & Norman 2001); conversions to the proper/CGS
//     frame (CodeUnits::proper_density, velocity_cgs, temperature_factor,
//     mass_g, comoving_matter_density) are the boundary where the missing-
//     1/a class of bug lives (the PR-2 auditor caught exactly such a mass
//     leak in the flux registers).  enzo-lint requires every function that
//     crosses the boundary to carry ENZO_UNITS_BOUNDARY (or _PROPER when
//     its results live entirely in the proper frame), and flags a function
//     tagged ENZO_UNITS_COMOVING that calls a conversion API.
//
// Suppressions: a finding can be waived with a trailing or preceding
// comment `// enzo-lint: allow(rule-name) reason`, or file-wide with
// `// enzo-lint: allow-file(rule-name) reason`.  Pre-existing debt is
// tracked (not silenced) in tools/enzo_lint/baseline.txt.

#if defined(__GNUC__) || defined(__clang__)
#define ENZO_HOT __attribute__((hot))
#else
#define ENZO_HOT
#endif

#define ENZO_UNITS_COMOVING
#define ENZO_UNITS_PROPER
#define ENZO_UNITS_BOUNDARY
