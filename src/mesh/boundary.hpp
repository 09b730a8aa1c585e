#pragma once
// SetBoundaryValues (§3.2.1): the two-step ghost fill.
//
//   1. interpolate all boundary values from the grid's parent (in space and
//      in time, to the grid's current time);
//   2. overwrite with same-level (sibling) data wherever a sibling overlaps
//      the ghost region — "this ensures that all boundary values are set
//      using the highest resolution solution available."
//
// Step 2 overwrites every ghost cell inside a sibling overlap, so with the
// cached topology (Hierarchy::use_topology()) step 1 leaves those cells out:
// each grid's SiblingLink::overlap boxes go to the parent fill as covered
// boxes, and only the ghost cells no sibling reaches are interpolated.  The
// bytes are the same as interpolating all of them, since the copies run
// after the parent fill; the all-pairs path still interpolates every ghost
// cell and stays the reference.  Counters: boundary.ghost_cells_filled
// (ghost cells per grid per fill) and boundary.ghost_cells_interpolated
// (the part step 1 computed).
//
// The root level has no parent: its external boundary is periodic (sibling
// copies with domain-shift images, including self-copies for a single root
// grid) or outflow (edge replication) per HierarchyParams::periodic.

#include "mesh/hierarchy.hpp"

namespace enzo::exec {
class LevelExecutor;
}

namespace enzo::mesh {

/// Apply the two-step boundary fill to every grid on `level`.  With `ex`,
/// grids fill in parallel: each task writes only its own ghost layer and
/// reads parent/sibling *active* cells, which the phase never writes.
void set_boundary_values(Hierarchy& h, int level,
                         exec::LevelExecutor* ex = nullptr);

/// Outflow (zero-gradient) fill of a root grid's external ghost zones.
void fill_outflow_ghosts(Grid& g);

}  // namespace enzo::mesh
