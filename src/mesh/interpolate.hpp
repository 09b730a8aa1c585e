#pragma once
// Prolongation: coarse → fine data transfer (§3.2.1 step 1 of the two-step
// boundary procedure, and interior fill of newly created grids in §3.2.2
// step 3).
//
// Interpolation is cell-centered, piecewise linear with minmod-limited
// slopes per axis (monotone, and exactly conservative per coarse cell for
// density-like fields since the sub-cell offsets sum to zero).  Ghost-zone
// fills are additionally *time*-interpolated between the parent's stored old
// and new states, which is what gives the W-cycle its time-centered subgrid
// boundary conditions (Fig. 2).
//
// Both fills take the boxes their caller overwrites straight afterwards
// (sibling copies, or old-grid copies during a rebuild) and leave the cells
// inside them untouched: interpolating them would only produce bytes the
// copy replaces, so skipping them changes no result.

#include <cstdint>
#include <span>

#include "mesh/grid.hpp"

namespace enzo::mesh {

/// Fill the ghost cells of `child` from `parent` data, interpolating
/// linearly in time to `child.time()` when the parent carries an old state.
/// Ghost indices are mapped into the parent *unwrapped*: a ghost beyond the
/// domain edge lands (by floor division) in the parent's own ghost zones,
/// which the parent level's boundary fill has already set with periodic or
/// outflow data.  Requires the child's total (ghost-inclusive) region to be
/// covered by the parent's total region, covered cells included, and throws
/// "child cell not covered by parent" otherwise.  Cells inside `covered`
/// (global child-level index boxes) are not written.  Returns the number of
/// cells interpolated.
std::int64_t fill_ghosts_from_parent(Grid& child, const Grid& parent,
                                     std::span<const IndexBox> covered = {});

/// Fill the child's *active* region (interior) by interpolating the parent's
/// current state — used when a rebuilt hierarchy creates grids over regions
/// that were previously unrefined.  Cells inside `covered` are not written.
/// Returns the number of cells interpolated.
std::int64_t fill_active_from_parent(Grid& child, const Grid& parent,
                                     std::span<const IndexBox> covered = {});

}  // namespace enzo::mesh
