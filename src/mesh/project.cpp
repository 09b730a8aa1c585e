#include "mesh/project.hpp"

#include <cmath>

#include "util/annotations.hpp"
#include "util/error.hpp"
#include "util/flops.hpp"

namespace enzo::mesh {

namespace {
void axis_ratios(const Grid& child, const Grid& parent, int rd[3]) {
  for (int d = 0; d < 3; ++d) {
    ENZO_REQUIRE(child.spec().level_dims[d] % parent.spec().level_dims[d] == 0,
                 "non-integer level refinement");
    rd[d] = static_cast<int>(child.spec().level_dims[d] /
                             parent.spec().level_dims[d]);
  }
}

/// Coarsen a child box with per-axis ratios (degenerate axes have ratio 1).
IndexBox coarsen_per_axis(const IndexBox& b, const int rd[3]) {
  IndexBox r;
  for (int d = 0; d < 3; ++d) {
    r.lo[d] = b.lo[d] / rd[d];
    r.hi[d] = (b.hi[d] + rd[d] - 1) / rd[d];
  }
  return r;
}
}  // namespace

ENZO_HOT std::int64_t project_to_parent(const Grid& child, Grid& parent) {
  ENZO_REQUIRE(child.level() == parent.level() + 1,
               "projection requires a direct parent");
  int rd[3];
  axis_ratios(child, parent, rd);
  const IndexBox cover =
      coarsen_per_axis(child.box(), rd).intersect(parent.box());
  if (cover.empty()) return 0;
  const double inv_nf = 1.0 / (static_cast<double>(rd[0]) * rd[1] * rd[2]);

  // Precompute fine-cell volume averages of density first (needed for the
  // mass weighting of specific fields).
  const ConstFieldView crho = child.field(Field::kDensity);

  for (std::int64_t pk = cover.lo[2]; pk < cover.hi[2]; ++pk)
    for (std::int64_t pj = cover.lo[1]; pj < cover.hi[1]; ++pj)
      for (std::int64_t pi = cover.lo[0]; pi < cover.hi[0]; ++pi) {
        // Child storage index of the first covered fine cell.
        const int ci0 =
            static_cast<int>(pi * rd[0] - child.box().lo[0]) + child.ng(0);
        const int cj0 =
            static_cast<int>(pj * rd[1] - child.box().lo[1]) + child.ng(1);
        const int ck0 =
            static_cast<int>(pk * rd[2] - child.box().lo[2]) + child.ng(2);
        const int psi = static_cast<int>(pi - parent.box().lo[0]) + parent.ng(0);
        const int psj = static_cast<int>(pj - parent.box().lo[1]) + parent.ng(1);
        const int psk = static_cast<int>(pk - parent.box().lo[2]) + parent.ng(2);

        double rho_sum = 0.0;
        for (int ck = 0; ck < rd[2]; ++ck)
          for (int cj = 0; cj < rd[1]; ++cj)
            for (int ci = 0; ci < rd[0]; ++ci)
              rho_sum += crho(ci0 + ci, cj0 + cj, ck0 + ck);
        const double rho_avg = rho_sum * inv_nf;

        for (Field f : parent.field_list()) {
          if (!child.has_field(f)) continue;
          const auto& ca = child.field(f);
          double v;
          if (f == Field::kDensity) {
            v = rho_avg;
          } else if (is_specific(f)) {
            double wsum = 0.0;
            for (int ck = 0; ck < rd[2]; ++ck)
              for (int cj = 0; cj < rd[1]; ++cj)
                for (int ci = 0; ci < rd[0]; ++ci)
                  wsum += crho(ci0 + ci, cj0 + cj, ck0 + ck) *
                          ca(ci0 + ci, cj0 + cj, ck0 + ck);
            v = rho_sum > 0.0 ? wsum / rho_sum : 0.0;
          } else {  // density-like passive scalar
            double sum = 0.0;
            for (int ck = 0; ck < rd[2]; ++ck)
              for (int cj = 0; cj < rd[1]; ++cj)
                for (int ci = 0; ci < rd[0]; ++ci)
                  sum += ca(ci0 + ci, cj0 + cj, ck0 + ck);
            v = sum * inv_nf;
          }
          parent.field(f)(psi, psj, psk) = v;
        }
      }
  static util::ComponentFlops flops("projection");
  flops.add(util::flop_cost::kProjectionPerCell * cover.volume() *
            parent.field_list().size() * rd[0] * rd[1] * rd[2]);
  return cover.volume();
}

void flux_correct_from_child(const Grid& child, Grid& parent) {
  // The child's *boundary registers* hold fluxes integrated over all of its
  // subcycles inside the parent's last step — the same window as the
  // parent's per-step flux arrays.
  if (!child.has_boundary_fluxes() || !parent.has_fluxes()) return;
  int rd[3];
  axis_ratios(child, parent, rd);

  // Conserved scratch per field id.
  const auto& plist = parent.field_list();

  for (int d = 0; d < 3; ++d) {
    if (parent.spec().level_dims[d] == 1) continue;
    const int e1 = (d + 1) % 3, e2 = (d + 2) % 3;
    ENZO_REQUIRE(child.box().lo[d] % rd[d] == 0 &&
                     child.box().hi[d] % rd[d] == 0,
                 "child box not aligned to parent cells");
    const IndexBox ccover = coarsen_per_axis(child.box(), rd);
    const double inv_area = 1.0 / (static_cast<double>(rd[e1]) * rd[e2]);

    for (int side = 0; side < 2; ++side) {
      const std::int64_t face_c =
          side == 0 ? child.box().lo[d] / rd[d] : child.box().hi[d] / rd[d];
      // Coarse cell just outside the child across this face.
      const std::int64_t out_c = side == 0 ? face_c - 1 : face_c;
      if (out_c < parent.box().lo[d] || out_c >= parent.box().hi[d])
        continue;  // outside this parent: documented skip (sibling's cell)

      for (std::int64_t p2 = ccover.lo[e2]; p2 < ccover.hi[e2]; ++p2)
        for (std::int64_t p1 = ccover.lo[e1]; p1 < ccover.hi[e1]; ++p1) {
          // Parent storage index of the outside cell, and the active index
          // of the flux face (the registers hold active faces only).
          std::int64_t pc[3];
          pc[d] = out_c;
          pc[e1] = p1;
          pc[e2] = p2;
          int ps[3], pf[3];
          bool in_parent = true;
          for (int e = 0; e < 3; ++e) {
            const std::int64_t s = pc[e] - parent.box().lo[e];
            if (s < 0 || s >= parent.nx(e)) in_parent = false;
            pf[e] = static_cast<int>(s);
            ps[e] = pf[e] + parent.ng(e);
          }
          if (!in_parent) continue;
          // The face array stores the lower face of each cell: for side==0
          // the shared face is the upper face of out_c (index out_c+1); for
          // side==1 it is the lower face of out_c.
          if (side == 0) pf[d] += 1;

          // Fine flux average over the r_e1 × r_e2 fine faces on this face
          // (boundary-register planes: extent 1 along d, active-indexed).
          const int c1_0 = static_cast<int>(p1 * rd[e1] - child.box().lo[e1]);
          const int c2_0 = static_cast<int>(p2 * rd[e2] - child.box().lo[e2]);

          // Gather conserved state of the outside parent cell.
          const double rho = parent.field(Field::kDensity)(ps[0], ps[1], ps[2]);
          double cons[kNumFields];
          for (Field f : plist) {
            const double q = parent.field(f)(ps[0], ps[1], ps[2]);
            cons[field_index(f)] = is_specific(f) ? rho * q : q;
          }

          const double inv_dxp = 1.0 / parent.cell_width_d(d);
          const double sign = side == 0 ? -1.0 : 1.0;
          // Does the corrected face lie on the parent's own boundary?  Then
          // the parent's boundary register (feeding the grandparent's
          // correction) must absorb the improvement too.
          const int pside =
              pf[d] == 0 ? 0 : (pf[d] == parent.nx(d) ? 1 : -1);
          for (Field f : plist) {
            if (!child.has_field(f)) continue;
            const auto& cbf = child.boundary_flux(f, d, side);
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
            const FieldView pflux = parent.flux(f, d);
            const double coarse = pflux(pf[0], pf[1], pf[2]);
            cons[field_index(f)] += sign * (fine - coarse) * inv_dxp;
            // Propagate the improved flux upward for the grandparent's own
            // correction step.
            pflux(pf[0], pf[1], pf[2]) = fine;
            if (pside >= 0 && parent.has_boundary_fluxes()) {
              int pb[3];
              pb[d] = 0;
              pb[e1] = pf[e1];
              pb[e2] = pf[e2];
              parent.boundary_flux(f, d, pside)(pb[0], pb[1], pb[2]) +=
                  fine - coarse;
            }
          }

          // Scatter back, guarding against a pathological negative density.
          const double rho_new = cons[field_index(Field::kDensity)];
          if (rho_new <= 0.0) continue;
          for (Field f : plist) {
            double v = cons[field_index(f)];
            if (is_specific(f)) v /= rho_new;
            // Same positivity policy as the sweep's species update: a
            // correction on a near-zero abundance must not drive it negative
            // (interpolation would clamp any child back to ≥ 0, leaving a
            // permanent parent/child projection mismatch).
            if (is_species(f)) v = std::max(v, 0.0);
            parent.field(f)(ps[0], ps[1], ps[2]) = v;
          }
        }
    }
  }
}

}  // namespace enzo::mesh
