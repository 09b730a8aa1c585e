#include "mesh/interpolate.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "util/annotations.hpp"
#include "util/error.hpp"
#include "util/flops.hpp"

namespace enzo::mesh {

namespace {

/// Minmod as two selects, so the cell loop has no data-dependent branch.
ENZO_HOT inline double minmod(double a, double b) {
  const double m = std::abs(a) < std::abs(b) ? a : b;
  return a * b <= 0.0 ? 0.0 : m;
}

/// One axis of a region mapped onto the parent, per child storage index:
/// the parent storage cell, the two cells its slope reads (the cell itself
/// where the parent array ends, so every load stays in range), whether both
/// slope neighbours exist, and the sub-cell offset in (-0.5, 0.5).
struct AxisTable {
  std::vector<int> cell, lo, hi, interior;
  std::vector<double> frac;
};

/// The cells [i0, i1) of storage row (j, k) of the child.
struct Run {
  int j, k, i0, i1;
};

/// Per-lane scratch: the tables and runs of the region being filled keep
/// their capacity from one fill to the next.
struct Scratch {
  std::array<AxisTable, 3> axis;
  std::vector<IndexBox> boxes;  ///< covered boxes, region-clipped
  std::vector<Run> runs;
};

/// Map child storage indices [lo, hi) along axis d onto the parent.  Every
/// entry is checked against the parent's total region here, so the cell
/// loops below read through the table without a bounds check.
void build_axis(AxisTable& t, const Grid& child, const Grid& parent, int d,
                int lo, int hi) {
  ENZO_REQUIRE(child.spec().level_dims[d] % parent.spec().level_dims[d] == 0,
               "non-integer level refinement");
  const std::int64_t rd =
      child.spec().level_dims[d] / parent.spec().level_dims[d];
  const int pn = parent.nt(d);
  const auto n = static_cast<std::size_t>(hi - lo);
  t.cell.resize(n);
  t.lo.resize(n);
  t.hi.resize(n);
  t.interior.resize(n);
  t.frac.resize(n);
  for (int s = lo; s < hi; ++s) {
    // Global child-level index, deliberately *unwrapped*: a ghost index
    // beyond the domain maps (by floor division) into the parent's own ghost
    // zones, which the parent-level boundary pass has already filled with
    // the periodic or outflow data.  Wrapping here instead would point at
    // far-side cells the single parent does not cover.
    const std::int64_t g = child.box().lo[d] + (s - child.ng(d));
    const std::int64_t pcell =
        g >= 0 ? g / rd : -((-g + rd - 1) / rd);  // floor division
    const std::int64_t psd = pcell - parent.box().lo[d] + parent.ng(d);
    ENZO_REQUIRE(psd >= 0 && psd < pn, "child cell not covered by parent " +
                                           parent.box().str() + " child " +
                                           child.box().str());
    const int p = static_cast<int>(psd);
    const bool interior = p - 1 >= 0 && p + 1 < pn;
    const auto e = static_cast<std::size_t>(s - lo);
    t.cell[e] = p;
    t.lo[e] = interior ? p - 1 : p;
    t.hi[e] = interior ? p + 1 : p;
    t.interior[e] = interior;
    t.frac[e] = rd == 1 ? 0.0
                        : (static_cast<double>(g - pcell * rd) + 0.5) /
                                  static_cast<double>(rd) -
                              0.5;
  }
}

/// Split the rows of region [slo, shi) into runs that miss every covered
/// box (global child-level indices); returns the cells in those runs.
std::int64_t build_runs(Scratch& sc, const Grid& child, const int slo[3],
                        const int shi[3], std::span<const IndexBox> covered) {
  // The covered boxes in child storage indices, clipped to the region and
  // sorted by their first x index for the sweep along each row.
  const IndexBox region{{slo[0], slo[1], slo[2]}, {shi[0], shi[1], shi[2]}};
  Index3 to_storage;
  for (int d = 0; d < 3; ++d) to_storage[d] = child.ng(d) - child.box().lo[d];
  sc.boxes.clear();
  for (const IndexBox& b : covered) {
    const IndexBox c = b.shifted(to_storage).intersect(region);
    if (!c.empty()) sc.boxes.push_back(c);
  }
  std::sort(sc.boxes.begin(), sc.boxes.end(),
            [](const IndexBox& a, const IndexBox& b) {
              return a.lo[0] < b.lo[0];
            });
  sc.runs.clear();
  std::int64_t cells = 0;
  auto emit = [&](int j, int k, std::int64_t i0, std::int64_t i1) {
    sc.runs.push_back({j, k, static_cast<int>(i0), static_cast<int>(i1)});
    cells += i1 - i0;
  };
  for (int k = slo[2]; k < shi[2]; ++k)
    for (int j = slo[1]; j < shi[1]; ++j) {
      std::int64_t i = slo[0];
      for (const IndexBox& c : sc.boxes) {
        if (j < c.lo[1] || j >= c.hi[1] || k < c.lo[2] || k >= c.hi[2])
          continue;
        if (c.lo[0] > i) emit(j, k, i, c.lo[0]);
        i = std::max(i, c.hi[0]);
      }
      if (i < shi[0]) emit(j, k, i, shi[0]);
    }
  return cells;
}

/// The parent rows one child row samples: the row under it and its slope
/// neighbours along y and z.
struct Taps {
  const double* c;
  const double* ym;
  const double* yp;
  const double* zm;
  const double* zp;
};

/// Row pointers (to x index 0) of the parent rows a run reads, whose x
/// indices all lie in [xa, xb]; the ENZO_BOUNDS_CHECK build checks that
/// span of every row through ArrayView3::row.
Taps taps_of(ConstFieldView p, const AxisTable& ty, const AxisTable& tz,
             std::size_t jy, std::size_t kz, int xa, int xb) {
  const int n = xb - xa + 1;
  const int pj = ty.cell[jy], pk = tz.cell[kz];
  return {p.row(xa, n, pj, pk) - xa, p.row(xa, n, ty.lo[jy], pk) - xa,
          p.row(xa, n, ty.hi[jy], pk) - xa, p.row(xa, n, pj, tz.lo[kz]) - xa,
          p.row(xa, n, pj, tz.hi[kz]) - xa};
}

/// The x-table entries of one run, and the y/z entries of its row.  The
/// flags are ints: GCC 12 leaves a loop scalar when it selects on a bool.
struct RunTables {
  const int* cell;
  const int* lo;
  const int* hi;
  const int* interior;
  const double* frac;
  double fy, fz;
  int iy, iz;
};

/// Minmod-limited linear sample of the parent rows `t` for cell i of the
/// run.  Term by term the historical per-cell arithmetic: out = v, then
/// out += f·slope per axis whose offset is nonzero, the slope 0 where the
/// parent array ends.  Every tap is loaded and every slope computed
/// unconditionally (the tables keep the loads in range), then selected, so
/// the loop around it vectorizes.
ENZO_HOT inline double sample(const Taps& t, const RunTables& r, int i) {
  const int p = r.cell[i];
  const double v = t.c[p];
  const double mx = minmod(t.c[r.hi[i]] - v, v - t.c[r.lo[i]]);
  const double my = minmod(t.yp[p] - v, v - t.ym[p]);
  const double mz = minmod(t.zp[p] - v, v - t.zm[p]);
  const double fx = r.frac[i];
  double out = v;
  const double ox = out + fx * (r.interior[i] != 0 ? mx : 0.0);
  out = fx != 0.0 ? ox : out;
  const double oy = out + r.fy * (r.iy != 0 ? my : 0.0);
  out = r.fy != 0.0 ? oy : out;
  const double oz = out + r.fz * (r.iz != 0 ? mz : 0.0);
  return r.fz != 0.0 ? oz : out;
}

/// Interpolate one run of n cells into `out`, blending in the parent's old
/// state `od` with weight 1 − w when kBlend, then flooring nonpositive
/// results of a density-like field at max(parent cell, 1e-300).  noipa:
/// inlined into its caller or cloned by IPA-CP, the kernel loses the
/// restrict on `out`, and GCC 12 then keeps the loop scalar because a
/// gather might alias the store.
template <bool kBlend>
[[gnu::noipa]] ENZO_HOT void fill_run(double* __restrict out, int n,
                                      const RunTables& r, const Taps& nw,
                                      const Taps& od, double w,
                                      int positive) {
  for (int i = 0; i < n; ++i) {
    double v = sample(nw, r, i);
    if constexpr (kBlend) v = w * v + (1.0 - w) * sample(od, r, i);
    const double c = nw.c[r.cell[i]];  // a local: std::max of an element
    const double floored = std::max(c, 1e-300);  // would select addresses
    out[i] = positive != 0 && v <= 0.0 ? floored : v;
  }
}

/// Interpolate `child`'s cells within the half-open *local storage* region
/// [slo, shi) from the parent, except those inside `covered`.  time_weight
/// in [0,1] blends parent old (0) → new (1) states.  Returns the number of
/// cells interpolated.
ENZO_HOT std::int64_t interpolate_region(Grid& child, const Grid& parent,
                                         const int slo[3], const int shi[3],
                                         double time_weight,
                                         std::span<const IndexBox> covered) {
  thread_local Scratch sc;
  for (int d = 0; d < 3; ++d)
    build_axis(sc.axis[d], child, parent, d, slo[d], shi[d]);
  const std::int64_t cells = build_runs(sc, child, slo, shi, covered);
  const AxisTable& tx = sc.axis[0];
  const AxisTable& ty = sc.axis[1];
  const AxisTable& tz = sc.axis[2];
  const bool use_old = time_weight < 1.0 && parent.has_old_fields();

  for (Field f : child.field_list()) {
    if (!parent.has_field(f)) continue;
    const FieldView dst = child.field(f);
    const ConstFieldView pnew = parent.field(f);
    const ConstFieldView pold =
        use_old ? parent.old_field(f) : ConstFieldView{};
    const int positive = is_density_like(f) ? 1 : 0;
    for (const Run& run : sc.runs) {
      const auto ix = static_cast<std::size_t>(run.i0 - slo[0]);
      const auto jy = static_cast<std::size_t>(run.j - slo[1]);
      const auto kz = static_cast<std::size_t>(run.k - slo[2]);
      const RunTables r{&tx.cell[ix],     &tx.lo[ix],   &tx.hi[ix],
                        &tx.interior[ix], &tx.frac[ix], ty.frac[jy],
                        tz.frac[kz],      ty.interior[jy],
                        tz.interior[kz]};
      const int n = run.i1 - run.i0;
      // The tables are monotone: the run reads parent x in [lo[0], hi[n-1]].
      const int xa = r.lo[0], xb = r.hi[n - 1];
      double* out = dst.row(run.i0, n, run.j, run.k);
      const Taps nw = taps_of(pnew, ty, tz, jy, kz, xa, xb);
      if (use_old)
        fill_run<true>(out, n, r, nw, taps_of(pold, ty, tz, jy, kz, xa, xb),
                       time_weight, positive);
      else
        fill_run<false>(out, n, r, nw, nw, time_weight, positive);
    }
  }
  return cells;
}

/// Post one fill's flop estimate.
void count_flops(const Grid& child, std::int64_t cells) {
  static util::ComponentFlops flops("interpolation");
  flops.add(util::flop_cost::kInterpolationPerCell *
            static_cast<std::uint64_t>(cells) * child.field_list().size());
}

}  // namespace

std::int64_t fill_ghosts_from_parent(Grid& child, const Grid& parent,
                                     std::span<const IndexBox> covered) {
  // Time weight from the parent's [old_time, time] bracket.
  double w = 1.0;
  if (parent.has_old_fields()) {
    const double span =
        ext::pos_to_double(parent.time() - parent.old_time());
    if (span > 0.0) {
      w = ext::pos_to_double(child.time() - parent.old_time()) / span;
      w = std::min(1.0, std::max(0.0, w));
    }
  }
  // Six ghost slabs (faces including edges/corners progressively).
  std::int64_t cells = 0;
  for (int d = 0; d < 3; ++d) {
    if (child.ng(d) == 0) continue;
    for (int side = 0; side < 2; ++side) {
      int slo[3], shi[3];
      for (int e = 0; e < 3; ++e) {
        // Along already-processed axes include ghosts; along later axes
        // restrict to active to avoid double work (corners are covered once).
        if (e < d) {
          slo[e] = 0;
          shi[e] = child.nt(e);
        } else if (e > d) {
          slo[e] = child.ng(e);
          shi[e] = child.ng(e) + child.nx(e);
        }
      }
      slo[d] = side == 0 ? 0 : child.ng(d) + child.nx(d);
      shi[d] = side == 0 ? child.ng(d) : child.nt(d);
      cells += interpolate_region(child, parent, slo, shi, w, covered);
    }
  }
  count_flops(child, cells);
  return cells;
}

std::int64_t fill_active_from_parent(Grid& child, const Grid& parent,
                                     std::span<const IndexBox> covered) {
  int slo[3], shi[3];
  for (int d = 0; d < 3; ++d) {
    slo[d] = child.ng(d);
    shi[d] = child.ng(d) + child.nx(d);
  }
  const std::int64_t cells = interpolate_region(
      child, parent, slo, shi, /*time_weight=*/1.0, covered);
  count_flops(child, cells);
  return cells;
}

}  // namespace enzo::mesh
