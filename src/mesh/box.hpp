#pragma once
// Integer index boxes.
//
// All grid alignment logic works in the integer index space of a refinement
// level (cell i of level l lives at global index offset+i, with the level's
// index space r× finer per level).  Keeping alignment in integers — with
// extended precision reserved for *positions* — is what makes subgrid
// containment and flux-face matching exact at 34 levels (§3.1: "the
// refinement factor is constrained to be an integer so that meshes can be
// aligned").

#include <array>
#include <cstdint>
#include <string>

namespace enzo::mesh {

using Index3 = std::array<std::int64_t, 3>;

/// Half-open integer box [lo, hi) in a level's global index space.
struct IndexBox {
  Index3 lo{0, 0, 0};
  Index3 hi{0, 0, 0};

  bool empty() const {
    return hi[0] <= lo[0] || hi[1] <= lo[1] || hi[2] <= lo[2];
  }
  std::int64_t extent(int d) const { return hi[d] - lo[d]; }
  std::int64_t volume() const {
    if (empty()) return 0;
    return extent(0) * extent(1) * extent(2);
  }
  bool contains(const Index3& p) const {
    for (int d = 0; d < 3; ++d)
      if (p[d] < lo[d] || p[d] >= hi[d]) return false;
    return true;
  }
  bool contains(const IndexBox& o) const {
    for (int d = 0; d < 3; ++d)
      if (o.lo[d] < lo[d] || o.hi[d] > hi[d]) return false;
    return true;
  }
  friend bool operator==(const IndexBox& a, const IndexBox& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }

  IndexBox intersect(const IndexBox& o) const {
    IndexBox r;
    for (int d = 0; d < 3; ++d) {
      r.lo[d] = lo[d] > o.lo[d] ? lo[d] : o.lo[d];
      r.hi[d] = hi[d] < o.hi[d] ? hi[d] : o.hi[d];
      if (r.hi[d] < r.lo[d]) r.hi[d] = r.lo[d];
    }
    return r;
  }

  IndexBox shifted(const Index3& s) const {
    return {{lo[0] + s[0], lo[1] + s[1], lo[2] + s[2]},
            {hi[0] + s[0], hi[1] + s[1], hi[2] + s[2]}};
  }

  IndexBox grown(std::int64_t g) const {
    return {{lo[0] - g, lo[1] - g, lo[2] - g},
            {hi[0] + g, hi[1] + g, hi[2] + g}};
  }

  /// Refine to the next level's index space (factor r per dimension).
  IndexBox refined(int r) const {
    return {{lo[0] * r, lo[1] * r, lo[2] * r},
            {hi[0] * r, hi[1] * r, hi[2] * r}};
  }

  /// Coarsen to the previous level (floor/ceil so the result covers *this).
  IndexBox coarsened(int r) const {
    auto fdiv = [](std::int64_t a, std::int64_t b) {
      return a >= 0 ? a / b : -((-a + b - 1) / b);
    };
    auto cdiv = [](std::int64_t a, std::int64_t b) {
      return a >= 0 ? (a + b - 1) / b : -((-a) / b);
    };
    return {{fdiv(lo[0], r), fdiv(lo[1], r), fdiv(lo[2], r)},
            {cdiv(hi[0], r), cdiv(hi[1], r), cdiv(hi[2], r)}};
  }

  std::string str() const {
    // Appends only: inlined into an -O3 TU, `"literal" + std::string`
    // draws a false -Wrestrict warning from GCC 12.
    std::string s = "[";
    auto put = [&s](const Index3& v) {
      s += '(';
      s += std::to_string(v[0]);
      s += ',';
      s += std::to_string(v[1]);
      s += ',';
      s += std::to_string(v[2]);
      s += ')';
    };
    put(lo);
    s += "..";
    put(hi);
    s += ')';
    return s;
  }
};

}  // namespace enzo::mesh
