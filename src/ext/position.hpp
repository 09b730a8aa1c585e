#pragma once
// Position/time precision policy.
//
// Per §3.5 of the paper, only quantities involving *absolute* position and
// time use extended precision; everything O(Δx) stays in 64-bit.  `pos_t` is
// the type of grid edges, particle positions and simulation time, and a
// small vector type is provided for convenience.  The epa_precision bench
// compares double and dd arithmetic directly, to show why the paper needed
// 128 bits.

#include <array>

#include "ext/dd.hpp"

namespace enzo::ext {

using pos_t = dd;
inline double pos_to_double(dd p) { return p.to_double(); }

using PosVec = std::array<pos_t, 3>;

inline std::array<double, 3> to_double(const PosVec& p) {
  return {pos_to_double(p[0]), pos_to_double(p[1]), pos_to_double(p[2])};
}

}  // namespace enzo::ext
