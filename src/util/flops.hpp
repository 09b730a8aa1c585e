#pragma once
// Floating-point operation estimation.
//
// The paper measures a hardware op count on an R10000 for a representative
// run segment and combines it with SP2 wall-clock to quote ~13 Gflop/s
// sustained, then computes a "virtual flop rate" of ~1e44 flop/s versus a
// hypothetical static 1e12^3 grid.  We instrument each solver with an
// analytic per-cell operation estimate (the future project mentioned in §5)
// and post it to the metrics registry as `flops.<component>` and
// `flops.total` counters (ComponentFlops); the table_flops bench divides by
// measured wall time to produce the same two numbers.

#include <cstdint>
#include <string>

#include "perf/metrics.hpp"

namespace enzo::util {

/// Analytic per-cell-update flop estimates for each solver, used consistently
/// across the code.  These are deliberately conservative (counts of the
/// arithmetic in the inner loops, treating transcendental calls as one op,
/// exactly as the paper's hardware counter treats a 128-bit op as one).
namespace flop_cost {
inline constexpr std::uint64_t kPpmPerCellPerSweep = 220;
inline constexpr std::uint64_t kZeusPerCellPerSweep = 70;
inline constexpr std::uint64_t kFftPerPointLog2 = 5;       // per point per log2(N)
inline constexpr std::uint64_t kMultigridPerCellPerSweep = 9;
inline constexpr std::uint64_t kChemistryPerCellPerSubcycle = 400;
inline constexpr std::uint64_t kCicPerParticle = 60;
inline constexpr std::uint64_t kInterpolationPerCell = 25;
inline constexpr std::uint64_t kProjectionPerCell = 4;
}  // namespace flop_cost

/// One solver's flop counters: `flops.<component>` and `flops.total`, looked
/// up once.  Call sites keep one in a function-local static; add() is two
/// lock-free atomic adds.
class ComponentFlops {
 public:
  explicit ComponentFlops(const std::string& component,
                          perf::Registry& reg = perf::Registry::global())
      : component_(reg.counter("flops." + component)),
        total_(reg.counter("flops.total")) {}
  void add(std::uint64_t n) {
    component_.add(n);
    total_.add(n);
  }

 private:
  perf::Counter& component_;
  perf::Counter& total_;
};

}  // namespace enzo::util
