#pragma once
// Distributed-objects demonstration (§3.4): a periodic field partitioned
// tile-per-rank, advanced by 7-point Jacobi smoothing with halo exchange
// over the in-process Transport.  This is the end-to-end exercise of the
// machinery: distributed objects (tiles), direct source-addressed sends
// (enabled by sterile metadata) versus any-source probes, and a two-phase
// post-all-sends-then-receive schedule.  Tests verify bit-identical results
// against the serial computation and measure the probe elimination.

#include "parallel/comm.hpp"
#include "util/array3.hpp"

namespace enzo::parallel {

struct DistributedRunInfo {
  CommStats stats;
  int nranks = 0;
};

/// Smooth `input` (n×n×n, periodic) `iters` times with the 7-point average,
/// distributed over tiles_per_axis³ ranks.  use_sterile=true posts direct
/// (source, tag)-matched receives; false uses any-source receives, each of
/// which the transport counts as a probe.  Returns the reassembled field.
util::Buffer3 distributed_jacobi(const util::Buffer3& input,
                                 int tiles_per_axis, int iters,
                                 bool use_sterile,
                                 DistributedRunInfo* info = nullptr);

/// Serial reference for the same operation.
util::Buffer3 serial_jacobi(const util::Buffer3& input, int iters);

}  // namespace enzo::parallel
