// §3.4 reproduction: the communication-layer optimizations, measured.
//
//   * sterile objects: "almost all messages are direct data sends; very few
//     probes are required" — we run the distributed halo exchange with and
//     without replicated metadata and report the probe counts;
//   * pipelined communications: "we can order these sends such that the data
//     that are required first are sent first ... resulted in a large
//     decrease in wait times" — modeled wait times for SAMR-like message
//     mixes;
//   * load balancing: grid-granularity distribution of an actual collapse
//     hierarchy's grids (LPT vs creation-order round-robin).

#include <cstdio>

#include "collapse_common.hpp"
#include "parallel/distributed.hpp"
#include "parallel/load_balance.hpp"
#include "parallel/pipeline.hpp"
#include "parallel/sterile.hpp"
#include "util/rng.hpp"

using namespace enzo;
using namespace enzo::parallel;

int main() {
  // ---- sterile objects -------------------------------------------------------
  std::printf("=== sterile objects: probe elimination ===\n");
  util::Buffer3 field(16, 16, 16);
  util::Rng rng(1);
  for (double& v : field.view()) v = rng.uniform(-1, 1);
  for (bool sterile : {false, true}) {
    DistributedRunInfo info;
    (void)distributed_jacobi(field, 2, 4, sterile, &info);
    const auto& s = info.stats;
    std::printf("  %-18s ranks=%d sends=%llu receives=%llu probes=%llu "
                "(%.0f %% of receives)\n",
                sterile ? "with sterile" : "without sterile", info.nranks,
                static_cast<unsigned long long>(s.sends),
                static_cast<unsigned long long>(s.receives),
                static_cast<unsigned long long>(s.probes),
                100.0 * s.probes / std::max<std::uint64_t>(s.receives, 1));
  }
  std::printf("  paper: 'very few probes are required' — here zero.\n\n");

  // ---- pipelined sends --------------------------------------------------------
  std::printf("=== pipelined two-phase sends: modeled receiver wait ===\n");
  std::printf("  %-26s %12s %12s %8s\n", "message mix", "naive [ms]",
              "pipelined", "gain");
  struct Mix {
    const char* name;
    std::vector<SendTask> tasks;
  };
  std::vector<Mix> mixes;
  {
    Mix m{"reverse-need uniform", {}};
    for (int i = 0; i < 64; ++i) m.tasks.push_back({i % 8, 4e5, 63 - i});
    mixes.push_back(std::move(m));
  }
  {
    Mix m{"random need, mixed sizes", {}};
    util::Rng r(9);
    for (int i = 0; i < 64; ++i)
      m.tasks.push_back({i % 8, 1e4 + 1e6 * r.uniform(),
                         static_cast<int>(r.uniform(0, 64))});
    mixes.push_back(std::move(m));
  }
  {
    Mix m{"boundary-first (SAMR)", {}};
    util::Rng r(10);
    // Many small boundary strips needed early + a few big interior blocks
    // needed late — the SAMR boundary-exchange pattern.
    for (int i = 0; i < 48; ++i) m.tasks.push_back({i % 8, 5e4, i});
    for (int i = 0; i < 8; ++i) m.tasks.push_back({i, 4e6, 48 + i});
    std::reverse(m.tasks.begin(), m.tasks.end());  // created interior-first
    mixes.push_back(std::move(m));
  }
  for (const auto& m : mixes) {
    const double bw = 1e8, lat = 2e-5, proc = 5e-3;
    const double naive =
        simulated_wait(m.tasks, naive_order(m.tasks.size()), bw, lat, proc);
    const double piped =
        simulated_wait(m.tasks, pipeline_order(m.tasks), bw, lat, proc);
    std::printf("  %-26s %12.2f %12.2f %7.1fx\n", m.name, naive * 1e3,
                piped * 1e3, naive / std::max(piped, 1e-12));
  }
  std::printf("  paper: 'a large decrease in wait times'.\n\n");

  // ---- load balancing on a real hierarchy --------------------------------------
  std::printf("=== grid-granularity load balance of a collapse hierarchy ===\n");
  auto run = bench::collapse_run_config(32, 3, /*chemistry=*/false);
  // Tighter clustering efficiency → many smaller grids, the paper's regime
  // ("grids are generally small (~20³) and numerous").
  run.cfg.hierarchy.cluster.min_efficiency = 0.85;
  run.cfg.refinement.baryon_mass_threshold *= 0.4;
  core::Simulation sim(run.cfg);
  sim.initialize(bench::collapse_setup(run));
  sim.advance_root_step();
  std::vector<double> weights;
  double steps = 1.0;
  for (int l = 0; l <= sim.hierarchy().deepest_level(); ++l) {
    for (const mesh::Grid* g : sim.hierarchy().grids(l))
      weights.push_back(static_cast<double>(g->box().volume()) * steps);
    steps *= 2.0;
  }
  std::printf("  %zu grids over %d levels; weights = cells x timestep "
              "ratio\n",
              weights.size(), sim.hierarchy().deepest_level() + 1);
  for (int ranks : {4, 8, 16, 64}) {
    const auto lpt = balance_lpt(weights, ranks);
    const auto rr = balance_round_robin(weights, ranks);
    std::printf("  %3d ranks: LPT imbalance %6.1f %%   round-robin %6.1f %%\n",
                ranks, 100 * lpt.imbalance(), 100 * rr.imbalance());
  }
  std::printf("  paper: 'load balancing becomes a serious headache since\n"
              "  small regions of the original grid eventually dominate' —\n"
              "  at high rank counts even LPT saturates at the single-\n"
              "  heaviest-grid floor, the §5 '40%% communication and load\n"
              "  imbalance' regime.\n");
  return 0;
}
