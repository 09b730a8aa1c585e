// §5 flop-rate reproduction.
//
// Paper methodology: count operations for a representative run segment with
// the R10000 hardware counter (64-bit build), time the same segment on the
// SP2 at full 128-bit precision, divide → ~13 Gflop/s sustained on 64
// processors.  Then the "virtual flop rate": a static grid equivalent to the
// final resolution (1e12 cells per side, ~1e10 timesteps → ~1e50 operations)
// delivered in the same 1e6 s wall clock → ~1e44 flop/s.
//
// We do the analogous accounting: analytic per-kernel operation counts read
// back as the change of the metrics registry's `flops.*` counters (posted
// by the instrumented solvers — the "future project" of §5), wall-clock for
// the same segment, the identical virtual-rate arithmetic for our scaled
// run, and a machine-readable BENCH_table_flops.json.

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "collapse_common.hpp"
#include "perf/json.hpp"
#include "perf/metrics.hpp"
#include "util/timer.hpp"

using namespace enzo;

namespace {

/// The registry's `flops.<component>` counters by component ("total"
/// included), read through the snapshot every registry consumer uses.
std::map<std::string, double> flop_counts() {
  std::map<std::string, double> out;
  for (const perf::Registry::Sample& s : perf::Registry::global().snapshot())
    if (s.name.rfind("flops.", 0) == 0) out[s.name.substr(6)] = s.value;
  return out;
}

}  // namespace

int main() {
  const std::map<std::string, double> before = flop_counts();

  auto run = bench::collapse_run_config(16, 4, /*chemistry=*/true,
                                        /*with_dark_matter=*/true);
  core::Simulation sim(run.cfg);
  sim.initialize(bench::collapse_setup(run));
  bench::add_dark_matter(sim, 16, 0.1);

  util::Stopwatch wall;
  int root_steps = 0;
  for (; root_steps < 8; ++root_steps) sim.advance_root_step();
  const double seconds = wall.seconds();

  // Per-component operations of this segment: the change of each counter.
  std::vector<std::pair<std::string, double>> rows;
  double total = 0.0;
  for (const auto& [component, count] : flop_counts()) {
    const auto it = before.find(component);
    const double ops = count - (it == before.end() ? 0.0 : it->second);
    if (component == "total")
      total = ops;
    else
      rows.emplace_back(component, ops);
  }

  std::printf("sustained-rate accounting (scaled run, %d root steps):\n\n",
              root_steps);
  std::printf("%-16s %18s\n", "component", "operations");
  for (auto& [name, count] : rows)
    std::printf("%-16s %18.0f\n", name.c_str(), count);
  std::printf("%-16s %18.0f\n", "total", total);
  std::printf("\nwall clock: %.2f s  →  sustained ≈ %.3f Gflop/s\n", seconds,
              total / seconds / 1e9);
  std::printf("paper: ~13 Gflop/s sustained on 64 SP2 processors "
              "(~0.2 Gflop/s per processor; same order as one modern core\n"
              "running this much smaller, cache-unfriendly problem).\n");

  // ---- virtual flop rate -----------------------------------------------------
  // Paper arithmetic: (1e12)³ cells × 1e10 steps × O(100) flops/cell-step
  //                 ≈ 1e50 ops in ~1e6 s → ~1e44 flop/s.
  double virtual_ops_run = 0.0;
  {
    const double cells = std::pow(1e12, 3);
    const double steps = 1e10;
    const double per_cell = 100.0;
    const double virtual_ops = cells * steps * per_cell;
    std::printf("\nvirtual-rate arithmetic, paper scale:\n");
    std::printf("  static 1e12³ grid × 1e10 steps × %.0f flops ≈ %.1e ops\n",
                per_cell, virtual_ops);
    std::printf("  over 1e6 s  →  %.1e flop/s   (paper: ~1e44)\n",
                virtual_ops / 1e6);
  }
  {
    // Our scaled run: SDR = root_n × 2^max_level; the equivalent static run
    // needs SDR³ cells and SDR times more (finest) steps than root steps.
    const double sdr = 16.0 * std::pow(2.0, run.cfg.hierarchy.max_level);
    const double cells = std::pow(sdr, 3);
    const double fine_steps = root_steps * std::pow(2.0, run.cfg.hierarchy.max_level);
    // Same per-cell-step cost basis as the instrumented hydro (3 sweeps) +
    // the other solvers, so virtual vs actual compare like for like.
    const double per_cell = 3.0 * 220.0 + 400.0;
    virtual_ops_run = cells * fine_steps * per_cell;
    std::printf("\nvirtual-rate arithmetic, this run (SDR = %.0f):\n", sdr);
    std::printf("  %.1e ops over %.2f s  →  %.2e virtual flop/s vs %.2e "
                "actual\n",
                virtual_ops_run, seconds, virtual_ops_run / seconds,
                total / seconds);
    std::printf("  adaptivity leverage: %.0fx (the paper's is ~1e34x)\n",
                virtual_ops_run / total);
  }

  // ---- machine-readable output --------------------------------------------
  std::string json = "{\"bench\":\"table_flops\",\"root_steps\":" +
                     perf::json_number(root_steps) +
                     ",\"wall_seconds\":" + perf::json_number(seconds) +
                     ",\"components\":[";
  bool first = true;
  for (auto& [name, count] : rows) {
    if (!first) json += ",";
    first = false;
    json += "{\"name\":\"" + perf::json_escape(name) +
            "\",\"operations\":" + perf::json_number(count) + "}";
  }
  json += "],\"total_operations\":" + perf::json_number(total) +
          ",\"sustained_flops\":" + perf::json_number(total / seconds) +
          ",\"virtual_flops\":" +
          perf::json_number(virtual_ops_run / seconds) + "}\n";
  const char* out_path = "BENCH_table_flops.json";
  if (std::FILE* f = std::fopen(out_path, "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", out_path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  return 0;
}
