// §5 table reproduction: the fraction of compute time per science component.
//
//   paper (64-proc SP2):        hydrodynamics 36 %, Poisson solver 17 %,
//   chemistry & cooling 11 %, N-body 1 %, hierarchy rebuild 9 %,
//   boundary conditions 15 %, other overhead 11 %
//
// We run the instrumented scaled collapse (with a dark-matter component so
// the N-body line is exercised), read the measured table from the global
// trace recorder, print it side by side with the paper's, and emit the
// machine-readable BENCH_table_components.json for regression tracking.
//
// A second sweep re-runs the same collapse across executor thread counts
// and emits BENCH_exec_scaling.json (threads, wall seconds, speedup over
// the serial run, plus cores_detected so a 1-core container result is not
// mistaken for an engine regression).
//
// Finally the evolved hierarchy is checkpointed (raw and compressed) and
// BENCH_checkpoint.json records snapshot size, compression ratio, and write
// throughput, so checkpoint-path regressions show up in the bench record.

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "collapse_common.hpp"
#include "exec/exec_config.hpp"
#include "io/checkpoint.hpp"
#include "perf/json.hpp"
#include "perf/trace.hpp"
#include "util/timer.hpp"

using namespace enzo;

namespace {

/// One scaled collapse run on the given executor; returns wall seconds.
double timed_collapse(const exec::ExecConfig& lanes) {
  auto run = bench::collapse_run_config(16, 4, /*chemistry=*/true,
                                        /*with_dark_matter=*/true);
  run.cfg.exec = lanes;
  core::Simulation sim(run.cfg);
  sim.initialize(bench::collapse_setup(run));
  bench::add_dark_matter(sim, 16, /*total_mass=*/0.1);
  util::Stopwatch wall;
  for (int s = 0; s < 8; ++s) sim.advance_root_step();
  return wall.seconds();
}

}  // namespace

int main() {
  auto& recorder = perf::TraceRecorder::global();
  recorder.reset();

  auto run = bench::collapse_run_config(16, 4, /*chemistry=*/true,
                                        /*with_dark_matter=*/true);
  core::Simulation sim(run.cfg);
  sim.initialize(bench::collapse_setup(run));
  bench::add_dark_matter(sim, 16, /*total_mass=*/0.1);

  for (int s = 0; s < 8; ++s) sim.advance_root_step();

  const std::map<std::string, double> paper = {
      {perf::component::kHydro, 36.0},
      {perf::component::kGravity, 17.0},
      {perf::component::kChemistry, 11.0},
      {perf::component::kNbody, 1.0},
      {perf::component::kRebuild, 9.0},
      {perf::component::kBoundary, 15.0},
      {perf::component::kOther, 11.0},
  };

  std::printf("component usage (fractions of instrumented compute time)\n\n");
  std::printf("%-28s %10s %10s\n", "component", "paper", "measured");
  for (auto& [name, frac] : paper) {
    const double total = recorder.total_seconds();
    const double m =
        total > 0 ? 100.0 * recorder.component_seconds(name) / total : 0.0;
    std::printf("%-28s %8.1f %% %8.1f %%\n", name.c_str(), frac, m);
  }
  std::printf("\nraw trace report:\n%s", recorder.component_report().c_str());
  std::printf(
      "\nnotes: fractions depend on problem scale — our chemistry share is\n"
      "larger (12-species network on few, small grids), the N-body share is\n"
      "small as in the paper, and hydro+gravity dominate the rest.  The\n"
      "paper's further 40%% (communication + load imbalance on 64 procs)\n"
      "does not exist in this single-address-space run; see the parallel\n"
      "module benches for the communication-layer measurements.\n");

  // ---- machine-readable output --------------------------------------------
  std::string json = "{\"bench\":\"table_components\",\"total_seconds\":" +
                     perf::json_number(recorder.total_seconds()) +
                     ",\"components\":[";
  bool first = true;
  double fraction_sum = 0.0;
  for (const auto& row : recorder.component_table()) {
    if (!first) json += ",";
    first = false;
    fraction_sum += row.fraction;
    json += "{\"name\":\"" + perf::json_escape(row.name) +
            "\",\"seconds\":" + perf::json_number(row.seconds) +
            ",\"fraction\":" + perf::json_number(row.fraction);
    const auto it = paper.find(row.name);
    if (it != paper.end())
      json += ",\"paper_percent\":" + perf::json_number(it->second);
    json += "}";
  }
  json += "],\"fraction_sum\":" + perf::json_number(fraction_sum) + "}\n";
  const char* out_path = "BENCH_table_components.json";
  if (std::FILE* f = std::fopen(out_path, "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("\nwrote %s (fraction sum %.12f)\n", out_path, fraction_sum);
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }

  // ---- executor scaling sweep ---------------------------------------------
  // Same collapse, swept over LevelExecutor lane counts.  Speedup is
  // relative to the serial (threads = 1) run; on a 1-core box all rows
  // measure scheduling overhead only, which is why cores_detected is part
  // of the record.
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("\nexecutor scaling (same collapse, 8 root steps, %u core(s) "
              "detected)\n\n",
              cores);
  std::printf("%8s %12s %12s %8s\n", "threads", "backend", "wall [s]",
              "speedup");
  std::string scaling = "{\"bench\":\"exec_scaling\",\"cores_detected\":" +
                        perf::json_number(cores) +
                        ",\"target_speedup\":3,\"runs\":[";
  double serial_wall = 0.0;
  bool first_run = true;
  for (const int threads : {1, 2, 4, 8}) {
    const exec::ExecConfig lanes = exec::ExecConfig::for_lanes(threads);
    const double wall = timed_collapse(lanes);
    if (threads == 1) serial_wall = wall;
    const double speedup = wall > 0 ? serial_wall / wall : 0.0;
    const char* backend =
        lanes.backend == exec::Backend::kSerial ? "serial" : "threadpool";
    std::printf("%8d %12s %12.3f %8.2f\n", threads, backend, wall, speedup);
    if (!first_run) scaling += ",";
    first_run = false;
    scaling += "{\"threads\":" + perf::json_number(threads) +
               ",\"backend\":\"" + backend +
               "\",\"wall_seconds\":" + perf::json_number(wall) +
               ",\"speedup\":" + perf::json_number(speedup) + "}";
  }
  scaling += "]}\n";
  const char* scaling_path = "BENCH_exec_scaling.json";
  if (std::FILE* f = std::fopen(scaling_path, "w")) {
    std::fputs(scaling.c_str(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", scaling_path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", scaling_path);
    return 1;
  }

  // ---- checkpoint size / throughput ---------------------------------------
  // Snapshot the evolved hierarchy from the component run twice — once raw,
  // once with shuffle+RLE section compression — through the real atomic
  // write path, and record sizes and wall time.
  namespace fs = std::filesystem;
  const fs::path ckpt_dir = fs::temp_directory_path() / "enzo_bench_ckpt";
  fs::create_directories(ckpt_dir);
  const std::uint64_t raw_bytes = io::checkpoint_size_bytes(sim);
  std::printf("\ncheckpoint write (evolved collapse hierarchy, %.2f MiB raw)\n"
              "\n%12s %14s %10s %10s %14s\n",
              static_cast<double>(raw_bytes) / (1024.0 * 1024.0), "mode",
              "file [B]", "ratio", "wall [s]", "write [MB/s]");
  std::string ckpt_json = "{\"bench\":\"checkpoint\",\"raw_bytes\":" +
                          perf::json_number(raw_bytes) + ",\"runs\":[";
  bool first_ckpt = true;
  for (const bool compress : {false, true}) {
    io::CheckpointWriteOptions opts;
    opts.compress = compress;
    opts.executor = &sim.executor();
    const fs::path path =
        ckpt_dir / (compress ? "bench_comp.ckpt" : "bench_raw.ckpt");
    util::Stopwatch wall;
    io::write_checkpoint(sim, path.string(), opts);
    const double secs = wall.seconds();
    const auto file_bytes = static_cast<std::uint64_t>(fs::file_size(path));
    const double ratio =
        file_bytes > 0 ? static_cast<double>(raw_bytes) / file_bytes : 0.0;
    const double mb_s =
        secs > 0 ? static_cast<double>(file_bytes) / (1.0e6 * secs) : 0.0;
    const char* mode = compress ? "compressed" : "raw";
    std::printf("%12s %14llu %9.2fx %10.4f %14.1f\n", mode,
                static_cast<unsigned long long>(file_bytes), ratio, secs,
                mb_s);
    if (!first_ckpt) ckpt_json += ",";
    first_ckpt = false;
    ckpt_json += std::string("{\"mode\":\"") + mode +
                 "\",\"file_bytes\":" + perf::json_number(file_bytes) +
                 ",\"ratio\":" + perf::json_number(ratio) +
                 ",\"wall_seconds\":" + perf::json_number(secs) +
                 ",\"write_mb_s\":" + perf::json_number(mb_s) + "}";
  }
  ckpt_json += "]}\n";
  fs::remove_all(ckpt_dir);
  const char* ckpt_path = "BENCH_checkpoint.json";
  if (std::FILE* f = std::fopen(ckpt_path, "w")) {
    std::fputs(ckpt_json.c_str(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", ckpt_path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", ckpt_path);
    return 1;
  }
  return 0;
}
