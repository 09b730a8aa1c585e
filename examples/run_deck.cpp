// run_deck: the production entry point — run any problem from a text
// parameter deck (see src/core/parameter_file.hpp for the key list and the
// decks/ directory for checked-in examples).
//
//   $ ./run_deck ../decks/first_star.enzo
//   $ ./run_deck ../decks/sod.enzo
//
// Telemetry flags (may appear anywhere on the command line):
//   --trace-out=FILE   write a Chrome trace_event JSON timeline of the run
//                      (load in chrome://tracing or Perfetto)
//   --diag-out=FILE    append one JSONL diagnostics record per root step
//                      (z, dt + limiter, grids/cells per level, conservation
//                      residuals, peak bytes, flops)
//   --audit            run the AMR invariant auditor after every root step
//                      (same as deck key AuditInvariants = 1); any violation
//                      makes the run exit non-zero
//
// A deck whose problem registers an analytic reference (SodTube,
// SedovBlast, ZeldovichPancake, ...) ends with its L1 density error, or
// "n/a" when the reference does not hold at the final time (a Zel'dovich
// pancake past its caustic).
//
// Every deck prints one "work:" line: the run's delta of each exact work
// counter (zone-cycles, hydro cells and pencil cells, Riemann sweeps,
// multigrid solves, V-cycles and unconverged solves, chemistry subcycles,
// ghost cells filled and interpolated), with zone-cycles per wall second,
// V-cycles per solve and pencil cells per updated cell.
//
// Execution flag (overrides the deck's Threads key):
//   --threads N        run level sweeps on N lanes (1 = serial backend,
//                      0 = all hardware threads); also --threads=N
//
// Checkpoint / restart:
//   --restart          resume from the newest intact snapshot in the deck's
//                      CheckpointPath directory (corrupted or torn snapshots
//                      are skipped automatically)
//   --restart=PATH     resume from PATH (a snapshot file or a directory)
//   With CheckpointInterval = N in the deck, a snapshot is written to
//   CheckpointPath every N root steps (rolling retention CheckpointKeep,
//   default 3).  Without it, one snapshot is written at end of run.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "core/parameter_file.hpp"
#include "exec/exec_config.hpp"
#include "io/checkpoint.hpp"
#include "io/checkpoint_writer.hpp"
#include "perf/diagnostics.hpp"
#include "perf/metrics.hpp"
#include "perf/trace.hpp"
#include "problems/registry.hpp"
#include "util/timer.hpp"

using namespace enzo;

namespace {

/// The exact work counters the "work:" line reports, in print order.
constexpr const char* kWorkCounters[] = {
    "driver.zone_cycles",     "hydro.cells_updated",
    "hydro.pencil_cells",     "hydro.riemann_sweeps",
    "gravity.mg_solves",      "gravity.mg_vcycles",
    "gravity.mg_unconverged", "chemistry.subcycles",
    "boundary.ghost_cells_filled", "boundary.ghost_cells_interpolated"};

using WorkCounts = std::map<std::string, std::uint64_t>;

WorkCounts read_work_counters() {
  WorkCounts c;
  for (const char* n : kWorkCounters)
    c[n] = perf::Registry::global().counter(n).value();
  return c;
}

/// " (<num/den> <what>)", or " (n/a <what>)" when den is 0.
std::string ratio(double num, double den, const char* what) {
  char buf[96];
  if (den > 0)
    std::snprintf(buf, sizeof buf, " (%.4g %s)", num / den, what);
  else
    std::snprintf(buf, sizeof buf, " (n/a %s)", what);
  return buf;
}

/// One line of each counter's delta since `before`, over `seconds` of wall.
void print_work_line(const WorkCounts& before, double seconds) {
  WorkCounts d = read_work_counters();
  for (auto& [name, v] : d) v -= before.at(name);
  const auto at = [&](const char* n) { return static_cast<double>(d[n]); };
  std::string line = "work:";
  for (const char* n : kWorkCounters) {
    line += " " + std::string(n) + "=" + std::to_string(d[n]);
    const std::string name = n;
    if (name == "driver.zone_cycles")
      line += ratio(at(n), seconds, "per s");
    else if (name == "hydro.pencil_cells")
      line += ratio(at(n), at("hydro.cells_updated"), "per updated cell");
    else if (name == "gravity.mg_vcycles")
      line += ratio(at(n), at("gravity.mg_solves"), "per solve");
  }
  std::printf("%s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_out, diag_out;
  bool audit = false;
  bool restart = false;
  std::string restart_path;  // empty: use the deck's CheckpointPath
  int threads_override = -1;  // -1: keep the deck's value
  std::vector<const char*> decks;
  for (int a = 1; a < argc; ++a) {
    if (std::strncmp(argv[a], "--trace-out=", 12) == 0)
      trace_out = argv[a] + 12;
    else if (std::strncmp(argv[a], "--diag-out=", 11) == 0)
      diag_out = argv[a] + 11;
    else if (std::strcmp(argv[a], "--audit") == 0)
      audit = true;
    else if (std::strcmp(argv[a], "--restart") == 0)
      restart = true;
    else if (std::strncmp(argv[a], "--restart=", 10) == 0) {
      restart = true;
      restart_path = argv[a] + 10;
    }
    else if (std::strncmp(argv[a], "--threads=", 10) == 0)
      threads_override = std::atoi(argv[a] + 10);
    else if (std::strcmp(argv[a], "--threads") == 0 && a + 1 < argc)
      threads_override = std::atoi(argv[++a]);
    else
      decks.push_back(argv[a]);
  }
  if (decks.empty()) {
    std::fprintf(stderr,
                 "usage: %s [--trace-out=FILE] [--diag-out=FILE] [--audit] "
                 "[--restart[=PATH]] "
                 "[--threads N] "
                 "<parameter-deck> [more decks...]\n",
                 argv[0]);
    return 1;
  }

  perf::TraceRecorder& recorder = perf::TraceRecorder::global();
  if (!trace_out.empty()) recorder.enable_events(true);
  std::unique_ptr<perf::DiagnosticsSink> sink;
  if (!diag_out.empty()) {
    sink = std::make_unique<perf::DiagnosticsSink>(diag_out);
    if (!sink->ok()) {
      std::fprintf(stderr, "cannot open --diag-out file: %s\n",
                   diag_out.c_str());
      return 1;
    }
  }

  std::uint64_t audit_violations = 0;
  for (const char* deck_path : decks) {
    std::printf("==== deck: %s ====\n", deck_path);
    core::ParameterDeck deck = core::parse_parameter_file(deck_path);
    if (audit) deck.config.audit_invariants = true;
    if (threads_override >= 0)
      deck.config.exec = exec::ExecConfig::for_lanes(threads_override);
    std::printf("effective parameters:\n%s\n",
                core::render_deck(deck).c_str());
    core::Simulation sim(deck.config);
    // The sink must be attached before a restore: attaching resets the
    // conservation baselines that read_checkpoint then reinstates.
    if (sink) sim.set_diagnostics_sink(sink.get());
    if (restart) {
      const std::string from =
          !restart_path.empty() ? restart_path : deck.checkpoint_path;
      if (from.empty()) {
        std::fprintf(stderr,
                     "--restart needs a path: pass --restart=PATH or set "
                     "CheckpointPath in the deck\n");
        return 1;
      }
      core::configure_from_deck(sim, deck);
      const io::RestoreResult res = io::restore_latest_checkpoint(sim, from);
      std::printf("restarted from %s (step %ld, t = %.6g%s)\n",
                  res.path.c_str(), sim.root_steps_taken(), sim.time_d(),
                  res.skipped > 0
                      ? (", " + std::to_string(res.skipped) +
                         " corrupt snapshot(s) skipped")
                            .c_str()
                      : "");
    } else {
      core::setup_from_deck(sim, deck);
    }
    std::printf("initialized: %d levels, %zu grids, %lld cells\n",
                sim.hierarchy().deepest_level() + 1,
                sim.hierarchy().total_grids(),
                static_cast<long long>(sim.hierarchy().total_cells()));

    // Periodic auto-checkpointing: encode on the solver thread (per-grid
    // sections in parallel through the level executor), write + prune in the
    // background.  Declared after sim so it joins its worker first.
    std::unique_ptr<io::CheckpointWriter> ckpt_writer;
    if (deck.checkpoint_interval > 0 && !deck.checkpoint_path.empty()) {
      io::CheckpointWriter::Options copts;
      copts.dir = deck.checkpoint_path;
      copts.keep = deck.checkpoint_keep;
      copts.executor = &sim.executor();
      ckpt_writer = std::make_unique<io::CheckpointWriter>(copts);
      const int interval = deck.checkpoint_interval;
      sim.set_post_step_hook([&ckpt_writer, interval](core::Simulation& s) {
        if (s.root_steps_taken() % interval == 0)
          ckpt_writer->checkpoint(s);
      });
    }

    const auto work_before = read_work_counters();
    util::Stopwatch wall;
    for (long s = sim.root_steps_taken(); s < deck.stop_steps; ++s) {
      if (deck.stop_time > 0 && sim.time_d() >= deck.stop_time) break;
      if (deck.stop_time > 0)
        sim.evolve_until(deck.stop_time, 1);
      else
        sim.advance_root_step();
      const auto st = analysis::hierarchy_stats(sim.hierarchy());
      std::printf("step %3ld  t = %-10.4g levels %d  grids %-5zu cells %lld\n",
                  s, sim.time_d(), st.max_level + 1, st.total_grids,
                  static_cast<long long>(st.total_cells));
    }
    if (ckpt_writer) {
      sim.set_post_step_hook(nullptr);
      ckpt_writer->wait();
      if (!ckpt_writer->ok()) {
        std::fprintf(stderr, "checkpoint write failed: %s\n",
                     ckpt_writer->last_error().c_str());
        return 1;
      }
      std::printf("checkpoints: %llu written to %s (newest %ld kept)\n",
                  static_cast<unsigned long long>(
                      ckpt_writer->writes_completed()),
                  deck.checkpoint_path.c_str(),
                  static_cast<long>(deck.checkpoint_keep));
    }
    const double run_seconds = wall.seconds();
    std::printf("done in %.1f s wall\n", run_seconds);
    print_work_line(work_before, run_seconds);
    if (deck.config.audit_invariants) {
      std::printf("audit: %ld run(s), %llu violation(s); last: %s\n",
                  sim.audits_run(),
                  static_cast<unsigned long long>(
                      sim.audit_violations_total()),
                  sim.last_audit().summary().c_str());
      audit_violations += sim.audit_violations_total();
    }
    if (deck.checkpoint_interval <= 0 && !deck.checkpoint_path.empty()) {
      io::CheckpointWriteOptions wopts;
      wopts.executor = &sim.executor();
      io::write_checkpoint(sim, deck.checkpoint_path, wopts);
      std::printf("checkpoint written: %s (%.1f MB raw)\n",
                  deck.checkpoint_path.c_str(),
                  io::checkpoint_size_bytes(sim) / 1048576.0);
    }
    const problems::ProblemSpec& spec =
        problems::Registry::global().at(deck.problem);
    if (spec.l1_density_error) {
      const double l1 = spec.l1_density_error(sim, deck);
      if (std::isnan(l1))
        std::printf("L1 density error vs %s reference: n/a (no exact "
                    "solution at t = %.6g)\n",
                    spec.name.c_str(), sim.time_d());
      else
        std::printf("L1 density error vs %s reference: %.6e (t = %.6g)\n",
                    spec.name.c_str(), l1, sim.time_d());
    }
  }

  if (!trace_out.empty()) {
    if (recorder.write_chrome_trace(trace_out)) {
      std::printf("trace written: %s (%lld events, %lld dropped)\n",
                  trace_out.c_str(),
                  static_cast<long long>(recorder.events_recorded()),
                  static_cast<long long>(recorder.events_dropped()));
    } else {
      std::fprintf(stderr, "cannot write --trace-out file: %s\n",
                   trace_out.c_str());
      return 1;
    }
  }
  if (sink)
    std::printf("diagnostics written: %s (%lld records)\n", diag_out.c_str(),
                static_cast<long long>(sink->records_written()));
  std::printf("%s", perf::TraceRecorder::global().component_report().c_str());
  if (audit_violations > 0) {
    std::fprintf(stderr, "FAILED: %llu AMR invariant violation(s)\n",
                 static_cast<unsigned long long>(audit_violations));
    return 2;
  }
  return 0;
}
