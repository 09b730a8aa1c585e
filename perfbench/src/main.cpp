// perfbench_run: one benchmark process.  Runs one deck as a closed batch
// (one simulation at a time) on a fixed number of lanes and prints one JSON
// object as its last stdout line.
//
//   perfbench_run --deck FILE --lanes N --steps K [--episodes E]
//                 [--warmup W] [--setup-reps R] [--l1-max X] [--trace]
//
// Untraced mode runs E episodes (parse + initialize, then K root steps via
// Simulation::advance_root_step); E = 0 only times set-up.  Set-up is also
// timed R extra times before the first episode, and a clock probe is timed
// around every set-up and root step.  Trace mode runs one untraced
// reference episode and one traced replay of the same K root steps
// (replay.hpp), and reports whether their states are byte-identical.  In
// either mode W untimed episodes run first, so that the timed ones start
// warm.  Every episode is checked outside its timed region: state
// fingerprint, AMR audit, finite/positive active cells, and the registry's
// analytic L1 error where the problem has one.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/parameter_file.hpp"
#include "core/simulation.hpp"
#include "io/checkpoint.hpp"
#include "io/codec.hpp"
#include "perf/metrics.hpp"
#include "problems/registry.hpp"
#include "replay.hpp"

using namespace enzo;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string deck;
  int lanes = 1;
  int steps = 1;
  int episodes = 1;
  int warmup = 0;
  int setup_reps = 3;
  double l1_max = -1.0;
  bool trace = false;
};

/// Registry counters whose per-episode deltas must repeat exactly at any
/// lane count.
constexpr const char* kExactCounts[] = {
    "driver.zone_cycles",      "boundary.ghost_cells_filled",
    "chemistry.subcycles",     "hydro.cells_updated",
    "nbody.cic_deposits",      "arena.regrid_kept_grids",
    "arena.regrid_new_grids",  "exec.tasks"};

std::map<std::string, std::uint64_t> read_counts() {
  std::map<std::string, std::uint64_t> c;
  for (const char* n : kExactCounts)
    c[n] = perf::Registry::global().counter(n).value();
  return c;
}

core::ParameterDeck load_deck(const Options& o) {
  core::ParameterDeck deck = core::parse_parameter_file(o.deck);
  deck.config.exec.threads = o.lanes;
  deck.config.exec.backend =
      o.lanes == 1 ? exec::Backend::kSerial : exec::Backend::kThreadPool;
  deck.config.audit_invariants = false;
  deck.config.trace_wcycle = false;
  return deck;
}

/// Deck parse plus Simulation::initialize (the set-up the metric names).
std::unique_ptr<core::Simulation> set_up(const Options& o,
                                         core::ParameterDeck& deck,
                                         double& seconds) {
  const auto t0 = Clock::now();
  deck = load_deck(o);
  auto sim = std::make_unique<core::Simulation>(deck.config);
  core::setup_from_deck(*sim, deck);
  seconds = since(t0);
  return sim;
}

struct Fingerprint {
  std::vector<std::uint8_t> image;  ///< uncompressed checkpoint image
  std::uint32_t grid_crc = 0;       ///< CRC-32 over every GRID section
  std::uint32_t meta_crc = 0;       ///< CRC-32 of the META section
};

template <class T>
T read_le(const std::vector<std::uint8_t>& b, std::size_t at) {
  T v{};
  std::memcpy(&v, b.data() + at, sizeof v);
  return v;
}

/// Walks the format-v2 sections (16 B header; 28 B section headers).
Fingerprint fingerprint(const core::Simulation& sim) {
  Fingerprint fp;
  io::CheckpointWriteOptions opts;
  opts.compress = false;
  fp.image = io::encode_checkpoint(sim, opts);
  std::size_t at = 16;
  while (at + 28 <= fp.image.size()) {
    const auto tag = read_le<std::uint32_t>(fp.image, at);
    if (tag != io::kSectionGrid && tag != io::kSectionMeta) break;
    const auto stored = read_le<std::uint64_t>(fp.image, at + 16);
    at += 28;
    if (stored > fp.image.size() - at) throw Error("fingerprint: bad section");
    if (tag == io::kSectionGrid)
      fp.grid_crc = io::crc32(fp.image.data() + at, stored, fp.grid_crc);
    else
      fp.meta_crc = io::crc32(fp.image.data() + at, stored, fp.meta_crc);
    at += stored;
  }
  return fp;
}

struct Checks {
  bool ok = true;
  std::string why;
  std::uint64_t audit_violations = 0;
  double l1 = -1.0;
  void fail(const std::string& w) {
    ok = false;
    if (!why.empty()) why += "; ";
    why += w;
  }
};

/// Finite values in every active cell, positive density and internal energy.
void check_cells(const core::Simulation& sim, Checks& c) {
  const mesh::Hierarchy& h = sim.hierarchy();
  for (int l = 0; l <= h.deepest_level(); ++l)
    for (const mesh::Grid* g : h.grids(l))
      for (mesh::Field f : g->field_list()) {
        if (!g->has_field(f)) continue;
        const auto v = g->field(f);
        const bool positive =
            f == mesh::Field::kDensity || f == mesh::Field::kInternalEnergy;
        for (int k = 0; k < g->nx(2); ++k)
          for (int j = 0; j < g->nx(1); ++j)
            for (int i = 0; i < g->nx(0); ++i) {
              const double x = v(g->sx(i), g->sy(j), g->sz(k));
              if (!std::isfinite(x) || (positive && !(x > 0.0))) {
                c.fail("bad " + std::string(mesh::field_name(f)) + " on level " +
                       std::to_string(l));
                return;
              }
            }
      }
}

/// Checks that run after the fingerprint is taken (the audit refreshes
/// ghost zones).
Checks check_state(core::Simulation& sim, const core::ParameterDeck& deck,
                   const Options& o) {
  Checks c;
  check_cells(sim, c);
  const analysis::AuditReport& rep = sim.run_audit();
  c.audit_violations = rep.total_violations;
  if (!rep.passed()) c.fail("audit: " + rep.summary());
  if (o.l1_max > 0.0) {
    const auto& spec = problems::Registry::global().at(deck.problem);
    if (!spec.l1_density_error) {
      c.fail("no L1 reference for " + deck.problem);
    } else {
      c.l1 = spec.l1_density_error(sim, deck);
      if (!(c.l1 <= o.l1_max)) c.fail("L1 " + std::to_string(c.l1));
    }
  }
  return c;
}

/// Seconds for a fixed chain of dependent integer operations.  Its length in
/// cycles never changes, so its time tracks the core's clock rate, which on a
/// shared host moves with the load of its other tenants.  Best of three runs,
/// so that an interrupt does not count.
double clock_probe() {
  constexpr std::uint64_t kChain = 2'000'000;
  std::uint64_t x = 1;
  double best = 1e30;
  for (int r = 0; r < 3; ++r) {
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kChain; ++i) {
      x = x * 3 + 1;
      asm volatile("" : "+r"(x));
    }
    best = std::min(best, since(t0));
  }
  return best;
}

struct Episode {
  double setup_s = 0.0;
  double evolve_s = 0.0;
  std::vector<double> step_s;  ///< wall time of each root step
  /// Clock probes before the set-up, between it and each root step, and
  /// after the last one: set-up and step i lie between probes i and i + 1.
  std::vector<double> probe_s;
  std::map<std::string, std::uint64_t> counts;
  std::uint32_t grid_crc = 0;
  std::uint32_t meta_crc = 0;
  Checks checks;
};

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) ch = ' ';
    out += ch;
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string episode_json(const Episode& e) {
  std::string s = "{\"setup_s\":" + json_num(e.setup_s) +
                  ",\"evolve_s\":" + json_num(e.evolve_s) + ",\"step_s\":[";
  for (std::size_t i = 0; i < e.step_s.size(); ++i)
    s += (i ? "," : "") + json_num(e.step_s[i]);
  s += "],\"probe_s\":[";
  for (std::size_t i = 0; i < e.probe_s.size(); ++i)
    s += (i ? "," : "") + json_num(e.probe_s[i]);
  s += "],\"counts\":{";
  bool first = true;
  for (const auto& [k, v] : e.counts) {
    s += (first ? "" : ",") + json_str(k) + ":" + std::to_string(v);
    first = false;
  }
  s += "},\"grid_crc\":" + std::to_string(e.grid_crc) +
       ",\"meta_crc\":" + std::to_string(e.meta_crc) +
       ",\"ok\":" + (e.checks.ok ? "true" : "false") +
       ",\"why\":" + json_str(e.checks.why) +
       ",\"audit_violations\":" + std::to_string(e.checks.audit_violations) +
       ",\"l1\":" + json_num(e.checks.l1) + "}";
  return s;
}

/// One untraced episode: set up, advance K root steps, check.
Episode run_episode(const Options& o, Fingerprint* keep = nullptr) {
  Episode e;
  core::ParameterDeck deck;
  e.probe_s.push_back(clock_probe());
  auto sim = set_up(o, deck, e.setup_s);
  e.probe_s.push_back(clock_probe());
  const auto c0 = read_counts();
  for (int s = 0; s < o.steps; ++s) {
    const auto ts = Clock::now();
    sim->advance_root_step();
    e.step_s.push_back(since(ts));
    e.evolve_s += e.step_s.back();
    e.probe_s.push_back(clock_probe());
  }
  const auto c1 = read_counts();
  for (const auto& [k, v] : c1) e.counts[k] = v - c0.at(k);
  Fingerprint fp = fingerprint(*sim);
  e.grid_crc = fp.grid_crc;
  e.meta_crc = fp.meta_crc;
  e.checks = check_state(*sim, deck, o);
  if (keep != nullptr) *keep = std::move(fp);
  return e;
}

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string build_json() {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const bool sanitized = true;
#else
  const bool sanitized = false;
#endif
  return std::string("{\"build_type\":") + json_str(PERFBENCH_BUILD_TYPE) +
         ",\"ndebug\":" + (ndebug ? "true" : "false") +
         ",\"sanitized\":" + (sanitized ? "true" : "false") +
         ",\"kernel_native\":" + (PERFBENCH_KERNEL_NATIVE ? "true" : "false") +
         ",\"compiler\":" + json_str(std::string("g++ ") + __VERSION__) + "}";
}

bool parse_args(int argc, char** argv, Options& o) {
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const bool has_value = a + 1 < argc;
    if (arg == "--trace") {
      o.trace = true;
    } else if (!has_value) {
      return false;
    } else if (arg == "--deck") {
      o.deck = argv[++a];
    } else if (arg == "--lanes") {
      o.lanes = std::atoi(argv[++a]);
    } else if (arg == "--steps") {
      o.steps = std::atoi(argv[++a]);
    } else if (arg == "--episodes") {
      o.episodes = std::atoi(argv[++a]);
    } else if (arg == "--warmup") {
      o.warmup = std::atoi(argv[++a]);
    } else if (arg == "--setup-reps") {
      o.setup_reps = std::atoi(argv[++a]);
    } else if (arg == "--l1-max") {
      o.l1_max = std::atof(argv[++a]);
    } else {
      return false;
    }
  }
  return !o.deck.empty() && o.lanes >= 1 && o.steps >= 1 &&
         o.episodes >= (o.trace ? 1 : 0) &&
         o.warmup >= 0 && o.setup_reps >= 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse_args(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: %s --deck FILE --lanes N --steps K [--episodes E] "
                 "[--warmup W] [--setup-reps R] [--l1-max X] [--trace]\n",
                 argv[0]);
    return 2;
  }
  try {
    for (int w = 0; w < o.warmup; ++w) {
      const Episode e = run_episode(o);
      if (!e.checks.ok) throw Error("warm-up episode failed: " + e.checks.why);
    }
    std::vector<double> setups;
    std::vector<double> setup_probes{clock_probe()};
    for (int r = 0; r < o.setup_reps; ++r) {
      core::ParameterDeck deck;
      double secs = 0.0;
      auto sim = set_up(o, deck, secs);
      setups.push_back(secs);
      setup_probes.push_back(clock_probe());
    }

    std::vector<Episode> episodes;
    std::string trace_json;
    // Peak RSS after the warm-up, the set-up reps and the first episode.
    double rss_mb = 0.0;
    if (!o.trace) {
      for (int i = 0; i < o.episodes; ++i) {
        episodes.push_back(run_episode(o));
        if (i == 0) rss_mb = peak_rss_mb();
        std::fprintf(stderr, "episode %d: setup %.3f s, evolve %.3f s%s\n", i + 1,
                     episodes.back().setup_s, episodes.back().evolve_s,
                     episodes.back().checks.ok ? "" : " FAILED");
      }
    } else {
      Fingerprint ref;
      episodes.push_back(run_episode(o, &ref));
      rss_mb = peak_rss_mb();
      // The traced replay of the same root steps on a fresh simulation.
      core::ParameterDeck deck;
      double secs = 0.0;
      auto sim = set_up(o, deck, secs);
      const perfbench::LayerReport rep = perfbench::traced_replay(*sim, o.steps);
      const Fingerprint fp = fingerprint(*sim);
      Checks c = check_state(*sim, deck, o);
      const bool identical = fp.image == ref.image;
      if (!identical) c.fail("replay state differs from advance_root_step");
      const double untraced = episodes.front().evolve_s;
      trace_json = "{\"identical\":" + std::string(identical ? "true" : "false") +
                   ",\"ok\":" + (c.ok ? "true" : "false") +
                   ",\"why\":" + json_str(c.why) +
                   ",\"grid_crc\":" + std::to_string(fp.grid_crc) +
                   ",\"untraced_wall_s\":" + json_num(untraced) +
                   ",\"traced_wall_s\":" + json_num(rep.traced_wall_s) +
                   ",\"accounted_s\":" + json_num(rep.accounted_s) +
                   ",\"spans_ok\":" + (rep.spans_ok ? "true" : "false") +
                   ",\"spans_why\":" + json_str(rep.spans_why) +
                   ",\"spans\":" + std::to_string(rep.spans) + ",\"metrics\":{";
      bool first = true;
      for (const auto& [k, v] : rep.metrics) {
        trace_json += (first ? "" : ",") + json_str(k) + ":" + json_num(v);
        first = false;
      }
      trace_json += ",\"core.trace_overhead_frac\":" +
                    json_num(rep.traced_wall_s / untraced - 1.0) + "}}";
      std::fprintf(stderr, "replay: untraced %.3f s, traced %.3f s, %s\n",
                   untraced, rep.traced_wall_s,
                   identical ? "byte-identical" : "DIFFERS");
    }

    std::string out = "{\"lanes\":" + std::to_string(o.lanes) +
                      ",\"steps\":" + std::to_string(o.steps) +
                      ",\"build\":" + build_json() +
                      ",\"peak_rss_mb\":" + json_num(rss_mb) +
                      ",\"setup_s\":[";
    for (std::size_t i = 0; i < setups.size(); ++i)
      out += (i ? "," : "") + json_num(setups[i]);
    out += "],\"setup_probe_s\":[";
    for (std::size_t i = 0; i < setup_probes.size(); ++i)
      out += (i ? "," : "") + json_num(setup_probes[i]);
    out += "],\"episodes\":[";
    for (std::size_t i = 0; i < episodes.size(); ++i)
      out += (i ? "," : "") + episode_json(episodes[i]);
    out += "]";
    if (!trace_json.empty()) out += ",\"trace\":" + trace_json;
    out += "}";
    std::printf("%s\n", out.c_str());
    return 0;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench_run: %s\n", ex.what());
    return 1;
  }
}
