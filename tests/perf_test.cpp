// Telemetry subsystem tests: hierarchical trace accounting, metrics
// registry instruments, JSONL diagnostics schema round-trip, Chrome trace
// export validity, structured logging, and the thread-safety guarantees the
// instrumentation layer makes (allocation peak and balance, flop sums).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/setup.hpp"
#include "core/simulation.hpp"
#include "exec/executor.hpp"
#include "perf/diagnostics.hpp"
#include "perf/json.hpp"
#include "perf/log.hpp"
#include "perf/metrics.hpp"
#include "perf/trace.hpp"
#include "util/arena.hpp"
#include "util/flops.hpp"

using namespace enzo;

namespace {

void burn(double seconds) {
  const auto t0 = std::chrono::steady_clock::now();
  volatile double x = 1.0;
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
             .count() < seconds)
    x = x * 1.0000001;
  (void)x;
}

}  // namespace

// ---- trace recorder --------------------------------------------------------

TEST(Trace, NestedScopeAccounting) {
  perf::TraceRecorder rec;
  {
    perf::TraceScope outer("outer", perf::component::kHydro, 1, &rec);
    burn(0.005);
    {
      perf::TraceScope inner("inner", perf::component::kGravity, 2, &rec);
      burn(0.005);
    }
    {
      perf::TraceScope inner("inner", perf::component::kGravity, 2, &rec);
      burn(0.002);
    }
  }
  EXPECT_EQ(rec.path_calls("outer"), 1u);
  EXPECT_EQ(rec.path_calls("outer/inner"), 2u);
  const double parent = rec.path_seconds("outer");
  const double child = rec.path_seconds("outer/inner");
  EXPECT_GT(child, 0.0);
  EXPECT_LE(child, parent);  // child inclusive time nests inside the parent

  // Self time partitions: parent self + child self == parent inclusive.
  double outer_self = 0.0, inner_self = 0.0;
  for (const auto& n : rec.nodes()) {
    if (n.path == "outer") {
      outer_self = n.self_seconds;
      EXPECT_EQ(n.component, perf::component::kHydro);
      EXPECT_EQ(n.level, 1);
    }
    if (n.path == "outer/inner") {
      inner_self = n.self_seconds;
      EXPECT_EQ(n.component, perf::component::kGravity);
      EXPECT_EQ(n.level, 2);
    }
  }
  EXPECT_NEAR(outer_self + inner_self, parent, 1e-9);
  EXPECT_NEAR(rec.component_seconds(perf::component::kHydro), outer_self,
              1e-12);
  EXPECT_NEAR(rec.component_seconds(perf::component::kGravity), inner_self,
              1e-12);
}

TEST(Trace, ComponentFractionsSumToOne) {
  perf::TraceRecorder rec;
  {
    perf::TraceScope a("hydro", perf::component::kHydro, 0, &rec);
    burn(0.004);
    perf::TraceScope b("chem", perf::component::kChemistry, 1, &rec);
    burn(0.003);
  }
  {
    perf::TraceScope c("rebuild", perf::component::kRebuild, 0, &rec);
    burn(0.002);
  }
  const auto table = rec.component_table();
  ASSERT_GE(table.size(), 3u);
  double sum = 0.0;
  for (const auto& row : table) sum += row.fraction;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Rows are sorted descending by time.
  for (std::size_t i = 1; i < table.size(); ++i)
    EXPECT_GE(table[i - 1].seconds, table[i].seconds);
  // The rendered report names every row.
  const std::string report = rec.component_report();
  for (const auto& row : table)
    EXPECT_NE(report.find(row.name), std::string::npos) << row.name;
}

TEST(Trace, ComponentAndLevelInheritance) {
  perf::TraceRecorder rec;
  {
    perf::TraceScope outer("solver", perf::component::kChemistry, 3, &rec);
    perf::TraceScope inner("inner_stage", nullptr, -1, &rec);
    burn(0.001);
  }
  for (const auto& n : rec.nodes())
    if (n.path == "solver/inner_stage") {
      EXPECT_EQ(n.component, perf::component::kChemistry);
      EXPECT_EQ(n.level, 3);
    }
}

TEST(Trace, ChromeTraceJsonIsValidAndMonotonic) {
  perf::TraceRecorder rec;
  rec.enable_events(true);
  for (int i = 0; i < 3; ++i) {
    perf::TraceScope outer("step", perf::component::kHydro, 0, &rec);
    perf::TraceScope inner("sweep", perf::component::kHydro, 1, &rec);
    burn(0.0005);
  }
  EXPECT_EQ(rec.events_recorded(), 6u);
  EXPECT_EQ(rec.events_dropped(), 0u);

  perf::JsonValue doc;
  std::string err;
  ASSERT_TRUE(perf::json_parse(rec.chrome_trace_json(), &doc, &err)) << err;
  const perf::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array().size(), 6u);
  double last_ts = -std::numeric_limits<double>::infinity();
  for (const auto& ev : events->array()) {
    ASSERT_TRUE(ev.is_object());
    const perf::JsonValue* ph = ev.find("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(ph->str(), "X");
    for (const char* key : {"name", "cat", "ts", "dur", "pid", "tid"})
      EXPECT_NE(ev.find(key), nullptr) << "missing key " << key;
    const double ts = ev.find("ts")->number();
    EXPECT_GE(ts, last_ts);  // sorted → monotonic timestamps
    last_ts = ts;
    EXPECT_GE(ev.find("dur")->number(), 0.0);
  }
}

TEST(Trace, EventCapDropsInsteadOfGrowing) {
  perf::TraceRecorder rec;
  rec.enable_events(true);
  // The cap is 2^20; push a modest number and verify accounting stays exact.
  for (int i = 0; i < 100; ++i)
    rec.record_event("e", "e", perf::component::kOther, -1, i * 1.0, 0.5);
  EXPECT_EQ(rec.events_recorded() + rec.events_dropped(), 100u);
}

TEST(Trace, ThreadedScopesAggregateAllCalls) {
  perf::TraceRecorder rec;
  constexpr int kThreads = 8, kIters = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&rec] {
      for (int i = 0; i < kIters; ++i) {
        perf::TraceScope s("worker", perf::component::kNbody, 1, &rec);
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(rec.path_calls("worker"),
            static_cast<std::uint64_t>(kThreads) * kIters);
}

// ---- metrics registry ------------------------------------------------------

TEST(Metrics, CounterGaugeBasics) {
  perf::Registry reg;
  perf::Counter& c = reg.counter("c");
  c.add(3);
  c.add();
  EXPECT_EQ(c.value(), 4u);
  EXPECT_EQ(&reg.counter("c"), &c);  // find-or-create is stable
  perf::Gauge& g = reg.gauge("g");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Metrics, HistogramBucketEdges) {
  using H = perf::Histogram;
  // Zeros get their own bucket; powers of two open new buckets.
  EXPECT_EQ(H::bucket_of(0), 0);
  EXPECT_EQ(H::bucket_of(1), 1);
  EXPECT_EQ(H::bucket_of(2), 2);
  EXPECT_EQ(H::bucket_of(3), 2);
  EXPECT_EQ(H::bucket_of(4), 3);
  EXPECT_EQ(H::bucket_of((1ull << 38) - 1), H::kBuckets - 2);
  // Everything at/beyond 2^(kBuckets-2) lands in the overflow bucket.
  EXPECT_EQ(H::bucket_of(1ull << (H::kBuckets - 2)), H::kBuckets - 1);
  EXPECT_EQ(H::bucket_of(std::numeric_limits<std::uint64_t>::max()),
            H::kBuckets - 1);
  // Lower bounds are consistent with bucket_of.
  EXPECT_EQ(H::bucket_lo(0), 0u);
  EXPECT_EQ(H::bucket_lo(1), 1u);
  EXPECT_EQ(H::bucket_lo(2), 2u);
  for (int i = 1; i < H::kBuckets - 1; ++i) {
    EXPECT_EQ(H::bucket_of(H::bucket_lo(i)), i);
    if (H::bucket_lo(i) > 1) {
      EXPECT_EQ(H::bucket_of(H::bucket_lo(i) - 1), i - 1);
    }
  }

  perf::Histogram h;
  h.observe(0);
  h.observe(1);
  h.observe(5);
  h.observe(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.bucket(H::kBuckets - 1), 1u);
}

TEST(Metrics, CountersAppearInSnapshotAndJson) {
  perf::Registry reg;
  reg.counter("hits").add(7);
  bool saw_counter = false;
  for (const auto& s : reg.snapshot()) {
    if (s.name == "hits") {
      saw_counter = true;
      EXPECT_EQ(s.kind, "counter");
      EXPECT_DOUBLE_EQ(s.value, 7.0);
    }
  }
  EXPECT_TRUE(saw_counter);

  perf::JsonValue doc;
  ASSERT_TRUE(perf::json_parse(reg.json(), &doc));
  ASSERT_TRUE(doc.is_object());
  ASSERT_NE(doc.find("hits"), nullptr);
  EXPECT_DOUBLE_EQ(doc.find("hits")->number(), 7.0);
}

TEST(Metrics, FlopAndAllocRowsAreInstruments) {
  // One flop post and one heap block put the flops.* and alloc.* rows in
  // the global snapshot, as counters and gauges.
  util::ComponentFlops flops("test_component");
  flops.add(123);
  util::ArenaBlock b = util::Arena::heap_acquire(16);
  util::Arena::heap_release(std::move(b));
  const std::map<std::string, std::string> want = {
      {"flops.test_component", "counter"}, {"flops.total", "counter"},
      {"alloc.allocations", "counter"},    {"alloc.frees", "counter"},
      {"alloc.total_bytes", "counter"},    {"alloc.live_bytes", "gauge"},
      {"alloc.peak_bytes", "gauge"}};
  std::map<std::string, std::string> got;
  for (const auto& s : perf::Registry::global().snapshot()) {
    if (!want.count(s.name)) continue;
    got[s.name] = s.kind;
    if (s.name == "flops.test_component") {
      EXPECT_DOUBLE_EQ(s.value, 123.0);
    } else if (s.name == "flops.total" || s.name == "alloc.total_bytes") {
      EXPECT_GE(s.value, 123.0) << s.name;
    }
  }
  EXPECT_EQ(got, want);
}

// ---- JSON parser/writer ----------------------------------------------------

TEST(Json, NumberFormattingRoundTrips) {
  for (double v : {0.0, 1.0, -1.5, 3.141592653589793, 1e-30, 1e300, 12345.0}) {
    perf::JsonValue doc;
    ASSERT_TRUE(perf::json_parse(perf::json_number(v), &doc));
    EXPECT_DOUBLE_EQ(doc.number(), v);
  }
}

TEST(Json, EscapeAndParseStrings) {
  const std::string nasty = "a\"b\\c\n\t\x01";
  perf::JsonValue doc;
  ASSERT_TRUE(perf::json_parse("\"" + perf::json_escape(nasty) + "\"", &doc));
  EXPECT_EQ(doc.str(), nasty);
}

TEST(Json, RejectsMalformedInput) {
  perf::JsonValue doc;
  EXPECT_FALSE(perf::json_parse("{\"a\":}", &doc));
  EXPECT_FALSE(perf::json_parse("[1,2", &doc));
  EXPECT_FALSE(perf::json_parse("{} trailing", &doc));
  EXPECT_FALSE(perf::json_parse("", &doc));
}

// ---- diagnostics sink ------------------------------------------------------

TEST(Diagnostics, StepRecordRoundTrip) {
  perf::StepRecord rec;
  rec.step = 12;
  rec.t = 0.75;
  rec.dt = 1.25e-3;
  rec.dt_limiter = "cfl";
  rec.a = 0.05;
  rec.z = 19.0;
  rec.levels = {{0, 8, 4096}, {1, 3, 1536}, {2, 1, 512}};
  rec.mass_total = 1.0;
  rec.mass_residual = -3.5e-14;
  rec.energy_total = 2.25;
  rec.energy_residual = 1e-12;
  rec.peak_bytes = 123456789;
  rec.flops = 987654321;
  rec.wall_seconds = 0.125;

  const std::string line = perf::step_record_json(rec);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // single line
  perf::StepRecord back;
  ASSERT_TRUE(perf::parse_step_record(line, &back));
  EXPECT_EQ(back.step, rec.step);
  EXPECT_DOUBLE_EQ(back.t, rec.t);
  EXPECT_DOUBLE_EQ(back.dt, rec.dt);
  EXPECT_EQ(back.dt_limiter, rec.dt_limiter);
  EXPECT_DOUBLE_EQ(back.a, rec.a);
  EXPECT_DOUBLE_EQ(back.z, rec.z);
  ASSERT_EQ(back.levels.size(), 3u);
  EXPECT_EQ(back.levels[1].level, 1);
  EXPECT_EQ(back.levels[1].grids, 3u);
  EXPECT_EQ(back.levels[1].cells, 1536u);
  EXPECT_DOUBLE_EQ(back.mass_residual, rec.mass_residual);
  EXPECT_DOUBLE_EQ(back.energy_residual, rec.energy_residual);
  EXPECT_EQ(back.peak_bytes, rec.peak_bytes);
  EXPECT_EQ(back.flops, rec.flops);
  EXPECT_DOUBLE_EQ(back.wall_seconds, rec.wall_seconds);

  EXPECT_FALSE(perf::parse_step_record("{\"step\":1}", &back));
  EXPECT_FALSE(perf::parse_step_record("not json", &back));
}

TEST(Diagnostics, SimulationEmitsOneRecordPerRootStep) {
  core::SimulationConfig cfg;
  cfg.hierarchy.root_dims = {16, 16, 16};
  cfg.hierarchy.max_level = 2;
  cfg.hierarchy.fields = mesh::chemistry_field_list();
  cfg.refinement.baryon_mass_threshold = 4.0 / (16.0 * 16 * 16);
  cfg.enable_chemistry = false;
  core::Simulation sim(cfg);
  core::CollapseSetupOptions opt;
  opt.chemistry = false;
  opt.overdensity = 20.0;
  opt.mean_density_cgs = 1e-19;
  opt.box_proper_cm = 4.0 * 3.0857e18;
  opt.cloud_radius = 0.25;
  opt.temperature = 100.0;
  sim.initialize(core::collapse_cloud_setup(opt));

  const std::string path = "perf_test_diag.jsonl";
  std::remove(path.c_str());
  {
    perf::DiagnosticsSink sink(path);
    ASSERT_TRUE(sink.ok());
    sim.set_diagnostics_sink(&sink);
    for (int s = 0; s < 3; ++s) sim.advance_root_step();
    sim.set_diagnostics_sink(nullptr);
    EXPECT_EQ(sink.records_written(), 3);
  }
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[1 << 16];
  int lines = 0;
  std::int64_t last_step = 0;
  while (std::fgets(buf, sizeof buf, f)) {
    perf::StepRecord rec;
    ASSERT_TRUE(perf::parse_step_record(buf, &rec)) << buf;
    ++lines;
    EXPECT_EQ(rec.step, last_step + 1);
    last_step = rec.step;
    ASSERT_FALSE(rec.levels.empty());
    EXPECT_EQ(rec.levels[0].grids, 1u);
    EXPECT_EQ(rec.levels[0].cells, 16u * 16u * 16u);
    EXPECT_FALSE(rec.dt_limiter.empty());
    EXPECT_NE(rec.dt_limiter, "none");
    EXPECT_GT(rec.dt, 0.0);
    EXPECT_GT(rec.mass_total, 0.0);
    // Root-view conservation: exact up to the interpolation applied when the
    // rebuild creates fresh subgrids (a few ppm on this problem).
    EXPECT_LT(std::abs(rec.mass_residual), 1e-4);
    EXPECT_GT(rec.wall_seconds, 0.0);
  }
  std::fclose(f);
  EXPECT_EQ(lines, 3);
  std::remove(path.c_str());
}

TEST(Diagnostics, DtLimiterNames) {
  EXPECT_STREQ(hydro::dt_limiter_name(hydro::DtLimiter::kCfl), "cfl");
  EXPECT_STREQ(hydro::dt_limiter_name(hydro::DtLimiter::kExpansion),
               "expansion");
  EXPECT_STREQ(hydro::dt_limiter_name(hydro::DtLimiter::kStopTime),
               "stop_time");
}

TEST(Diagnostics, EvolveUntilReportsStopTimeLimiter) {
  core::SimulationConfig cfg;
  cfg.hierarchy.root_dims = {8, 8, 8};
  cfg.hierarchy.max_level = 0;
  core::Simulation sim(cfg);
  sim.initialize(core::uniform_setup(1.0, 1.0));
  const double dt0 = sim.advance_root_step();
  // Stop inside the next step: the clamp must be attributed to stop_time.
  sim.evolve_until(sim.time_d() + 0.25 * dt0, 1);
  EXPECT_EQ(sim.root_dt_limiter(), hydro::DtLimiter::kStopTime);
}

// ---- structured log --------------------------------------------------------

TEST(Log, LevelFiltering) {
  perf::StructuredLog log;
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  log.set_stream(tmp);
  log.set_min_level(perf::LogLevel::kWarn);
  EXPECT_FALSE(log.enabled(perf::LogLevel::kDebug));
  EXPECT_TRUE(log.enabled(perf::LogLevel::kError));
  log.logf(perf::LogLevel::kInfo, "comp", "dropped %d", 1);
  log.logf(perf::LogLevel::kWarn, "comp", "kept %d", 2);
  log.log(perf::LogLevel::kError, "comp", "kept too");
  std::fflush(tmp);
  std::rewind(tmp);
  std::string contents;
  char buf[256];
  while (std::fgets(buf, sizeof buf, tmp)) contents += buf;
  std::fclose(tmp);
  EXPECT_EQ(contents.find("dropped"), std::string::npos);
  EXPECT_NE(contents.find("[warn] comp: kept 2"), std::string::npos);
  EXPECT_NE(contents.find("[error] comp: kept too"), std::string::npos);
}

TEST(Log, LevelNamesParse) {
  EXPECT_EQ(perf::log_level_from("debug"), perf::LogLevel::kDebug);
  EXPECT_EQ(perf::log_level_from("off"), perf::LogLevel::kOff);
  EXPECT_EQ(perf::log_level_from("bogus"), perf::LogLevel::kInfo);
  EXPECT_STREQ(perf::log_level_name(perf::LogLevel::kWarn), "warn");
}

// ---- thread-safety ---------------------------------------------------------

TEST(PerfThreading, AllocStatsPeakNeverBelowConcurrentLive) {
  // The alloc.* accounting util::Arena does per heap block, on a local
  // registry: the peak is raised to the live value each add returns.
  perf::Registry reg;
  perf::Counter& allocations = reg.counter("alloc.allocations");
  perf::Counter& frees = reg.counter("alloc.frees");
  perf::Gauge& live = reg.gauge("alloc.live_bytes");
  perf::Gauge& peak = reg.gauge("alloc.peak_bytes");
  constexpr int kThreads = 8, kIters = 2000;
  constexpr double kBytes = 1024;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        allocations.add(1);
        peak.raise_to(live.add(kBytes));
        frees.add(1);
        live.add(-kBytes);
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(allocations.value(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(allocations.value(), frees.value());
  EXPECT_EQ(live.value(), 0.0);
  // The peak must cover at least one allocation and never exceed the
  // worst-case all-threads-live total.
  EXPECT_GE(peak.value(), kBytes);
  EXPECT_LE(peak.value(), kThreads * kBytes);
}

TEST(PerfThreading, FlopPostsFromPoolLanesSumExactly) {
  perf::Registry reg;
  util::ComponentFlops hydro("hydro", reg), fft("fft", reg);
  exec::ThreadPoolExecutor ex(4);
  constexpr std::size_t kTasks = 256;
  ex.for_each({"flops", nullptr, 0}, kTasks, [&](std::size_t i) {
    for (int rep = 0; rep < 100; ++rep) {
      hydro.add(i + 1);
      fft.add(2 * i + 1);
    }
  });
  // Σ(i+1) = n(n+1)/2 and Σ(2i+1) = n², each posted 100 times.
  const std::uint64_t want_hydro = 100 * kTasks * (kTasks + 1) / 2;
  const std::uint64_t want_fft = 100 * kTasks * kTasks;
  EXPECT_EQ(reg.counter("flops.hydro").value(), want_hydro);
  EXPECT_EQ(reg.counter("flops.fft").value(), want_fft);
  EXPECT_EQ(reg.counter("flops.total").value(), want_hydro + want_fft);
}

TEST(PerfThreading, RebuildCycleBalancesAllocations) {
  // Satellite check: after a hierarchy build + rebuild cycle is torn down,
  // every tracked grid-field byte has a matching free.  (Counts are
  // asymmetric by design: lazy old-field/flux/gravity allocations report
  // individually while the grid destructor frees once, so the balanced
  // invariant is bytes, with count balance covered by the pure-stats
  // stress test above.)
  const auto run_cycle = [] {
    core::SimulationConfig cfg;
    cfg.hierarchy.root_dims = {16, 16, 16};
    cfg.hierarchy.max_level = 2;
    cfg.refinement.overdensity_threshold = 1.5;
    core::Simulation sim(cfg);
    // Perturb so the rebuild cascade flags (and later unflags) cells.
    sim.initialize(core::uniform_setup(1.0, 1.0).fill([](core::Simulation& s) {
      for (mesh::Grid* g : s.hierarchy().grids(0)) {
        const auto rho = g->field(mesh::Field::kDensity);
        rho(g->sx(8), g->sy(8), g->sz(8)) = 4.0;
      }
    }));
    EXPECT_GE(sim.hierarchy().deepest_level(), 1);
    for (int s = 0; s < 2; ++s) sim.advance_root_step();
  };
  // Warm-up cycle: kernel scratch (the SoA pencil workspace, ZEUS viscous
  // pressures) lives in process-persistent thread_local blocks drawn from
  // util::Arena::scratch(), so its first touch allocates bytes that by
  // design outlive any one simulation.  The balanced invariant is the
  // steady state: from the second cycle on, teardown returns every byte.
  run_cycle();
  perf::Registry& reg = perf::Registry::global();
  const perf::Gauge& live = reg.gauge("alloc.live_bytes");
  const perf::Counter& allocations = reg.counter("alloc.allocations");
  const double live0 = live.value();
  const std::uint64_t alloc0 = allocations.value();
  run_cycle();
  EXPECT_GT(allocations.value(), alloc0);  // the cycle did churn memory
  EXPECT_EQ(live.value(), live0);          // and every byte came back
}
