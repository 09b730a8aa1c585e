// End-to-end determinism of the parallel level-execution engine: the
// cosmology_box deck run on the serial backend and on an 8-lane thread pool
// must produce byte-identical per-step diagnostics and identical audit
// conservation sums.  This is the contract the executor's ordered phases
// and reduce_ordered combining exist to keep.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/auditor.hpp"
#include "core/parameter_file.hpp"
#include "core/simulation.hpp"
#include "exec/exec_config.hpp"
#include "perf/diagnostics.hpp"

using namespace enzo;

namespace {

constexpr int kSteps = 2;

struct RunResult {
  std::vector<std::string> records;  // normalized JSONL lines
  double audit_mass = 0.0;
  double audit_energy = 0.0;
  std::size_t audit_violations = 0;
};

// Re-serialize each record with the machine/process-dependent fields zeroed:
// wall_seconds is timing, peak_bytes and flops read process-global counters
// that accumulate across the two runs sharing this test binary.  Everything
// physical (t, dt + limiter, z, level populations, conservation sums and
// residuals) must match to the last bit.
std::vector<std::string> normalized_records(const std::string& path) {
  std::vector<std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    perf::StepRecord rec;
    EXPECT_TRUE(perf::parse_step_record(line, &rec)) << "bad record: " << line;
    rec.wall_seconds = 0.0;
    rec.peak_bytes = 0;
    rec.flops = 0;
    out.push_back(perf::step_record_json(rec));
  }
  return out;
}

using DeckHook = std::function<void(core::ParameterDeck&)>;

RunResult run_cosmology_box(exec::Backend backend, int threads,
                            const std::string& diag_path,
                            const DeckHook& tweak = {}) {
  const std::string deck_path =
      std::string(ENZO_SOURCE_DIR) + "/decks/cosmology_box.enzo";
  core::ParameterDeck deck = core::parse_parameter_file(deck_path);
  deck.config.exec.backend = backend;
  deck.config.exec.threads = threads;
  if (tweak) tweak(deck);
  core::Simulation sim(deck.config);
  core::setup_from_deck(sim, deck);
  {
    perf::DiagnosticsSink sink(diag_path);
    EXPECT_TRUE(sink.ok()) << "cannot open " << diag_path;
    sim.set_diagnostics_sink(&sink);
    for (int s = 0; s < kSteps; ++s) sim.advance_root_step();
    sim.set_diagnostics_sink(nullptr);
  }
  const analysis::AuditReport& rep = sim.run_audit();
  RunResult r;
  r.records = normalized_records(diag_path);
  r.audit_mass = rep.mass_total;
  r.audit_energy = rep.energy_total;
  r.audit_violations = rep.total_violations;
  std::remove(diag_path.c_str());
  return r;
}

}  // namespace

TEST(ExecDeterminismTest, SerialAndThreadPool8AreByteIdentical) {
  const std::string dir = ::testing::TempDir();
  const RunResult serial = run_cosmology_box(exec::Backend::kSerial, 1,
                                             dir + "exec_det_serial.jsonl");
  const RunResult pool = run_cosmology_box(exec::Backend::kThreadPool, 8,
                                           dir + "exec_det_pool.jsonl");

  ASSERT_EQ(serial.records.size(), static_cast<std::size_t>(kSteps));
  ASSERT_EQ(pool.records.size(), serial.records.size());
  for (std::size_t i = 0; i < serial.records.size(); ++i)
    EXPECT_EQ(serial.records[i], pool.records[i]) << "step " << i;

  // Audit conservation sums are serial root-level reductions in both runs;
  // they must agree bitwise, and neither run may violate an AMR invariant.
  EXPECT_EQ(serial.audit_mass, pool.audit_mass);
  EXPECT_EQ(serial.audit_energy, pool.audit_energy);
  EXPECT_EQ(serial.audit_violations, 0u);
  EXPECT_EQ(pool.audit_violations, 0u);
}

TEST(ExecDeterminismTest, ThreadPoolIsRepeatable) {
  const std::string dir = ::testing::TempDir();
  const RunResult a = run_cosmology_box(exec::Backend::kThreadPool, 8,
                                        dir + "exec_det_rep_a.jsonl");
  const RunResult b = run_cosmology_box(exec::Backend::kThreadPool, 8,
                                        dir + "exec_det_rep_b.jsonl");
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i)
    EXPECT_EQ(a.records[i], b.records[i]) << "step " << i;
  EXPECT_EQ(a.audit_mass, b.audit_mass);
  EXPECT_EQ(a.audit_energy, b.audit_energy);
}

// The storage arena and the incremental regrid must be invisible to the
// physics: pooled blocks, recycled particle vectors and kept-alive subtrees
// have to reproduce the arena-off full-rebuild run byte for byte.
// (Grid ids may differ — kept grids keep theirs — but ids are not part of
// any diagnostic record or audit sum.)
TEST(ExecDeterminismTest, ArenaAndIncrementalRegridAreByteIdentical) {
  const std::string dir = ::testing::TempDir();
  struct Config {
    bool pool;
    bool incremental;
    const char* tag;
  };
  const Config configs[] = {
      {false, false, "heap_full"},    // reference: plain heap, full rebuild
      {true, false, "arena_full"},    // pooled storage, full rebuild
      {false, true, "heap_incr"},     // heap storage, incremental diff
      {true, true, "arena_incr"},     // production configuration
  };
  std::vector<RunResult> results;
  for (const Config& c : configs) {
    results.push_back(run_cosmology_box(
        exec::Backend::kThreadPool, 8, dir + "exec_det_" + c.tag + ".jsonl",
        [&](core::ParameterDeck& deck) {
          deck.config.hierarchy.arena.pool = c.pool;
          deck.config.hierarchy.arena.incremental = c.incremental;
        }));
  }
  const RunResult& ref = results[0];
  ASSERT_EQ(ref.records.size(), static_cast<std::size_t>(kSteps));
  for (std::size_t r = 1; r < results.size(); ++r) {
    ASSERT_EQ(results[r].records.size(), ref.records.size())
        << configs[r].tag;
    for (std::size_t i = 0; i < ref.records.size(); ++i)
      EXPECT_EQ(results[r].records[i], ref.records[i])
          << configs[r].tag << " step " << i;
    EXPECT_EQ(results[r].audit_mass, ref.audit_mass) << configs[r].tag;
    EXPECT_EQ(results[r].audit_energy, ref.audit_energy) << configs[r].tag;
    EXPECT_EQ(results[r].audit_violations, 0u) << configs[r].tag;
  }
  EXPECT_EQ(ref.audit_violations, 0u);
}
