// End-to-end determinism of the parallel level-execution engine: a deck run
// on the serial backend and on an 8-lane thread pool must produce
// byte-identical per-step diagnostics and identical audit conservation
// sums.  This is the contract the executor's ordered phases and
// reduce_ordered combining exist to keep.  cosmology_box covers particles,
// the root FFT and comoving expansion; sedov covers many small grids,
// regridded every step, whose ragged hydro batches the pool splits across
// lanes.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
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

RunResult run_deck(const char* deck_name, int steps, exec::Backend backend,
                   int threads, const std::string& diag_path) {
  const std::string deck_path =
      std::string(ENZO_SOURCE_DIR) + "/decks/" + deck_name;
  core::ParameterDeck deck = core::parse_parameter_file(deck_path);
  deck.config.exec.backend = backend;
  deck.config.exec.threads = threads;
  core::Simulation sim(deck.config);
  core::setup_from_deck(sim, deck);
  {
    perf::DiagnosticsSink sink(diag_path);
    EXPECT_TRUE(sink.ok()) << "cannot open " << diag_path;
    sim.set_diagnostics_sink(&sink);
    for (int s = 0; s < steps; ++s) sim.advance_root_step();
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

void expect_serial_equals_pool8(const char* deck_name, int steps) {
  const std::string dir = ::testing::TempDir();
  const RunResult serial = run_deck(deck_name, steps, exec::Backend::kSerial,
                                    1, dir + "exec_det_serial.jsonl");
  const RunResult pool = run_deck(deck_name, steps, exec::Backend::kThreadPool,
                                  8, dir + "exec_det_pool.jsonl");

  ASSERT_EQ(serial.records.size(), static_cast<std::size_t>(steps));
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

}  // namespace

TEST(ExecDeterminismTest, SerialAndThreadPool8AreByteIdentical) {
  expect_serial_equals_pool8("cosmology_box.enzo", 2);
}

TEST(ExecDeterminismTest, SedovSerialAndThreadPool8AreByteIdentical) {
  // The blast first refines at root step 14; by step 18 level 1 holds ~47
  // grids, rebuilt every step.
  expect_serial_equals_pool8("sedov.enzo", 18);
}

TEST(ExecDeterminismTest, ThreadPoolIsRepeatable) {
  const std::string dir = ::testing::TempDir();
  const RunResult a = run_deck("cosmology_box.enzo", 2,
                               exec::Backend::kThreadPool, 8,
                               dir + "exec_det_rep_a.jsonl");
  const RunResult b = run_deck("cosmology_box.enzo", 2,
                               exec::Backend::kThreadPool, 8,
                               dir + "exec_det_rep_b.jsonl");
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i)
    EXPECT_EQ(a.records[i], b.records[i]) << "step " << i;
  EXPECT_EQ(a.audit_mass, b.audit_mass);
  EXPECT_EQ(a.audit_energy, b.audit_energy);
}
