// ckpt_faultinject: the checkpoint fault-injection sweep.
//
// Proves the crash-safety contract of checkpoint format v2 end to end: a
// small collapse simulation writes a rolling series of snapshots, then the
// harness damages copies of the checkpoint directory every way a dying
// machine can —
//
//   * truncation at *every* section boundary (header starts, payload starts,
//     payload ends, mid-trailer) of the newest snapshot,
//   * a single flipped byte at a spread of offsets across the newest file,
//   * a write abandoned mid-stream via the inject_crash_after_bytes hook
//     (leaving only a torn `.tmp`),
//
// and asserts that restore_latest_checkpoint always lands on the newest
// *intact* snapshot, never on damaged bytes, and throws (rather than
// fabricating state) when nothing intact remains.  Exit 0 on full pass;
// non-zero with a per-case summary otherwise.  Registered with ctest under
// the `io` and `sanitize` labels, so the sweep also runs under asan-ubsan.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/setup.hpp"
#include "core/simulation.hpp"
#include "io/checkpoint.hpp"
#include "io/checkpoint_writer.hpp"
#include "util/error.hpp"

using namespace enzo;
using mesh::Field;
using mesh::Grid;
namespace fs = std::filesystem;

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

core::SimulationConfig collapse_cfg() {
  core::SimulationConfig cfg;
  cfg.hierarchy.root_dims = {8, 8, 8};
  cfg.hierarchy.max_level = 1;
  cfg.refinement.overdensity_threshold = 3.0;
  return cfg;
}

void make_blob(core::Simulation& sim) {
  sim.initialize(core::ProblemSetup().fill([](core::Simulation& s) {
    Grid* g = s.hierarchy().grids(0)[0];
    for (Field f : g->field_list()) g->field(f).fill(0.0);
    const auto rho = g->field(Field::kDensity);
    for (int k = 0; k < 8; ++k)
      for (int j = 0; j < 8; ++j)
        for (int i = 0; i < 8; ++i) {
          const double x = (i + 0.5) / 8 - 0.5, y = (j + 0.5) / 8 - 0.5,
                       z = (k + 0.5) / 8 - 0.5;
          rho(g->sx(i), g->sy(j), g->sz(k)) =
              1.0 + 8.0 * std::exp(-(x * x + y * y + z * z) / 0.02);
        }
    g->field(Field::kInternalEnergy).fill(1.0);
    g->field(Field::kTotalEnergy).fill(1.0);
    mesh::Particle p;
    p.x = {ext::pos_t(0.51), ext::pos_t(0.49), ext::pos_t(0.5)};
    p.v = {0.1, -0.2, 0.05};
    p.mass = 0.01;
    p.id = 77;
    g->particles().push_back(p);
  }));
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is),
          std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

/// Copy the pristine checkpoint dir into a scratch dir for one damage case.
fs::path fresh_copy(const fs::path& pristine, const fs::path& scratch) {
  fs::remove_all(scratch);
  fs::copy(pristine, scratch);
  return scratch;
}

/// restore_latest into a fresh sim; returns the restored root-step count, or
/// -1 when no intact snapshot was found (enzo::Error).
long restore_step(const std::string& dir, int* skipped = nullptr) {
  core::Simulation sim(collapse_cfg());
  try {
    const io::RestoreResult res = io::restore_latest_checkpoint(sim, dir);
    if (skipped != nullptr) *skipped = res.skipped;
    return sim.root_steps_taken();
  } catch (const enzo::Error&) {
    return -1;
  }
}

}  // namespace

int main() {
  const fs::path base = fs::temp_directory_path() / "enzo_ckpt_fault";
  const fs::path pristine = base / "pristine";
  const fs::path scratch = base / "case";
  fs::remove_all(base);
  fs::create_directories(pristine);

  // ---- build the snapshot series: steps 1, 2, 3 -----------------------------
  core::Simulation sim(collapse_cfg());
  make_blob(sim);
  io::CheckpointWriter::Options wopts;
  wopts.dir = pristine.string();
  wopts.keep = 10;
  io::CheckpointWriter writer(wopts);
  for (int s = 0; s < 3; ++s) {
    sim.advance_root_step();
    writer.checkpoint(sim);
  }
  writer.wait();
  if (!writer.ok()) {
    std::fprintf(stderr, "snapshot series failed: %s\n",
                 writer.last_error().c_str());
    return 2;
  }
  const auto files = io::list_checkpoints(pristine.string());
  if (files.size() != 3) {
    std::fprintf(stderr, "expected 3 snapshots, found %zu\n", files.size());
    return 2;
  }
  const std::string newest_name = fs::path(files[2]).filename().string();
  const std::vector<std::uint8_t> newest = slurp(files[2]);

  std::printf("== baseline ==\n");
  check(restore_step(pristine.string()) == 3, "pristine dir restores step 3");

  // ---- truncation at every section boundary of the newest snapshot ----------
  // Boundaries from the framing walk: file start, header end (16), each
  // section's header start / payload start / payload end, and inside the
  // trailer (size-4).  Every cut must be detected and recovery must fall
  // back to the step-2 snapshot.
  const auto sections = io::describe_checkpoint(files[2]);
  std::vector<std::size_t> cuts = {0, 16, newest.size() - 4};
  for (const auto& s : sections) {
    cuts.push_back(s.header_offset);
    cuts.push_back(s.payload_offset);
    cuts.push_back(s.payload_offset + s.stored_size);
  }
  std::printf("== truncation sweep: %zu boundaries over %zu sections ==\n",
              cuts.size(), sections.size());
  for (std::size_t cut : cuts) {
    fresh_copy(pristine, scratch);
    fs::resize_file(scratch / newest_name, cut);
    int skipped = 0;
    const long step = restore_step(scratch.string(), &skipped);
    check(step == 2 && skipped == 1,
          "truncate newest at byte " + std::to_string(cut) +
              " -> restores step 2");
  }

  // ---- random byte flips across the newest snapshot -------------------------
  // Deterministic spread (LCG) of 64 offsets; every flip must be caught by a
  // section or file CRC, never silently restored.
  std::printf("== byte-flip sweep: 64 offsets ==\n");
  std::uint64_t lcg = 0x2001;
  for (int i = 0; i < 64; ++i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const std::size_t off = static_cast<std::size_t>(lcg % newest.size());
    const auto bit = static_cast<std::uint8_t>(1u << ((lcg >> 32) % 8));
    fresh_copy(pristine, scratch);
    std::vector<std::uint8_t> bad = newest;
    bad[off] ^= bit;
    spit((scratch / newest_name).string(), bad);
    int skipped = 0;
    const long step = restore_step(scratch.string(), &skipped);
    check(step == 2 && skipped == 1,
          "flip bit at byte " + std::to_string(off) + " -> restores step 2");
  }

  // ---- crash mid-write: torn .tmp must be ignored ---------------------------
  std::printf("== torn-write cases ==\n");
  {
    fresh_copy(pristine, scratch);
    sim.advance_root_step();  // step 4
    io::CheckpointWriteOptions opts;
    const std::size_t image_size = io::encode_checkpoint(sim, opts).size();
    for (const std::size_t frac : {std::size_t{0}, image_size / 2,
                                   image_size - 1}) {
      opts.inject_crash_after_bytes = frac;
      const std::string target =
          (scratch / io::checkpoint_file_name(sim.root_steps_taken()))
              .string();
      io::write_checkpoint(sim, target, opts);
      check(!fs::exists(target) && fs::exists(target + ".tmp"),
            "crash after " + std::to_string(frac) +
                " B leaves only a .tmp behind");
      fs::remove(target + ".tmp");
    }
    // A torn .tmp in the directory is invisible to recovery.
    opts.inject_crash_after_bytes = image_size / 2;
    io::write_checkpoint(
        sim, (scratch / io::checkpoint_file_name(4)).string(), opts);
    check(restore_step(scratch.string()) == 3,
          "torn .tmp ignored; newest intact snapshot (step 3) restored");
  }

  // ---- nothing intact -> recovery must throw, not fabricate -----------------
  std::printf("== all-corrupt case ==\n");
  {
    fresh_copy(pristine, scratch);
    for (const auto& f : io::list_checkpoints(scratch.string()))
      fs::resize_file(f, 10);
    check(restore_step(scratch.string()) == -1,
          "all snapshots corrupt -> restore throws");
  }

  fs::remove_all(base);
  if (g_failures > 0) {
    std::printf("FAILED: %d fault case(s)\n", g_failures);
    return 1;
  }
  std::printf("all fault cases passed\n");
  return 0;
}
