// Checkpoint/restart tests: bit-for-bit round trips of hierarchy structure,
// fields (including extended-precision times and old-state copies),
// particles, and continued evolution equivalence — the §4 restart workflow.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>

#include "analysis/analysis.hpp"
#include "core/setup.hpp"
#include "io/checkpoint.hpp"
#include "io/checkpoint_writer.hpp"
#include "io/codec.hpp"
#include "util/constants.hpp"

using namespace enzo;
using mesh::Field;
using mesh::Grid;

namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
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

}  // namespace

TEST(Checkpoint, RoundTripPreservesEverything) {
  const std::string path = temp_path("enzo_ckpt_roundtrip.bin");
  core::Simulation a(collapse_cfg());
  make_blob(a);
  a.advance_root_step();
  a.advance_root_step();
  io::write_checkpoint(a, path);

  core::Simulation b(collapse_cfg());
  io::read_checkpoint(b, path);

  // Structure.
  EXPECT_EQ(b.hierarchy().deepest_level(), a.hierarchy().deepest_level());
  EXPECT_EQ(b.hierarchy().total_grids(), a.hierarchy().total_grids());
  EXPECT_TRUE(b.time() == a.time());  // dd-exact
  EXPECT_DOUBLE_EQ(b.scale_factor(), a.scale_factor());

  // Field data, level by level, grid by grid.
  for (int l = 0; l <= a.hierarchy().deepest_level(); ++l) {
    const auto ga = a.hierarchy().grids(l);
    const auto gb = b.hierarchy().grids(l);
    ASSERT_EQ(ga.size(), gb.size());
    for (std::size_t n = 0; n < ga.size(); ++n) {
      EXPECT_EQ(ga[n]->box(), gb[n]->box());
      EXPECT_TRUE(ga[n]->time() == gb[n]->time());
      for (Field f : ga[n]->field_list()) {
        const auto& fa = ga[n]->field(f);
        const auto& fb = gb[n]->field(f);
        for (std::size_t c = 0; c < fa.size(); ++c)
          ASSERT_EQ(fa.data()[c], fb.data()[c]) << field_name(f);
      }
      ASSERT_EQ(ga[n]->particles().size(), gb[n]->particles().size());
      for (std::size_t pi = 0; pi < ga[n]->particles().size(); ++pi) {
        const auto& pa = ga[n]->particles()[pi];
        const auto& pb = gb[n]->particles()[pi];
        for (int d = 0; d < 3; ++d) {
          EXPECT_TRUE(pa.x[d] == pb.x[d]);
          EXPECT_EQ(pa.v[d], pb.v[d]);
        }
        EXPECT_EQ(pa.id, pb.id);
      }
    }
  }
  std::filesystem::remove(path);
}

TEST(Checkpoint, RepeatedWritesAreByteIdentical) {
  // Serialization must be a pure function of simulation state: no iteration
  // order from unordered containers, timestamps, or pointer values may leak
  // into the bytes (the enzo-lint determinism contract).  Encode the same
  // state twice and after a read round-trip; all three must match exactly.
  core::Simulation a(collapse_cfg());
  make_blob(a);
  a.advance_root_step();
  a.advance_root_step();

  const std::vector<std::uint8_t> enc1 = io::encode_checkpoint(a);
  const std::vector<std::uint8_t> enc2 = io::encode_checkpoint(a);
  ASSERT_EQ(enc1.size(), enc2.size());
  EXPECT_EQ(enc1, enc2);

  const std::string path = temp_path("ck_byteident.enzo");
  io::write_checkpoint(a, path);
  core::Simulation b(collapse_cfg());
  io::read_checkpoint(b, path);
  const std::vector<std::uint8_t> enc3 = io::encode_checkpoint(b);
  EXPECT_EQ(enc1, enc3);
  std::remove(path.c_str());
}

TEST(Checkpoint, RestartContinuesIdentically) {
  const std::string path = temp_path("enzo_ckpt_continue.bin");
  // Reference: run 4 steps straight through.
  core::Simulation ref(collapse_cfg());
  make_blob(ref);
  for (int s = 0; s < 4; ++s) ref.advance_root_step();

  // Checkpointed: 2 steps, save, load, 2 more.
  core::Simulation first(collapse_cfg());
  make_blob(first);
  first.advance_root_step();
  first.advance_root_step();
  io::write_checkpoint(first, path);
  core::Simulation second(collapse_cfg());
  io::read_checkpoint(second, path);
  second.advance_root_step();
  second.advance_root_step();

  EXPECT_TRUE(ref.time() == second.time());
  Grid* gr = ref.hierarchy().grids(0)[0];
  Grid* gs = second.hierarchy().grids(0)[0];
  for (int k = 0; k < 8; ++k)
    for (int j = 0; j < 8; ++j)
      for (int i = 0; i < 8; ++i)
        ASSERT_DOUBLE_EQ(
            gr->field(Field::kDensity)(gr->sx(i), gr->sy(j), gr->sz(k)),
            gs->field(Field::kDensity)(gs->sx(i), gs->sy(j), gs->sz(k)));
  std::filesystem::remove(path);
}

TEST(Checkpoint, RejectsMismatchedConfig) {
  const std::string path = temp_path("enzo_ckpt_mismatch.bin");
  core::Simulation a(collapse_cfg());
  make_blob(a);
  io::write_checkpoint(a, path);

  auto bad = collapse_cfg();
  bad.hierarchy.root_dims = {16, 16, 16};
  core::Simulation b(bad);
  EXPECT_THROW(io::read_checkpoint(b, path), enzo::Error);

  auto bad2 = collapse_cfg();
  bad2.hierarchy.fields = mesh::chemistry_field_list();
  core::Simulation c(bad2);
  EXPECT_THROW(io::read_checkpoint(c, path), enzo::Error);
  std::filesystem::remove(path);
}

TEST(Checkpoint, RejectsGarbageAndMissingFiles) {
  core::Simulation b(collapse_cfg());
  EXPECT_THROW(io::read_checkpoint(b, temp_path("enzo_no_such_file.bin")),
               enzo::Error);
  const std::string path = temp_path("enzo_ckpt_garbage.bin");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("not a checkpoint", f);
    std::fclose(f);
  }
  core::Simulation c(collapse_cfg());
  EXPECT_THROW(io::read_checkpoint(c, path), enzo::Error);
  std::filesystem::remove(path);
}

TEST(Checkpoint, TruncatedFileDetected) {
  const std::string path = temp_path("enzo_ckpt_trunc.bin");
  core::Simulation a(collapse_cfg());
  make_blob(a);
  io::write_checkpoint(a, path);
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  core::Simulation b(collapse_cfg());
  EXPECT_THROW(io::read_checkpoint(b, path), enzo::Error);
  std::filesystem::remove(path);
}

TEST(Checkpoint, SizeEstimateMatchesActualExactly) {
  // checkpoint_size_bytes is an exact accounting of the uncompressed v2
  // format (the v1 estimate undercounted particles by 8 B and grid times by
  // 32 B); an uncompressed write must hit it to the byte, and a compressed
  // write must never exceed it.
  const std::string path = temp_path("enzo_ckpt_size.bin");
  core::Simulation a(collapse_cfg());
  make_blob(a);
  a.advance_root_step();  // refine, so multiple grids and old fields exist
  io::CheckpointWriteOptions raw;
  raw.compress = false;
  io::write_checkpoint(a, path, raw);
  const auto estimate = io::checkpoint_size_bytes(a);
  EXPECT_EQ(std::filesystem::file_size(path), estimate);

  io::write_checkpoint(a, path);  // compressed (default)
  EXPECT_LE(std::filesystem::file_size(path), estimate);
  std::filesystem::remove(path);
}

TEST(Checkpoint, RestartWithMoreLevelsDeepens) {
  // The §4 workflow: run shallow, checkpoint, restart with a deeper
  // max_level — the next rebuild may refine further.
  const std::string path = temp_path("enzo_ckpt_deepen.bin");
  auto shallow = collapse_cfg();
  shallow.hierarchy.max_level = 1;
  core::Simulation a(shallow);
  make_blob(a);
  a.advance_root_step();
  io::write_checkpoint(a, path);

  auto deep = collapse_cfg();
  deep.hierarchy.max_level = 3;
  deep.refinement.overdensity_threshold = 1.5;
  core::Simulation b(deep);
  io::read_checkpoint(b, path);
  b.advance_root_step();
  EXPECT_GT(b.hierarchy().deepest_level(), a.hierarchy().deepest_level());
  b.hierarchy().check_invariants();
  std::filesystem::remove(path);
}

// ---- codec ----------------------------------------------------------------

TEST(Codec, Crc32KnownVectorAndIncremental) {
  // The standard "123456789" IEEE CRC-32 check value.
  const char* s = "123456789";
  const auto* p = reinterpret_cast<const std::uint8_t*>(s);
  EXPECT_EQ(io::crc32(p, 9), 0xCBF43926u);
  // Incremental chaining must equal one-shot.
  const std::uint32_t part = io::crc32(p, 4);
  EXPECT_EQ(io::crc32(p + 4, 5, part), 0xCBF43926u);
}

TEST(Codec, ShuffleRleRoundTrip) {
  // Smooth doubles (the common field pattern) must round-trip and shrink.
  std::vector<double> vals(512);
  for (std::size_t i = 0; i < vals.size(); ++i)
    vals[i] = 1.0 + 1e-3 * static_cast<double>(i % 7);
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(vals.data());
  const std::size_t n = vals.size() * sizeof(double);
  const std::vector<std::uint8_t> packed = io::compress_block(bytes, n);
  EXPECT_LT(packed.size(), n);
  const std::vector<std::uint8_t> back =
      io::decompress_block(packed.data(), packed.size(), n);
  ASSERT_EQ(back.size(), n);
  EXPECT_EQ(std::memcmp(back.data(), bytes, n), 0);

  // Incompressible random bytes must still round-trip (even if bigger).
  std::mt19937_64 rng(12345);
  std::vector<std::uint8_t> noise(4096);
  for (auto& b : noise) b = static_cast<std::uint8_t>(rng());
  const auto packed2 = io::compress_block(noise.data(), noise.size());
  const auto back2 =
      io::decompress_block(packed2.data(), packed2.size(), noise.size());
  EXPECT_EQ(back2, noise);
}

TEST(Codec, MalformedRleRejected) {
  // A run declared but its fill byte missing.
  const std::uint8_t bad[] = {0x85};
  EXPECT_THROW(io::rle_decode(bad, 1, 8), enzo::Error);
  // Declared output size not met.
  const std::uint8_t short_lit[] = {0x01, 0x42, 0x42};
  EXPECT_THROW(io::rle_decode(short_lit, 3, 64), enzo::Error);
}

// ---- format v2 integrity ---------------------------------------------------

namespace {

/// A written blob checkpoint plus a fresh target sim, for corruption tests.
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

}  // namespace

TEST(Checkpoint, CompressedRoundTripIsIdentical) {
  const std::string path = temp_path("enzo_ckpt_comp.bin");
  core::Simulation a(collapse_cfg());
  make_blob(a);
  a.advance_root_step();
  io::write_checkpoint(a, path);  // compression on by default

  // At least one GRID section should actually have compressed.
  const auto sections = io::describe_checkpoint(path);
  bool any_compressed = false;
  for (const auto& s : sections) any_compressed |= s.compressed;
  EXPECT_TRUE(any_compressed);

  core::Simulation b(collapse_cfg());
  io::read_checkpoint(b, path);
  for (int l = 0; l <= a.hierarchy().deepest_level(); ++l) {
    const auto ga = a.hierarchy().grids(l);
    const auto gb = b.hierarchy().grids(l);
    ASSERT_EQ(ga.size(), gb.size());
    for (std::size_t n = 0; n < ga.size(); ++n)
      for (Field f : ga[n]->field_list()) {
        const auto& fa = ga[n]->field(f);
        const auto& fb = gb[n]->field(f);
        ASSERT_EQ(std::memcmp(fa.data(), fb.data(),
                              fa.size() * sizeof(double)),
                  0);
      }
  }
  std::filesystem::remove(path);
}

TEST(Checkpoint, SingleByteFlipDetected) {
  const std::string path = temp_path("enzo_ckpt_flip.bin");
  core::Simulation a(collapse_cfg());
  make_blob(a);
  io::write_checkpoint(a, path);
  const std::vector<std::uint8_t> good = slurp(path);
  // Flip one bit at a spread of offsets covering header, META, GRID payload,
  // and trailer; every one must be rejected.
  for (std::size_t off : {std::size_t{3}, std::size_t{20},
                          good.size() / 3, good.size() / 2,
                          good.size() - 2}) {
    std::vector<std::uint8_t> bad = good;
    bad[off] ^= 0x10;
    spit(path, bad);
    core::Simulation b(collapse_cfg());
    EXPECT_THROW(io::read_checkpoint(b, path), enzo::Error) << "offset " << off;
  }
  std::filesystem::remove(path);
}

TEST(Checkpoint, TrailingGarbageRejected) {
  // A v1-style reader stopped once it had read "enough grids"; v2 requires
  // the stream to end exactly at the trailer, so appended bytes fail.
  const std::string path = temp_path("enzo_ckpt_padded.bin");
  core::Simulation a(collapse_cfg());
  make_blob(a);
  io::write_checkpoint(a, path);
  std::vector<std::uint8_t> padded = slurp(path);
  padded.push_back(0);
  spit(path, padded);
  core::Simulation b(collapse_cfg());
  EXPECT_THROW(io::read_checkpoint(b, path), enzo::Error);
  std::filesystem::remove(path);
}

TEST(Checkpoint, OldVersionRejected) {
  const std::string path = temp_path("enzo_ckpt_v1.bin");
  core::Simulation a(collapse_cfg());
  make_blob(a);
  io::write_checkpoint(a, path);
  std::vector<std::uint8_t> bytes = slurp(path);
  // Rewrite the version word (offset 8) to 1 and re-seal the file CRC so the
  // *version check* is what fires, not the checksum.
  const std::uint32_t v1 = 1;
  std::memcpy(bytes.data() + 8, &v1, 4);
  const std::uint32_t crc = io::crc32(bytes.data(), bytes.size() - 4);
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, 4);
  spit(path, bytes);
  core::Simulation b(collapse_cfg());
  try {
    io::read_checkpoint(b, path);
    FAIL() << "v1 checkpoint accepted";
  } catch (const enzo::Error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported checkpoint version"),
              std::string::npos);
  }
  std::filesystem::remove(path);
}

TEST(Checkpoint, InjectedCrashLeavesPreviousSnapshotIntact) {
  const std::string path = temp_path("enzo_ckpt_crash.bin");
  const std::string tmp = path + ".tmp";
  core::Simulation a(collapse_cfg());
  make_blob(a);
  io::write_checkpoint(a, path);
  const std::vector<std::uint8_t> before = slurp(path);

  // Step on, then crash the next write partway through the temp file.
  a.advance_root_step();
  io::CheckpointWriteOptions opts;
  opts.inject_crash_after_bytes =
      io::encode_checkpoint(a, opts).size() / 2;
  io::write_checkpoint(a, path, opts);

  // The destination still holds the previous good snapshot byte-for-byte;
  // the torn temp file is left behind (and ignored by directory scans).
  EXPECT_EQ(slurp(path), before);
  EXPECT_TRUE(std::filesystem::exists(tmp));
  core::Simulation b(collapse_cfg());
  io::read_checkpoint(b, path);  // must not throw
  EXPECT_EQ(b.root_steps_taken(), 0);
  std::filesystem::remove(path);
  std::filesystem::remove(tmp);
}

// ---- retention + recovery ---------------------------------------------------

namespace {

struct TempDir {
  std::filesystem::path dir;
  explicit TempDir(const char* name)
      : dir(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  }
  ~TempDir() { std::filesystem::remove_all(dir); }
  std::string str() const { return dir.string(); }
};

}  // namespace

TEST(Checkpoint, WriterRollsRetention) {
  TempDir td("enzo_ckpt_retain");
  core::Simulation a(collapse_cfg());
  make_blob(a);
  io::CheckpointWriter::Options wopts;
  wopts.dir = td.str();
  wopts.keep = 2;
  io::CheckpointWriter writer(wopts);
  for (int s = 0; s < 4; ++s) {
    a.advance_root_step();
    writer.checkpoint(a);
  }
  writer.wait();
  ASSERT_TRUE(writer.ok()) << writer.last_error();
  EXPECT_EQ(writer.writes_completed(), 4u);
  const auto files = io::list_checkpoints(td.str());
  ASSERT_EQ(files.size(), 2u);  // pruned down to keep=2, newest survive
  EXPECT_NE(files[0].find(io::checkpoint_file_name(3)), std::string::npos);
  EXPECT_NE(files[1].find(io::checkpoint_file_name(4)), std::string::npos);

  // restore_latest lands on the newest snapshot.
  core::Simulation b(collapse_cfg());
  const auto res = io::restore_latest_checkpoint(b, td.str());
  EXPECT_EQ(res.skipped, 0);
  EXPECT_EQ(b.root_steps_taken(), 4);
}

TEST(Checkpoint, RecoverySkipsCorruptAndTornSnapshots) {
  TempDir td("enzo_ckpt_recover");
  core::Simulation a(collapse_cfg());
  make_blob(a);
  io::CheckpointWriter::Options wopts;
  wopts.dir = td.str();
  wopts.keep = 10;
  io::CheckpointWriter writer(wopts);
  for (int s = 0; s < 3; ++s) {
    a.advance_root_step();
    writer.checkpoint(a);
  }
  writer.wait();
  ASSERT_TRUE(writer.ok()) << writer.last_error();

  // Corrupt the newest (byte flip) and truncate the second-newest: recovery
  // must fall back to the snapshot from step 1.
  auto files = io::list_checkpoints(td.str());
  ASSERT_EQ(files.size(), 3u);
  {
    std::vector<std::uint8_t> bytes = slurp(files[2]);
    bytes[bytes.size() / 2] ^= 0xFF;
    spit(files[2], bytes);
  }
  std::filesystem::resize_file(files[1],
                               std::filesystem::file_size(files[1]) / 3);
  core::Simulation b(collapse_cfg());
  const auto res = io::restore_latest_checkpoint(b, td.str());
  EXPECT_EQ(res.skipped, 2);
  EXPECT_EQ(res.path, files[0]);
  EXPECT_EQ(b.root_steps_taken(), 1);

  // All snapshots corrupt → recovery throws.
  std::filesystem::resize_file(files[0], 10);
  core::Simulation c(collapse_cfg());
  EXPECT_THROW(io::restore_latest_checkpoint(c, td.str()), enzo::Error);
}

// ---- image output ---------------------------------------------------------

#include "io/image.hpp"

TEST(Image, PgmRoundTripAndScaling) {
  const std::string path = temp_path("enzo_img.pgm");
  // A 4×3 ramp: values 1..12 linear, no log.
  std::vector<double> data(12);
  for (int i = 0; i < 12; ++i) data[static_cast<std::size_t>(i)] = i + 1.0;
  io::ImageOptions opt;
  opt.log_scale = false;
  io::write_pgm(path, data, 4, 3, opt);
  const auto img = io::read_pgm(path);
  EXPECT_EQ(img.nx, 4);
  EXPECT_EQ(img.ny, 3);
  // Lowest value → 0, highest → 255; rows flipped (y-up data):
  // data[0]=1 is the minimum → byte 0; it lives in the LAST image row.
  EXPECT_EQ(img.pixels[static_cast<std::size_t>(2) * 4 + 0], 0);
  // data[11]=12 is the maximum → byte 255, first image row, last column.
  EXPECT_EQ(img.pixels[3], 255);
  std::filesystem::remove(path);
}

TEST(Image, LogScaleCompressesDynamicRange) {
  const std::string path = temp_path("enzo_img_log.pgm");
  std::vector<double> data = {1.0, 10.0, 100.0, 1000.0};
  io::ImageOptions opt;
  opt.log_scale = true;
  io::write_pgm(path, data, 4, 1, opt);
  const auto img = io::read_pgm(path);
  // Log-spaced data maps to (nearly) equally spaced bytes.
  EXPECT_EQ(img.pixels[0], 0);
  EXPECT_NEAR(img.pixels[1], 85, 2);
  EXPECT_NEAR(img.pixels[2], 170, 2);
  EXPECT_EQ(img.pixels[3], 255);
  std::filesystem::remove(path);
}

TEST(Image, DimensionMismatchRejected) {
  std::vector<double> data(5, 1.0);
  EXPECT_THROW(io::write_pgm(temp_path("x.pgm"), data, 2, 2, {}), enzo::Error);
}

TEST(Image, SliceAndProjectionWrappersProduceFiles) {
  core::Simulation a(collapse_cfg());
  make_blob(a);
  const auto s = analysis::density_slice(a.hierarchy(), 2, ext::pos_t(0.5),
                                         {0.5, 0.5}, 0.5, 16);
  const auto p = analysis::surface_density(a.hierarchy(), 2, 16);
  const std::string sp = temp_path("enzo_slice.pgm");
  const std::string pp = temp_path("enzo_proj.pgm");
  io::write_slice_pgm(sp, s);
  io::write_projection_pgm(pp, p);
  const auto si = io::read_pgm(sp);
  const auto pi = io::read_pgm(pp);
  EXPECT_EQ(si.nx, 16);
  EXPECT_EQ(pi.nx, 16);
  // The blob is centered: the central pixel outshines the corner.
  EXPECT_GT(si.pixels[static_cast<std::size_t>(8) * 16 + 8], si.pixels[0]);
  std::filesystem::remove(sp);
  std::filesystem::remove(pp);
}
