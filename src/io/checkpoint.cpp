#include "io/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <unordered_map>

#include "io/codec.hpp"
#include "perf/log.hpp"
#include "perf/metrics.hpp"
#include "perf/trace.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace enzo::io {

using mesh::Field;
using mesh::Grid;

namespace {

// ---- fixed framing sizes ----------------------------------------------------

constexpr std::size_t kFileHeaderBytes = 16;   // magic u64 + version + endian
constexpr std::size_t kSectionHeaderBytes =    // tag + flags[4] + sizes + crc
    4 + 4 + 8 + 8 + 4;
constexpr std::size_t kTrailerBytes = 8;       // end magic + file crc
constexpr std::uint8_t kFlagCompressed = 1;

/// 8-byte words one particle occupies: 3 × (hi, lo) position, 3 velocity,
/// mass, id — 11 words = 88 bytes (the v1 size estimate assumed 80, which is
/// the bug the exact accounting below replaces).
constexpr std::uint64_t kParticleWords = 11;

// ---- little byte buffer / reader -------------------------------------------

struct ByteBuf {
  std::vector<std::uint8_t> b;

  template <typename T>
  void put(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t off = b.size();
    b.resize(off + sizeof(T));
    std::memcpy(b.data() + off, &v, sizeof(T));
  }
  void put_pos(ext::pos_t p) {
    put<double>(p.hi);
    put<double>(p.lo);
  }
};

struct ByteReader {
  const std::uint8_t* p = nullptr;
  std::size_t n = 0;
  std::size_t off = 0;

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    ENZO_REQUIRE(off + sizeof(T) <= n, "checkpoint: truncated stream");
    T v;
    std::memcpy(&v, p + off, sizeof(T));
    off += sizeof(T);
    return v;
  }
  ext::pos_t get_pos() {
    const double hi = get<double>();
    const double lo = get<double>();
    return ext::pos_t(hi, lo);
  }
  bool exhausted() const { return off == n; }
};

// ---- metrics ----------------------------------------------------------------

struct CkptMetrics {
  perf::Counter& writes;
  perf::Counter& bytes_raw;
  perf::Counter& bytes_written;
  perf::Counter& restores;
  perf::Counter& skipped_corrupt;
  perf::Counter& pruned;
  perf::Gauge& encode_seconds;
  perf::Gauge& write_seconds;

  static CkptMetrics& get() {
    auto& r = perf::Registry::global();
    static CkptMetrics m{r.counter("io.checkpoint.writes"),
                         r.counter("io.checkpoint.bytes_raw"),
                         r.counter("io.checkpoint.bytes_written"),
                         r.counter("io.checkpoint.restores"),
                         r.counter("io.checkpoint.skipped_corrupt"),
                         r.counter("io.checkpoint.pruned"),
                         r.gauge("io.checkpoint.encode_seconds"),
                         r.gauge("io.checkpoint.write_seconds")};
    return m;
  }
};

// ---- per-grid payload -------------------------------------------------------

std::uint64_t grid_data_words(const Grid& g) {
  std::uint64_t words = 0;
  const std::uint64_t copies = g.has_old_fields() ? 2 : 1;
  for (Field f : g.field_list())
    words += copies * static_cast<std::uint64_t>(g.field(f).size());
  words += kParticleWords * static_cast<std::uint64_t>(g.particles().size());
  return words;
}

void encode_grid_payload(const Grid& g, ByteBuf& out) {
  const auto put_array = [&](mesh::ConstFieldView a) {
    const std::size_t off = out.b.size();
    const std::size_t bytes = a.size() * sizeof(double);
    out.b.resize(off + bytes);
    std::memcpy(out.b.data() + off, a.data(), bytes);
  };
  for (Field f : g.field_list()) put_array(g.field(f));
  if (g.has_old_fields())
    for (Field f : g.field_list()) put_array(g.old_field(f));
  for (const mesh::Particle& p : g.particles()) {
    for (int d = 0; d < 3; ++d) out.put_pos(p.x[d]);
    for (int d = 0; d < 3; ++d) out.put<double>(p.v[d]);
    out.put<double>(p.mass);
    out.put<std::uint64_t>(p.id);
  }
}

void decode_grid_payload(ByteReader& r, Grid& g, std::uint64_t npart) {
  const auto get_array = [&](mesh::FieldView a) {
    const std::size_t bytes = a.size() * sizeof(double);
    ENZO_REQUIRE(r.off + bytes <= r.n, "checkpoint: truncated field data");
    std::memcpy(a.data(), r.p + r.off, bytes);
    r.off += bytes;
  };
  for (Field f : g.field_list()) get_array(g.field(f));
  const bool has_old = g.has_old_fields();
  if (has_old)
    for (Field f : g.field_list()) get_array(g.old_field(f));
  g.particles().resize(npart);
  for (mesh::Particle& p : g.particles()) {
    for (int d = 0; d < 3; ++d) p.x[d] = r.get_pos();
    for (int d = 0; d < 3; ++d) p.v[d] = r.get<double>();
    p.mass = r.get<double>();
    p.id = r.get<std::uint64_t>();
  }
  ENZO_REQUIRE(r.exhausted(), "checkpoint: grid payload size mismatch");
}

// ---- META payload -----------------------------------------------------------

std::size_t meta_payload_bytes(const core::Simulation& sim) {
  const auto& h = sim.hierarchy();
  const auto& hp = sim.config().hierarchy;
  std::size_t bytes = 3 * 8 + 3 * 4 + 1          // dims, refine/ghost/max, per
                      + 4 + 4 * hp.fields.size() // field list
                      + 16 + 8 + 8               // time, a, root_steps
                      + 4 + 8 * (static_cast<std::size_t>(hp.max_level) + 2)
                      + 4 + 52 * sim.static_regions().size()
                      + (1 + 16) + (1 + 16)      // diag + audit baselines
                      + 4;                       // deepest level
  for (int l = 0; l <= h.deepest_level(); ++l) {
    bytes += 4;  // grid count
    bytes += h.grids(l).size() * (48 + 4 + 16 + 16 + 1 + 8 + 8);
  }
  return bytes;
}

void encode_meta(const core::Simulation& sim, ByteBuf& out) {
  const auto& h = sim.hierarchy();
  const auto& hp = sim.config().hierarchy;
  for (int d = 0; d < 3; ++d) out.put<std::int64_t>(hp.root_dims[d]);
  out.put<std::int32_t>(hp.refine_factor);
  out.put<std::int32_t>(hp.nghost);
  out.put<std::int32_t>(hp.max_level);
  out.put<std::uint8_t>(hp.periodic ? 1 : 0);
  out.put<std::int32_t>(static_cast<std::int32_t>(hp.fields.size()));
  for (Field f : hp.fields) out.put<std::int32_t>(mesh::field_index(f));

  const core::Simulation::ClockState cs = sim.clock_state();
  out.put_pos(cs.time);
  out.put<double>(sim.scale_factor());
  out.put<std::int64_t>(cs.root_steps);
  // level_steps_ is sized max_level + 2 by construction; serialize that
  // exact span so the accounting stays closed-form.
  const std::size_t nls = static_cast<std::size_t>(hp.max_level) + 2;
  ENZO_REQUIRE(cs.level_steps.size() == nls,
               "checkpoint: level step counter size drift");
  out.put<std::int32_t>(static_cast<std::int32_t>(nls));
  for (long v : cs.level_steps) out.put<std::int64_t>(v);
  out.put<std::int32_t>(static_cast<std::int32_t>(cs.static_regions.size()));
  for (const auto& [lvl, box] : cs.static_regions) {
    out.put<std::int32_t>(lvl);
    for (int d = 0; d < 3; ++d) out.put<std::int64_t>(box.lo[d]);
    for (int d = 0; d < 3; ++d) out.put<std::int64_t>(box.hi[d]);
  }
  out.put<std::uint8_t>(cs.diag_baseline_set ? 1 : 0);
  out.put<double>(cs.diag_mass0);
  out.put<double>(cs.diag_energy0);
  out.put<std::uint8_t>(cs.audit_baseline_set ? 1 : 0);
  out.put<double>(cs.audit_mass0);
  out.put<double>(cs.audit_energy0);

  out.put<std::int32_t>(h.deepest_level());
  for (int l = 0; l <= h.deepest_level(); ++l) {
    const auto grids = h.grids(l);
    out.put<std::int32_t>(static_cast<std::int32_t>(grids.size()));
    // Grid* → ordinal map built once per parent level: the v1 writer ran a
    // linear scan over grids(l-1) for every child, O(grids²) per level.
    std::unordered_map<const Grid*, std::int32_t> parent_ord;
    if (l > 0) {
      const auto parents = h.grids(l - 1);
      parent_ord.reserve(parents.size());
      for (std::size_t p = 0; p < parents.size(); ++p)
        parent_ord.emplace(parents[p], static_cast<std::int32_t>(p));
    }
    for (const Grid* g : grids) {
      for (int d = 0; d < 3; ++d) out.put<std::int64_t>(g->box().lo[d]);
      for (int d = 0; d < 3; ++d) out.put<std::int64_t>(g->box().hi[d]);
      std::int32_t ord = -1;
      if (l > 0) {
        const auto it = parent_ord.find(g->parent());
        ENZO_REQUIRE(it != parent_ord.end(), "checkpoint: orphan grid");
        ord = it->second;
      }
      out.put<std::int32_t>(ord);
      out.put_pos(g->time());
      out.put_pos(g->old_time());
      out.put<std::uint8_t>(g->has_old_fields() ? 1 : 0);
      out.put<std::uint64_t>(g->particles().size());
      out.put<std::uint64_t>(grid_data_words(*g));
    }
  }
}

struct GridMeta {
  mesh::IndexBox box;
  std::int32_t parent_ord = -1;
  ext::pos_t time{0.0};
  ext::pos_t old_time{0.0};
  bool has_old = false;
  std::uint64_t npart = 0;
  std::uint64_t data_words = 0;
};

struct Meta {
  core::Simulation::ClockState clock;
  int deepest = -1;
  std::vector<std::vector<GridMeta>> levels;
  std::size_t total_grids() const {
    std::size_t n = 0;
    for (const auto& l : levels) n += l.size();
    return n;
  }
};

/// Parse + validate the META payload against the target simulation's config
/// (pure: does not touch `sim`).
Meta decode_meta(const core::Simulation& sim, const std::uint8_t* p,
                 std::size_t n) {
  const auto& hp = sim.config().hierarchy;
  ByteReader r{p, n, 0};
  for (int d = 0; d < 3; ++d)
    ENZO_REQUIRE(r.get<std::int64_t>() == hp.root_dims[d],
                 "checkpoint root dims mismatch");
  ENZO_REQUIRE(r.get<std::int32_t>() == hp.refine_factor,
               "checkpoint refine factor mismatch");
  ENZO_REQUIRE(r.get<std::int32_t>() == hp.nghost,
               "checkpoint ghost count mismatch");
  (void)r.get<std::int32_t>();  // max_level is advisory (deepen-on-restart)
  ENZO_REQUIRE((r.get<std::uint8_t>() != 0) == hp.periodic,
               "checkpoint periodicity mismatch");
  const int nfields = r.get<std::int32_t>();
  ENZO_REQUIRE(nfields == static_cast<int>(hp.fields.size()),
               "checkpoint field count mismatch");
  for (Field f : hp.fields)
    ENZO_REQUIRE(r.get<std::int32_t>() == mesh::field_index(f),
                 "checkpoint field list mismatch");

  Meta m;
  m.clock.time = r.get_pos();
  (void)r.get<double>();  // scale factor is re-derived from the time
  m.clock.root_steps = static_cast<long>(r.get<std::int64_t>());
  const int nls = r.get<std::int32_t>();
  ENZO_REQUIRE(nls >= 0 && nls < 1 << 20, "checkpoint: bad level step count");
  m.clock.level_steps.resize(static_cast<std::size_t>(nls));
  for (long& v : m.clock.level_steps)
    v = static_cast<long>(r.get<std::int64_t>());
  const int nregions = r.get<std::int32_t>();
  ENZO_REQUIRE(nregions >= 0 && nregions < 1 << 16,
               "checkpoint: bad static region count");
  m.clock.static_regions.resize(static_cast<std::size_t>(nregions));
  for (auto& [lvl, box] : m.clock.static_regions) {
    lvl = r.get<std::int32_t>();
    for (int d = 0; d < 3; ++d) box.lo[d] = r.get<std::int64_t>();
    for (int d = 0; d < 3; ++d) box.hi[d] = r.get<std::int64_t>();
  }
  m.clock.diag_baseline_set = r.get<std::uint8_t>() != 0;
  m.clock.diag_mass0 = r.get<double>();
  m.clock.diag_energy0 = r.get<double>();
  m.clock.audit_baseline_set = r.get<std::uint8_t>() != 0;
  m.clock.audit_mass0 = r.get<double>();
  m.clock.audit_energy0 = r.get<double>();

  m.deepest = r.get<std::int32_t>();
  ENZO_REQUIRE(m.deepest >= 0 && m.deepest < 1 << 10,
               "checkpoint: bad level count");
  m.levels.resize(static_cast<std::size_t>(m.deepest) + 1);
  for (int l = 0; l <= m.deepest; ++l) {
    const int ngrids = r.get<std::int32_t>();
    ENZO_REQUIRE(ngrids > 0 && ngrids < 1 << 24,
                 "checkpoint: bad grid count");
    auto& lvl = m.levels[static_cast<std::size_t>(l)];
    lvl.resize(static_cast<std::size_t>(ngrids));
    for (GridMeta& gm : lvl) {
      for (int d = 0; d < 3; ++d) gm.box.lo[d] = r.get<std::int64_t>();
      for (int d = 0; d < 3; ++d) gm.box.hi[d] = r.get<std::int64_t>();
      gm.parent_ord = r.get<std::int32_t>();
      gm.time = r.get_pos();
      gm.old_time = r.get_pos();
      gm.has_old = r.get<std::uint8_t>() != 0;
      gm.npart = r.get<std::uint64_t>();
      gm.data_words = r.get<std::uint64_t>();
    }
  }
  ENZO_REQUIRE(r.exhausted(), "checkpoint: META payload size mismatch");
  return m;
}

// ---- section assembly -------------------------------------------------------

struct EncodedSection {
  std::uint32_t tag = 0;
  std::uint8_t flags = 0;
  std::uint64_t raw_size = 0;
  std::vector<std::uint8_t> stored;
};

EncodedSection seal_section(std::uint32_t tag, std::vector<std::uint8_t> raw,
                            bool compress) {
  EncodedSection s;
  s.tag = tag;
  s.raw_size = raw.size();
  if (compress && !raw.empty() && raw.size() % 8 == 0) {
    std::vector<std::uint8_t> packed = compress_block(raw.data(), raw.size());
    if (packed.size() < raw.size()) {
      s.flags = kFlagCompressed;
      s.stored = std::move(packed);
      return s;
    }
  }
  s.stored = std::move(raw);
  return s;
}

void append_section(std::vector<std::uint8_t>& image,
                    const EncodedSection& s) {
  ByteBuf h;
  h.put<std::uint32_t>(s.tag);
  h.put<std::uint8_t>(s.flags);
  h.put<std::uint8_t>(0);
  h.put<std::uint8_t>(0);
  h.put<std::uint8_t>(0);
  h.put<std::uint64_t>(s.raw_size);
  h.put<std::uint64_t>(s.stored.size());
  h.put<std::uint32_t>(crc32(s.stored.data(), s.stored.size()));
  image.insert(image.end(), h.b.begin(), h.b.end());
  image.insert(image.end(), s.stored.begin(), s.stored.end());
}

}  // namespace

// ---- encode -----------------------------------------------------------------

std::vector<std::uint8_t> encode_checkpoint(const core::Simulation& sim,
                                            const CheckpointWriteOptions& opts) {
  perf::TraceScope scope("checkpoint/encode", perf::component::kIo);
  const auto& h = sim.hierarchy();

  // Snapshot the grid list (level-major, ordinal order — the order the META
  // section describes and the reader rebuilds).
  std::vector<const Grid*> grids;
  for (int l = 0; l <= h.deepest_level(); ++l)
    for (const Grid* g : h.grids(l)) grids.push_back(g);

  ByteBuf meta;
  meta.b.reserve(meta_payload_bytes(sim));
  encode_meta(sim, meta);
  ENZO_REQUIRE(meta.b.size() == meta_payload_bytes(sim),
               "checkpoint: META accounting drift");

  // Per-grid section encode (serialize + compress + checksum) is
  // embarrassingly parallel; offload it through the level executor when one
  // is provided.  Results land in ordinal slots, so the assembled image is
  // byte-identical at any thread count.
  std::vector<EncodedSection> sections(grids.size());
  const auto encode_one = [&](std::size_t n) {
    ByteBuf raw;
    raw.b.reserve(grid_data_words(*grids[n]) * 8);
    encode_grid_payload(*grids[n], raw);
    ENZO_REQUIRE(raw.b.size() == grid_data_words(*grids[n]) * 8,
                 "checkpoint: grid accounting drift");
    sections[n] = seal_section(kSectionGrid, std::move(raw.b), opts.compress);
  };
  if (opts.executor != nullptr && grids.size() > 1) {
    opts.executor->for_each({"checkpoint_encode", perf::component::kIo},
                            grids.size(), encode_one, [&](std::size_t n) {
                              return grid_data_words(*grids[n]);
                            });
  } else {
    for (std::size_t n = 0; n < grids.size(); ++n) encode_one(n);
  }

  std::vector<std::uint8_t> image;
  std::size_t stored_total = kFileHeaderBytes + kTrailerBytes +
                             kSectionHeaderBytes + meta.b.size();
  for (const auto& s : sections)
    stored_total += kSectionHeaderBytes + s.stored.size();
  image.reserve(stored_total);

  ByteBuf head;
  head.put<std::uint64_t>(kCheckpointMagic);
  head.put<std::uint32_t>(kCheckpointVersion);
  head.put<std::uint32_t>(kCheckpointEndianMarker);
  image = std::move(head.b);
  append_section(image, seal_section(kSectionMeta, std::move(meta.b),
                                     /*compress=*/false));
  for (const auto& s : sections) append_section(image, s);

  ByteBuf tail;
  tail.put<std::uint32_t>(kCheckpointEndMagic);
  image.insert(image.end(), tail.b.begin(), tail.b.end());
  const std::uint32_t file_crc = crc32(image.data(), image.size());
  ByteBuf crc_buf;
  crc_buf.put<std::uint32_t>(file_crc);
  image.insert(image.end(), crc_buf.b.begin(), crc_buf.b.end());
  return image;
}

std::size_t checkpoint_size_bytes(const core::Simulation& sim) {
  const auto& h = sim.hierarchy();
  std::size_t bytes = kFileHeaderBytes + kTrailerBytes;
  bytes += kSectionHeaderBytes + meta_payload_bytes(sim);
  for (int l = 0; l <= h.deepest_level(); ++l)
    for (const Grid* g : h.grids(l))
      bytes += kSectionHeaderBytes +
               static_cast<std::size_t>(grid_data_words(*g)) * 8;
  return bytes;
}

// ---- atomic write -----------------------------------------------------------

bool atomic_write_file(const std::string& path,
                       const std::vector<std::uint8_t>& bytes,
                       std::size_t inject_crash_after_bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  ENZO_REQUIRE(f != nullptr, "cannot open checkpoint for writing: " + tmp);
  const std::size_t to_write =
      std::min(bytes.size(), inject_crash_after_bytes);
  const std::size_t written =
      to_write == 0 ? 0 : std::fwrite(bytes.data(), 1, to_write, f);
  if (to_write < bytes.size()) {
    // Injected crash: abandon the torn temp file, never touch `path`.
    std::fclose(f);
    return false;
  }
  bool ok = written == bytes.size() && std::fflush(f) == 0;
  // fsync before rename: the rename must never be durable before the data.
  ok = ok && ::fsync(::fileno(f)) == 0;
  ok = std::fclose(f) == 0 && ok;
  ENZO_REQUIRE(ok, "checkpoint write failed: " + tmp);
  ENZO_REQUIRE(std::rename(tmp.c_str(), path.c_str()) == 0,
               "cannot rename checkpoint into place: " + path);
  // Best-effort directory fsync so the rename itself is durable.
  const std::filesystem::path dir =
      std::filesystem::path(path).has_parent_path()
          ? std::filesystem::path(path).parent_path()
          : std::filesystem::path(".");
  const int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return true;
}

void write_checkpoint(const core::Simulation& sim, const std::string& path,
                      const CheckpointWriteOptions& opts) {
  CkptMetrics& m = CkptMetrics::get();
  util::Stopwatch encode_watch;
  const std::vector<std::uint8_t> image = encode_checkpoint(sim, opts);
  m.encode_seconds.set(encode_watch.seconds());

  perf::TraceScope scope("checkpoint/write", perf::component::kIo);
  util::Stopwatch write_watch;
  if (!atomic_write_file(path, image, opts.inject_crash_after_bytes)) return;
  m.write_seconds.set(write_watch.seconds());
  m.writes.add(1);
  m.bytes_raw.add(checkpoint_size_bytes(sim));
  m.bytes_written.add(image.size());
}

// ---- framing inspection -----------------------------------------------------

std::vector<SectionInfo> describe_checkpoint(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  ENZO_REQUIRE(is.good(), "cannot open checkpoint: " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(is)),
                                  std::istreambuf_iterator<char>());
  ENZO_REQUIRE(bytes.size() >= kFileHeaderBytes + kTrailerBytes,
               "not an enzo-mini checkpoint: " + path);
  ByteReader r{bytes.data(), bytes.size() - kTrailerBytes, 0};
  ENZO_REQUIRE(r.get<std::uint64_t>() == kCheckpointMagic,
               "not an enzo-mini checkpoint: " + path);
  ENZO_REQUIRE(r.get<std::uint32_t>() == kCheckpointVersion,
               "unsupported checkpoint version");
  ENZO_REQUIRE(r.get<std::uint32_t>() == kCheckpointEndianMarker,
               "checkpoint endianness mismatch");
  std::vector<SectionInfo> out;
  while (!r.exhausted()) {
    SectionInfo s;
    s.header_offset = r.off;
    s.tag = r.get<std::uint32_t>();
    const std::uint8_t flags = r.get<std::uint8_t>();
    (void)r.get<std::uint8_t>();
    (void)r.get<std::uint8_t>();
    (void)r.get<std::uint8_t>();
    s.raw_size = r.get<std::uint64_t>();
    s.stored_size = r.get<std::uint64_t>();
    (void)r.get<std::uint32_t>();  // crc
    s.compressed = (flags & kFlagCompressed) != 0;
    s.payload_offset = r.off;
    ENZO_REQUIRE(s.stored_size <= r.n - r.off,
                 "checkpoint: section overruns file");
    r.off += s.stored_size;
    out.push_back(s);
  }
  return out;
}

// ---- read -------------------------------------------------------------------

void read_checkpoint(core::Simulation& sim, const std::string& path) {
  perf::TraceScope scope("checkpoint/read", perf::component::kIo);
  std::ifstream is(path, std::ios::binary);
  ENZO_REQUIRE(is.good(), "cannot open checkpoint: " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(is)),
                                  std::istreambuf_iterator<char>());
  ENZO_REQUIRE(bytes.size() >= kFileHeaderBytes + kTrailerBytes,
               "not an enzo-mini checkpoint: " + path);

  // Header.
  ByteReader r{bytes.data(), bytes.size(), 0};
  ENZO_REQUIRE(r.get<std::uint64_t>() == kCheckpointMagic,
               "not an enzo-mini checkpoint: " + path);
  ENZO_REQUIRE(r.get<std::uint32_t>() == kCheckpointVersion,
               "unsupported checkpoint version");
  ENZO_REQUIRE(r.get<std::uint32_t>() == kCheckpointEndianMarker,
               "checkpoint endianness mismatch");

  // Whole-file integrity first: the trailing CRC32 covers every byte up to
  // itself, so truncation, padding, concatenation, or any bit flip anywhere
  // is rejected before the state is even parsed.
  {
    ByteReader t{bytes.data(), bytes.size(), bytes.size() - kTrailerBytes};
    ENZO_REQUIRE(t.get<std::uint32_t>() == kCheckpointEndMagic,
                 "checkpoint: missing end-of-file marker (truncated?)");
    const std::uint32_t want = t.get<std::uint32_t>();
    const std::uint32_t got = crc32(bytes.data(), bytes.size() - 4);
    ENZO_REQUIRE(want == got,
                 "checkpoint: file checksum mismatch (torn or corrupt file)");
  }

  // Section walk: verify per-section checksums, decompress, and require the
  // stream to be exhausted exactly at the trailer (a v1-style reader that
  // stops at "enough grids" would silently accept padded files).
  struct RawSection {
    std::uint32_t tag;
    std::vector<std::uint8_t> payload;
  };
  std::vector<RawSection> sections;
  r.n = bytes.size() - kTrailerBytes;
  while (!r.exhausted()) {
    const std::uint32_t tag = r.get<std::uint32_t>();
    const std::uint8_t flags = r.get<std::uint8_t>();
    (void)r.get<std::uint8_t>();
    (void)r.get<std::uint8_t>();
    (void)r.get<std::uint8_t>();
    const std::uint64_t raw_size = r.get<std::uint64_t>();
    const std::uint64_t stored_size = r.get<std::uint64_t>();
    const std::uint32_t want_crc = r.get<std::uint32_t>();
    ENZO_REQUIRE(stored_size <= r.n - r.off,
                 "checkpoint: section overruns file");
    const std::uint8_t* payload = r.p + r.off;
    r.off += stored_size;
    ENZO_REQUIRE(crc32(payload, stored_size) == want_crc,
                 "checkpoint: section checksum mismatch");
    RawSection s;
    s.tag = tag;
    if (flags & kFlagCompressed)
      s.payload = decompress_block(payload, stored_size, raw_size);
    else
      s.payload.assign(payload, payload + stored_size);
    ENZO_REQUIRE(s.payload.size() == raw_size,
                 "checkpoint: section size mismatch");
    sections.push_back(std::move(s));
  }
  ENZO_REQUIRE(!sections.empty() && sections.front().tag == kSectionMeta,
               "checkpoint: missing META section");

  const Meta meta =
      decode_meta(sim, sections[0].payload.data(), sections[0].payload.size());
  ENZO_REQUIRE(sections.size() == meta.total_grids() + 1,
               "checkpoint: grid section count mismatch");

  // All validation that can fail on a well-formed-but-mismatched file is
  // done; rebuild the hierarchy from the parsed state.
  ENZO_REQUIRE(sim.hierarchy().grids(0).empty(),
               "read_checkpoint needs an unbuilt root");
  sim.hierarchy() = mesh::Hierarchy(sim.config().hierarchy);
  auto& h = sim.hierarchy();

  std::size_t sec = 1;
  std::vector<Grid*> prev_level;
  for (int l = 0; l <= meta.deepest; ++l) {
    std::vector<Grid*> this_level;
    for (const GridMeta& gm : meta.levels[static_cast<std::size_t>(l)]) {
      auto g = h.make_grid(l, gm.box);
      if (l > 0) {
        ENZO_REQUIRE(gm.parent_ord >= 0 &&
                         gm.parent_ord <
                             static_cast<std::int32_t>(prev_level.size()),
                     "checkpoint: bad parent ordinal");
        g->set_parent(prev_level[static_cast<std::size_t>(gm.parent_ord)]);
      }
      g->set_time(gm.time);
      g->set_old_time(gm.old_time);
      if (gm.has_old) {
        // store_old_fields snapshots current data and sets old_time = time;
        // the payload then overwrites both old arrays and old_time below.
        g->store_old_fields();
        g->set_old_time(gm.old_time);
      }
      ENZO_REQUIRE(grid_data_words(*g) + kParticleWords * gm.npart -
                           kParticleWords * g->particles().size() ==
                       gm.data_words,
                   "checkpoint: grid payload accounting mismatch");
      const auto& payload = sections[sec].payload;
      ENZO_REQUIRE(sections[sec].tag == kSectionGrid,
                   "checkpoint: unexpected section tag");
      ENZO_REQUIRE(payload.size() == gm.data_words * 8,
                   "checkpoint: grid payload size mismatch");
      ByteReader gr{payload.data(), payload.size(), 0};
      decode_grid_payload(gr, *g, gm.npart);
      ++sec;
      this_level.push_back(h.insert_grid(std::move(g)));
    }
    prev_level = std::move(this_level);
  }
  sim.restore_clock_state(meta.clock);
  h.check_invariants();
  CkptMetrics::get().restores.add(1);
}

// ---- directories: naming, retention, recovery -------------------------------

std::string checkpoint_file_name(long step) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s%08ld%s", kCheckpointPrefix, step,
                kCheckpointSuffix);
  return buf;
}

std::vector<std::string> list_checkpoints(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (!e.is_regular_file()) continue;
    const std::string name = e.path().filename().string();
    if (name.rfind(kCheckpointPrefix, 0) == 0 &&
        name.size() > std::strlen(kCheckpointSuffix) &&
        name.compare(name.size() - std::strlen(kCheckpointSuffix),
                     std::string::npos, kCheckpointSuffix) == 0)
      out.push_back(e.path().string());
  }
  // Zero-padded step numbers: lexicographic order is chronological order.
  std::sort(out.begin(), out.end());
  return out;
}

int prune_checkpoints(const std::string& dir, int keep) {
  ENZO_REQUIRE(keep >= 1, "checkpoint retention must keep at least one");
  const std::vector<std::string> files = list_checkpoints(dir);
  int removed = 0;
  for (std::size_t i = 0;
       i + static_cast<std::size_t>(keep) < files.size(); ++i) {
    std::error_code ec;
    if (std::filesystem::remove(files[i], ec)) ++removed;
  }
  if (removed > 0) CkptMetrics::get().pruned.add(static_cast<unsigned>(removed));
  return removed;
}

RestoreResult restore_latest_checkpoint(core::Simulation& sim,
                                        const std::string& dir_or_file) {
  namespace fs = std::filesystem;
  RestoreResult res;
  if (fs::is_regular_file(dir_or_file)) {
    read_checkpoint(sim, dir_or_file);
    res.path = dir_or_file;
    return res;
  }
  ENZO_REQUIRE(fs::is_directory(dir_or_file),
               "no checkpoint file or directory at: " + dir_or_file);
  std::vector<std::string> files = list_checkpoints(dir_or_file);
  ENZO_REQUIRE(!files.empty(),
               "no checkpoints found in directory: " + dir_or_file);
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    try {
      // A failed attempt may have partially rebuilt the hierarchy; reset it
      // so the next candidate starts from the required unbuilt state.  The
      // clock is only restored after full validation, so it never tears.
      sim.hierarchy() = mesh::Hierarchy(sim.config().hierarchy);
      read_checkpoint(sim, *it);
      res.path = *it;
      return res;
    } catch (const enzo::Error& e) {
      ++res.skipped;
      CkptMetrics::get().skipped_corrupt.add(1);
      perf::StructuredLog::global().logf(
          perf::LogLevel::kWarn, "checkpoint",
          "skipping corrupt snapshot %s: %s", it->c_str(), e.what());
    }
  }
  throw enzo::Error("no intact checkpoint in " + dir_or_file + " (" +
                    std::to_string(res.skipped) + " corrupt candidate(s))");
}

}  // namespace enzo::io
