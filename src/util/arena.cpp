#include "util/arena.hpp"

#include <atomic>
#include <cstring>
#include <memory>
#include <new>

#include "perf/metrics.hpp"
#include "util/alloc_stats.hpp"

namespace enzo::util {

namespace {

constexpr std::size_t kAlign = 64;  // SIMD / cache-line alignment

// Aggregates across every Arena instance (one per hierarchy + scratch), so
// the arena.* gauges describe the whole process.
std::atomic<std::int64_t> g_bytes_live{0};
std::atomic<std::int64_t> g_bytes_pooled{0};

perf::Counter& hits_counter() {
  static perf::Counter& c = perf::Registry::global().counter("arena.pool_hits");
  return c;
}
perf::Counter& misses_counter() {
  static perf::Counter& c =
      perf::Registry::global().counter("arena.pool_misses");
  return c;
}
perf::Counter& recycle_counter() {
  static perf::Counter& c =
      perf::Registry::global().counter("arena.recycled_blocks");
  return c;
}
void publish_gauges() {
  static perf::Gauge& live = perf::Registry::global().gauge("arena.bytes_live");
  static perf::Gauge& pooled =
      perf::Registry::global().gauge("arena.bytes_pooled");
  live.set(static_cast<double>(g_bytes_live.load(std::memory_order_relaxed)));
  pooled.set(
      static_cast<double>(g_bytes_pooled.load(std::memory_order_relaxed)));
}

// Every block is a plain allocation aligned by hand, with the raw pointer in
// the word below the block.  glibc's aligned allocation splits a small
// chunk off the front of each misaligned block, and those pinned chunks
// stop later frees from coalescing.  Unattached buffers include large
// short-lived ones (the initial conditions), so with glibc's aligned
// allocation each set-up of a cosmology deck left the heap a few megabytes
// larger.  Pooled blocks are never freed; the spare list keeps their
// (interior) pointers.
double* heap_new(std::size_t doubles) {
  const std::size_t bytes = doubles * sizeof(double);
  char* raw = static_cast<char*>(::operator new(bytes + kAlign));
  // raw is at least 8-aligned, so aligning raw + 8 moves it at most 56
  // bytes: the block and the word below it always fit.
  void* p = raw + sizeof raw;
  std::size_t space = bytes + kAlign - sizeof raw;
  std::align(kAlign, bytes, p, space);
  std::memcpy(static_cast<char*>(p) - sizeof raw, &raw, sizeof raw);
  return static_cast<double*>(p);
}
void heap_delete(double* p) {
  char* raw = nullptr;
  std::memcpy(&raw, reinterpret_cast<char*>(p) - sizeof raw, sizeof raw);
  ::operator delete(raw);
}

// Blocks trimmed from every arena, by capacity.  Never destroyed, so
// an arena destroyed during static teardown can still trim into it.
struct SpareBlocks {
  std::mutex mu;
  std::unordered_map<std::size_t, std::vector<double*>> by_capacity;
};
SpareBlocks& spares() {
  static SpareBlocks* s = new SpareBlocks;
  return *s;
}

double* take_spare(std::size_t cap) {
  SpareBlocks& s = spares();
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.by_capacity.find(cap);
  if (it == s.by_capacity.end() || it->second.empty()) return nullptr;
  double* p = it->second.back();
  it->second.pop_back();
  return p;
}

}  // namespace

Arena::~Arena() { trim(); }

ArenaBlock Arena::acquire(std::size_t doubles) {
  const std::size_t cap = capacity_for(doubles);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pool_.find(cap);
    if (it != pool_.end() && !it->second.empty()) {
      double* p = it->second.back();
      it->second.pop_back();
      bytes_pooled_ -= cap * sizeof(double);
      g_bytes_pooled.fetch_sub(
          static_cast<std::int64_t>(cap * sizeof(double)),
          std::memory_order_relaxed);
      g_bytes_live.fetch_add(static_cast<std::int64_t>(cap * sizeof(double)),
                             std::memory_order_relaxed);
      hits_counter().add(1);
      publish_gauges();
      return {p, cap};
    }
  }
  misses_counter().add(1);
  double* p = take_spare(cap);
  ArenaBlock b{p != nullptr ? p : heap_new(cap), cap};
  AllocStats::global().on_alloc(cap * sizeof(double));
  g_bytes_live.fetch_add(static_cast<std::int64_t>(cap * sizeof(double)),
                         std::memory_order_relaxed);
  publish_gauges();
  return b;
}

void Arena::release(ArenaBlock&& b) {
  if (b.ptr == nullptr) return;
  const std::size_t bytes = b.capacity * sizeof(double);
  g_bytes_live.fetch_sub(static_cast<std::int64_t>(bytes),
                         std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    pool_[b.capacity].push_back(b.ptr);
    bytes_pooled_ += bytes;
  }
  g_bytes_pooled.fetch_add(static_cast<std::int64_t>(bytes),
                           std::memory_order_relaxed);
  recycle_counter().add(1);
  publish_gauges();
  b.ptr = nullptr;
  b.capacity = 0;
}

void Arena::trim() {
  std::lock_guard<std::mutex> lock(mu_);
  SpareBlocks& s = spares();
  std::lock_guard<std::mutex> spare_lock(s.mu);
  // enzo-lint: allow(determinism-unordered-iteration) one spare list per capacity; order unobservable
  for (auto& [cap, blocks] : pool_) {
    auto& spare = s.by_capacity[cap];
    spare.insert(spare.end(), blocks.begin(), blocks.end());
    for (std::size_t i = 0; i < blocks.size(); ++i)
      AllocStats::global().on_free(cap * sizeof(double));
    g_bytes_pooled.fetch_sub(
        static_cast<std::int64_t>(blocks.size() * cap * sizeof(double)),
        std::memory_order_relaxed);
    blocks.clear();
  }
  pool_.clear();
  bytes_pooled_ = 0;
  publish_gauges();
}

std::size_t Arena::bytes_pooled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_pooled_;
}

ArenaBlock Arena::heap_acquire(std::size_t doubles) {
  const std::size_t cap = doubles == 0 ? 1 : doubles;
  ArenaBlock b{heap_new(cap), cap};
  AllocStats::global().on_alloc(cap * sizeof(double));
  return b;
}

void Arena::heap_release(ArenaBlock&& b) {
  if (b.ptr == nullptr) return;
  heap_delete(b.ptr);
  AllocStats::global().on_free(b.capacity * sizeof(double));
  b.ptr = nullptr;
  b.capacity = 0;
}

Arena& Arena::scratch() {
  // ~Arena trims into AllocStats and publishes the arena.* gauges to the
  // registry: construct both first, so that they outlive this arena even
  // when a solver's scratch is the process's first arena user.
  (void)AllocStats::global();
  (void)perf::Registry::global();
  static Arena a;
  return a;
}

}  // namespace enzo::util
