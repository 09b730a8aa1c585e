#include "util/arena.hpp"

#include <cstring>
#include <memory>
#include <new>

#include "perf/metrics.hpp"

namespace enzo::util {

namespace {

constexpr std::size_t kAlign = 64;  // SIMD / cache-line alignment

// One set of instruments for every Arena instance (one per hierarchy, plus
// scratch), so the rows describe the whole process.  arena.* is pool
// traffic; alloc.* is heap-block traffic, the blocks entering or leaving
// the pools.
struct Instruments {
  perf::Counter& pool_hits;
  perf::Counter& pool_misses;
  perf::Counter& recycled_blocks;
  perf::Gauge& bytes_live;
  perf::Gauge& bytes_pooled;
  perf::Counter& allocations;
  perf::Counter& frees;
  perf::Counter& total_bytes;
  perf::Gauge& live_bytes;
  perf::Gauge& peak_bytes;
};
Instruments& instruments() {
  perf::Registry& r = perf::Registry::global();
  static Instruments m{r.counter("arena.pool_hits"),
                       r.counter("arena.pool_misses"),
                       r.counter("arena.recycled_blocks"),
                       r.gauge("arena.bytes_live"),
                       r.gauge("arena.bytes_pooled"),
                       r.counter("alloc.allocations"),
                       r.counter("alloc.frees"),
                       r.counter("alloc.total_bytes"),
                       r.gauge("alloc.live_bytes"),
                       r.gauge("alloc.peak_bytes")};
  return m;
}

/// A block of `bytes` left the heap or the spare list.  The peak is raised
/// to the live value this block's add produced, so concurrent allocations
/// can never leave it below a live value that was reached.
void count_alloc(std::size_t bytes) {
  Instruments& m = instruments();
  m.allocations.add(1);
  m.peak_bytes.raise_to(m.live_bytes.add(static_cast<double>(bytes)));
  m.total_bytes.add(bytes);
}
/// `blocks` blocks of `bytes` each went back to the heap or the spare list.
void count_free(std::size_t blocks, std::size_t bytes) {
  Instruments& m = instruments();
  m.frees.add(blocks);
  m.live_bytes.add(-static_cast<double>(blocks * bytes));
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
  const std::size_t bytes = cap * sizeof(double);
  Instruments& m = instruments();
  m.bytes_live.add(static_cast<double>(bytes));
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pool_.find(cap);
    if (it != pool_.end() && !it->second.empty()) {
      double* p = it->second.back();
      it->second.pop_back();
      bytes_pooled_ -= bytes;
      m.bytes_pooled.add(-static_cast<double>(bytes));
      m.pool_hits.add(1);
      return {p, cap};
    }
  }
  m.pool_misses.add(1);
  double* p = take_spare(cap);
  ArenaBlock b{p != nullptr ? p : heap_new(cap), cap};
  count_alloc(bytes);
  return b;
}

void Arena::release(ArenaBlock&& b) {
  if (b.ptr == nullptr) return;
  const std::size_t bytes = b.capacity * sizeof(double);
  Instruments& m = instruments();
  m.bytes_live.add(-static_cast<double>(bytes));
  {
    std::lock_guard<std::mutex> lock(mu_);
    pool_[b.capacity].push_back(b.ptr);
    bytes_pooled_ += bytes;
  }
  m.bytes_pooled.add(static_cast<double>(bytes));
  m.recycled_blocks.add(1);
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
    const std::size_t bytes = cap * sizeof(double);
    count_free(blocks.size(), bytes);
    instruments().bytes_pooled.add(-static_cast<double>(blocks.size() * bytes));
    blocks.clear();
  }
  pool_.clear();
  bytes_pooled_ = 0;
}

std::size_t Arena::bytes_pooled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_pooled_;
}

ArenaBlock Arena::heap_acquire(std::size_t doubles) {
  const std::size_t cap = doubles == 0 ? 1 : doubles;
  ArenaBlock b{heap_new(cap), cap};
  count_alloc(cap * sizeof(double));
  return b;
}

void Arena::heap_release(ArenaBlock&& b) {
  if (b.ptr == nullptr) return;
  heap_delete(b.ptr);
  count_free(1, b.capacity * sizeof(double));
  b.ptr = nullptr;
  b.capacity = 0;
}

Arena& Arena::scratch() {
  // ~Arena trims, which posts to the registry: build the registry first, so
  // that it outlives this arena even when a solver's scratch is the
  // process's first arena user.
  (void)instruments();
  static Arena a;
  return a;
}

}  // namespace enzo::util
