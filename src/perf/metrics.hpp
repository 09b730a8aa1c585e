#pragma once
// Metrics registry: named counters, gauges, and log-scale histograms behind
// one process-wide Registry.
//
// Solvers record the churn statistics §5 of the paper reports alongside the
// timing table — cells updated, ghost cells filled, chemistry subcycles,
// hierarchy rebuilds and the grids they create, transport bytes — together
// with its two run totals: the analytic flop estimates (`flops.<component>`
// and `flops.total` counters, util/flops.hpp) and the heap-block traffic
// of util::Arena (`alloc.*` counters and gauges).  One
// Registry::global().snapshot() captures everything a bench or diagnostics
// record needs.
//
// Lookup by name takes a mutex; instruments themselves are lock-free atomics
// with stable addresses, so hot paths should cache the reference:
//
//   static perf::Counter& c = perf::Registry::global().counter("hydro.cells");
//   c.add(n);

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace enzo::perf {

/// Monotonically increasing count (resettable between run segments).
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous value.  set() overwrites it; add() and raise_to() update
/// it in place without a lock (a compare-and-swap loop on its bits).
class Gauge {
 public:
  void set(double v) { bits_.store(pack(v), std::memory_order_relaxed); }
  double value() const { return unpack(bits_.load(std::memory_order_relaxed)); }
  void reset() { set(0.0); }
  /// Adds `d` and returns the value this add produced.
  double add(double d) {
    std::uint64_t b = bits_.load(std::memory_order_relaxed);
    double next;
    do {
      next = unpack(b) + d;
    } while (!bits_.compare_exchange_weak(b, pack(next),
                                          std::memory_order_relaxed));
    return next;
  }
  /// Raises the value to `v` unless it already is at least `v`, so
  /// concurrent raises keep the largest (a running peak).
  void raise_to(double v) {
    std::uint64_t b = bits_.load(std::memory_order_relaxed);
    while (unpack(b) < v && !bits_.compare_exchange_weak(
                                b, pack(v), std::memory_order_relaxed)) {
    }
  }

 private:
  static std::uint64_t pack(double v) {
    std::uint64_t b;
    static_assert(sizeof(b) == sizeof(v));
    __builtin_memcpy(&b, &v, sizeof(b));
    return b;
  }
  static double unpack(std::uint64_t b) {
    double v;
    __builtin_memcpy(&v, &b, sizeof(v));
    return v;
  }
  std::atomic<std::uint64_t> bits_{0};
};

/// Log₂-scale histogram of non-negative integer samples.  Bucket 0 holds
/// exact zeros; bucket i (1 ≤ i < kBuckets-1) holds [2^(i-1), 2^i); the last
/// bucket absorbs everything at or beyond 2^(kBuckets-2) (overflow).
class Histogram {
 public:
  static constexpr int kBuckets = 40;

  void observe(std::uint64_t v);
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(int i) const {
    return buckets_[static_cast<std::size_t>(i)].load(
        std::memory_order_relaxed);
  }
  /// Bucket index a value lands in (exposed for tests).
  static int bucket_of(std::uint64_t v);
  /// Inclusive lower bound of bucket i (0 for the zeros bucket).
  static std::uint64_t bucket_lo(int i);
  void reset();

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

class Registry {
 public:
  /// Find-or-create; returned references stay valid for the registry's
  /// lifetime (instruments are never destroyed, only reset).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// One snapshot row.  Histograms expand to `<name>.count` / `<name>.sum`
  /// rows plus per-bucket rows in the JSON export.
  struct Sample {
    std::string name;
    std::string kind;  ///< "counter" | "gauge" | "histogram"
    double value = 0.0;
  };

  /// Flat snapshot of every instrument.
  std::vector<Sample> snapshot() const;
  /// Snapshot as a JSON object {name: value, ...} (histograms expanded;
  /// bucket rows included only for non-empty buckets).
  std::string json() const;

  /// Reset every instrument.  Only for local registries: the global one
  /// holds running sums (the arena's live-byte gauges) that a reset breaks.
  void reset();

  static Registry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace enzo::perf
