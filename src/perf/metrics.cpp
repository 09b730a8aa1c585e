#include "perf/metrics.hpp"

#include "perf/json.hpp"

namespace enzo::perf {

int Histogram::bucket_of(std::uint64_t v) {
  if (v == 0) return 0;
  int b = 1;
  while (v > 1 && b < kBuckets - 1) {
    v >>= 1;
    ++b;
  }
  return b;
}

std::uint64_t Histogram::bucket_lo(int i) {
  if (i <= 0) return 0;
  return std::uint64_t{1} << (i - 1);
}

void Histogram::observe(std::uint64_t v) {
  buckets_[static_cast<std::size_t>(bucket_of(v))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::vector<Registry::Sample> Registry::snapshot() const {
  std::vector<Sample> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_)
    out.push_back({name, "counter", static_cast<double>(c->value())});
  for (auto& [name, g] : gauges_) out.push_back({name, "gauge", g->value()});
  for (auto& [name, h] : histograms_) {
    out.push_back(
        {name + ".count", "histogram", static_cast<double>(h->count())});
    out.push_back({name + ".sum", "histogram", static_cast<double>(h->sum())});
  }
  return out;
}

std::string Registry::json() const {
  std::string s = "{";
  bool first = true;
  for (const Sample& smp : snapshot()) {
    if (!first) s += ",";
    first = false;
    s += "\"" + json_escape(smp.name) + "\":" + json_number(smp.value);
  }
  // Non-empty histogram buckets, keyed by lower bound.
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, h] : histograms_) {
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      const std::uint64_t n = h->bucket(i);
      if (n == 0) continue;
      s += ",\"" + json_escape(name) + ".bucket." +
           std::to_string(Histogram::bucket_lo(i)) +
           "\":" + std::to_string(n);
    }
  }
  s += "}";
  return s;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

}  // namespace enzo::perf
