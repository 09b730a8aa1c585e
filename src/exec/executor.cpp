#include "exec/executor.hpp"

#include "util/annotations.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <numeric>
#include <thread>

#include "perf/metrics.hpp"
#include "perf/trace.hpp"
#include "util/error.hpp"

namespace enzo::exec {

namespace {

std::atomic<int> g_phase_depth{0};

struct PhaseDepthGuard {
  PhaseDepthGuard() { g_phase_depth.fetch_add(1, std::memory_order_relaxed); }
  ~PhaseDepthGuard() { g_phase_depth.fetch_sub(1, std::memory_order_relaxed); }
};

/// Batches that can be open at once (one bit each in Impl::occupied).  A
/// call that finds every slot taken runs its chunks on the caller alone.
constexpr int kSlots = 64;
/// Pauses an idle worker spins through, watching for a new batch, before it
/// parks on the condition variable: ~45 µs on the 4-vCPU Xeon of the
/// benchmark runs, long enough to catch the next phase of a step, short
/// enough that spinning lanes do not slow the caller's serial work between
/// phases (with 4× the budget, serial rows of a traced cosmology step ran
/// 10–35 % slower on that machine).
constexpr int kSpinPauses = 1 << 11;
/// Every spin-wait yields its CPU once per this many pauses, so that lanes
/// sharing one CPU never starve the lane that holds the work.
constexpr int kPausesPerYield = 32;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// One step of a spin-wait: a pause, or every kPausesPerYield-th step a
/// yield.
struct Backoff {
  int n = 0;
  void pause() {
    if (++n % kPausesPerYield == 0)
      std::this_thread::yield();
    else
      cpu_relax();
  }
};

}  // namespace

bool in_phase() { return g_phase_depth.load(std::memory_order_relaxed) > 0; }

void LevelExecutor::for_each(const Phase& phase, std::size_t n,
                             const TaskFn& fn, const CostFn& cost) {
  perf::TraceScope scope(phase.name, phase.component, phase.level);
  static perf::Counter& phases = perf::Registry::global().counter("exec.phases");
  static perf::Counter& tasks = perf::Registry::global().counter("exec.tasks");
  phases.add(1);
  tasks.add(n);
  if (n == 0) return;
  PhaseDepthGuard depth;
  run_tasks(n, fn, cost);
}

// ---------------------------------------------------------------------------
// SerialExecutor

ENZO_HOT void SerialExecutor::run_tasks(std::size_t n, const TaskFn& fn,
                                        const CostFn& /*cost*/) {
  for (std::size_t i = 0; i < n; ++i) fn(i);
}

void SerialExecutor::parallel_for(
    std::size_t n, std::size_t /*grain*/,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  PhaseDepthGuard depth;
  fn(0, n);
}

// ---------------------------------------------------------------------------
// ThreadPoolExecutor

namespace {

/// One fork-join call (a for_each phase or a parallel_for), on its caller's
/// stack.  Lanes claim chunk indices from `next` with one fetch_add each and
/// count them out in `retired`.  After the first exception the remaining
/// chunks are still claimed and retired, but their body is skipped.
struct Batch {
  Batch(void (*body)(const void*, std::size_t), const void* c, std::size_t n)
      : run(body), ctx(c), chunks(n) {}

  void (*const run)(const void* ctx, std::size_t chunk);
  const void* const ctx;
  const std::size_t chunks;
  alignas(64) std::atomic<std::size_t> next{0};
  alignas(64) std::atomic<std::size_t> retired{0};
  std::atomic<bool> cancelled{false};
  std::exception_ptr error;  ///< written by the first failing chunk only

  /// Run chunk k (already claimed).  Its retirement is the last touch of
  /// the batch: once every chunk has retired the caller may return.
  void run_chunk(std::size_t k) {
    if (!cancelled.load(std::memory_order_relaxed)) {
      try {
        run(ctx, k);
      } catch (...) {
        if (!cancelled.exchange(true, std::memory_order_acq_rel))
          error = std::current_exception();
      }
    }
    retired.fetch_add(1, std::memory_order_release);
  }
};

/// Where a batch is published while it has unclaimed chunks.  `seq` orders
/// open batches newest first; `visitors` counts lanes between reading
/// `batch` and finishing their claim, so the caller can close the slot
/// without a lane still reading a batch that has returned.
struct alignas(64) Slot {
  std::atomic<Batch*> batch{nullptr};
  std::atomic<std::uint64_t> seq{0};
  std::atomic<int> visitors{0};
};

}  // namespace

struct ThreadPoolExecutor::Impl {
  Slot slots[kSlots];
  std::atomic<std::uint64_t> occupied{0};  ///< bit s: slot s is taken
  /// Bumped by every publication: an idle worker waits for it to move.
  std::atomic<std::uint64_t> epoch{0};
  std::atomic<int> parked{0};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> chunks_run{0};
  std::mutex park_mu;
  std::condition_variable park_cv;
  std::vector<std::thread> workers;

  /// Take a free slot, or −1 when all are open.
  int take_slot() {
    std::uint64_t occ = occupied.load(std::memory_order_relaxed);
    while (occ != ~std::uint64_t{0}) {
      const int s = std::countr_one(occ);
      if (occupied.compare_exchange_weak(occ, occ | (std::uint64_t{1} << s),
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed))
        return s;
    }
    return -1;
  }

  void publish(int s, Batch& b) {
    Slot& sl = slots[s];
    sl.batch.store(&b, std::memory_order_seq_cst);
    // The epoch after the bump is also the batch's age (a scan that reads
    // the slot before the age is stored just ranks the batch older).
    sl.seq.store(epoch.fetch_add(1, std::memory_order_seq_cst) + 1,
                 std::memory_order_relaxed);
    // A worker parks only after bumping `parked` and re-reading `epoch`
    // (both seq_cst), so either it sees this batch or this poster sees it.
    if (parked.load(std::memory_order_seq_cst) > 0) {
      { std::lock_guard<std::mutex> lk(park_mu); }
      park_cv.notify_all();
    }
  }

  /// Close slot s once no lane is between reading it and claiming.
  void close(int s) {
    Slot& sl = slots[s];
    sl.batch.store(nullptr, std::memory_order_seq_cst);
    Backoff bo;
    while (sl.visitors.load(std::memory_order_seq_cst) != 0) bo.pause();
    occupied.fetch_and(~(std::uint64_t{1} << s), std::memory_order_release);
  }

  /// Claim and run one chunk of the batch open in slot s, if any is left.
  bool try_slot(Slot& sl) {
    sl.visitors.fetch_add(1, std::memory_order_seq_cst);
    Batch* b = sl.batch.load(std::memory_order_seq_cst);
    std::size_t k = 0;
    bool claimed = false;
    if (b != nullptr && b->next.load(std::memory_order_relaxed) < b->chunks) {
      k = b->next.fetch_add(1, std::memory_order_relaxed);
      claimed = k < b->chunks;
    }
    sl.visitors.fetch_sub(1, std::memory_order_release);
    // A claimed chunk keeps its batch alive until it retires.
    if (claimed) b->run_chunk(k);
    return claimed;
  }

  /// Run one chunk of the newest open batch that has one left.
  bool run_one() {
    std::uint64_t occ = occupied.load(std::memory_order_acquire);
    while (occ != 0) {
      int best = -1;
      std::uint64_t best_seq = 0;
      for (std::uint64_t m = occ; m != 0; m &= m - 1) {
        const int s = std::countr_zero(m);
        const std::uint64_t q = slots[s].seq.load(std::memory_order_relaxed);
        if (best < 0 || q > best_seq) {
          best = s;
          best_seq = q;
        }
      }
      if (try_slot(slots[best])) return true;
      occ &= ~(std::uint64_t{1} << best);
    }
    return false;
  }

  void worker_main() {
    while (true) {
      const std::uint64_t seen = epoch.load(std::memory_order_seq_cst);
      if (run_one()) continue;
      if (stop.load(std::memory_order_acquire)) return;
      Backoff bo;
      while (bo.n < kSpinPauses &&
             epoch.load(std::memory_order_relaxed) == seen)
        bo.pause();
      if (epoch.load(std::memory_order_seq_cst) != seen) continue;
      std::unique_lock<std::mutex> lk(park_mu);
      parked.fetch_add(1, std::memory_order_seq_cst);
      while (epoch.load(std::memory_order_seq_cst) == seen) park_cv.wait(lk);
      parked.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  /// Fork-join: publish the batch, work its chunks on the caller (and only
  /// its chunks, so a nested call never picks up an unrelated phase), close
  /// the slot once every chunk is claimed, then wait for the lanes still
  /// running one.  Rethrows the batch's first exception.
  void run(Batch& b) {
    const int s = take_slot();
    if (s >= 0) publish(s, b);
    for (std::size_t k; (k = b.next.fetch_add(1, std::memory_order_relaxed)) <
                        b.chunks;)
      b.run_chunk(k);
    if (s >= 0) close(s);
    Backoff bo;
    while (b.retired.load(std::memory_order_acquire) != b.chunks) bo.pause();
    chunks_run.fetch_add(b.chunks, std::memory_order_relaxed);
    if (b.error) std::rethrow_exception(b.error);
  }
};

ThreadPoolExecutor::ThreadPoolExecutor(int threads)
    : impl_(std::make_unique<Impl>()) {
  int lanes = threads;
  if (lanes <= 0) lanes = static_cast<int>(std::thread::hardware_concurrency());
  if (lanes < 1) lanes = 1;
  lanes_ = lanes;
  impl_->workers.reserve(static_cast<std::size_t>(lanes - 1));
  for (int s = 1; s < lanes; ++s)
    impl_->workers.emplace_back([this] { impl_->worker_main(); });
}

ThreadPoolExecutor::~ThreadPoolExecutor() {
  impl_->stop.store(true, std::memory_order_release);
  impl_->epoch.fetch_add(1, std::memory_order_seq_cst);
  { std::lock_guard<std::mutex> lk(impl_->park_mu); }
  impl_->park_cv.notify_all();
  for (auto& w : impl_->workers) w.join();
}

std::uint64_t ThreadPoolExecutor::tasks_run() const {
  return impl_->chunks_run.load(std::memory_order_relaxed);
}

void ThreadPoolExecutor::run_tasks(std::size_t n, const TaskFn& fn,
                                   const CostFn& cost) {
  if (n == 1 || lanes_ == 1) {
    // Nothing to hand off: run in place, as the serial backend does.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    impl_->chunks_run.fetch_add(n, std::memory_order_relaxed);
    return;
  }
  // Chunk k runs the k-th costliest task, so the biggest grids start first
  // and the cheap ones fill in behind them (greedy list scheduling).  Tasks
  // are independent, so the order never changes a result; the stable sort
  // only keeps traces reproducible.
  std::vector<std::size_t> order;
  if (cost) {
    std::vector<std::uint64_t> c(n);
    for (std::size_t i = 0; i < n; ++i) c[i] = cost(i);
    order.resize(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return c[a] > c[b]; });
  }
  struct Ctx {
    const TaskFn& fn;
    const std::size_t* order;
  } ctx{fn, order.empty() ? nullptr : order.data()};
  Batch b(
      [](const void* c, std::size_t k) {
        const Ctx& x = *static_cast<const Ctx*>(c);
        x.fn(x.order != nullptr ? x.order[k] : k);
      },
      &ctx, n);
  impl_->run(b);
}

void ThreadPoolExecutor::parallel_for(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  PhaseDepthGuard depth;
  if (grain == 0) grain = 1;
  // At most 4 chunks per lane: enough slack for uneven chunks to balance,
  // few enough that the per-chunk claim stays noise.
  const auto max_chunks = static_cast<std::size_t>(lanes_) * 4;
  const std::size_t chunk =
      std::max(grain, (n + max_chunks - 1) / max_chunks);
  const std::size_t nchunks = (n + chunk - 1) / chunk;
  if (lanes_ == 1 || nchunks <= 1) {
    fn(0, n);
    return;
  }
  struct Ctx {
    const std::function<void(std::size_t, std::size_t)>& fn;
    std::size_t n, chunk;
  } ctx{fn, n, chunk};
  Batch b(
      [](const void* c, std::size_t k) {
        const Ctx& x = *static_cast<const Ctx*>(c);
        const std::size_t lo = k * x.chunk;
        x.fn(lo, std::min(x.n, lo + x.chunk));
      },
      &ctx, nchunks);
  impl_->run(b);
}

// ---------------------------------------------------------------------------

std::unique_ptr<LevelExecutor> make_executor(const ExecConfig& cfg) {
  std::unique_ptr<LevelExecutor> ex;
  switch (cfg.backend) {
    case Backend::kSerial:
      ex = std::make_unique<SerialExecutor>();
      break;
    case Backend::kThreadPool:
      ex = std::make_unique<ThreadPoolExecutor>(cfg.threads);
      break;
  }
  ENZO_REQUIRE(ex != nullptr, "unknown executor backend");
  perf::Registry::global().gauge("exec.threads").set(ex->threads());
  return ex;
}

SerialExecutor& serial_executor() {
  static SerialExecutor ex;
  return ex;
}

}  // namespace enzo::exec
