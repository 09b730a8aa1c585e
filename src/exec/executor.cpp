#include "exec/executor.hpp"

#include "util/annotations.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>

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

/// Lane of the current thread inside a ThreadPoolExecutor: workers get their
/// slot at startup, every external thread (the driver) is lane 0.
thread_local int t_slot = 0;

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

struct ThreadPoolExecutor::Impl {
  /// One in-flight for_each/parallel_for batch.  Tasks of a cancelled group
  /// are still popped and retired (so queues drain) but their body is
  /// skipped; the first exception wins.
  struct Group {
    std::size_t remaining = 0;
    std::exception_ptr error;
    bool cancelled = false;
  };
  struct Task {
    Group* group;
    std::function<void()> body;
  };

  // One mutex/condvar guards every queue and group.  Tasks are whole grids
  // (or large cell chunks), so queue traffic is orders of magnitude cheaper
  // than the work it dispatches; coarse locking keeps the pool trivially
  // TSan-clean.
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::deque<Task>> queues;
  std::vector<std::thread> workers;
  bool stop = false;
  std::uint64_t steals = 0;
  std::uint64_t tasks_run = 0;
  int lanes = 1;

  /// Pop-and-run one task visible to `slot` — own queue from the front
  /// (biggest seeded work first), other queues from the back (classic
  /// steal).  When `only` is set (a drain waiting on its own group), tasks
  /// of other groups are left alone so nested batches stay leaf-only.
  /// Called and returns with `lk` held; unlocks around the task body.
  bool try_run_one(std::unique_lock<std::mutex>& lk, int slot, Group* only) {
    Task t;
    int src = -1;
    auto take_from = [&](int q) {
      auto& dq = queues[static_cast<std::size_t>(q)];
      if (q == slot) {
        for (auto it = dq.begin(); it != dq.end(); ++it)
          if (only == nullptr || it->group == only) {
            t = std::move(*it);
            dq.erase(it);
            src = q;
            return;
          }
      } else {
        for (auto it = dq.rbegin(); it != dq.rend(); ++it)
          if (only == nullptr || it->group == only) {
            t = std::move(*it);
            dq.erase(std::next(it).base());
            src = q;
            return;
          }
      }
    };
    take_from(slot);
    for (int q = 0; src < 0 && q < lanes; ++q)
      if (q != slot) take_from(q);
    if (src < 0) return false;

    Group* g = t.group;
    const bool skip = g->cancelled;
    std::exception_ptr err;
    if (!skip) {
      lk.unlock();
      try {
        t.body();
      } catch (...) {
        err = std::current_exception();
      }
      lk.lock();
      ++tasks_run;
      if (src != slot) {
        ++steals;
        static perf::Counter& c = perf::Registry::global().counter("exec.steals");
        c.add(1);
      }
    }
    if (err) {
      if (!g->error) g->error = err;
      g->cancelled = true;
    }
    if (--g->remaining == 0) cv.notify_all();
    return true;
  }

  void worker_main(int slot) {
    t_slot = slot;
    std::unique_lock<std::mutex> lk(mu);
    while (true) {
      if (try_run_one(lk, slot, nullptr)) continue;
      if (stop) return;
      cv.wait(lk);
    }
  }

  /// Block until every task of `g` has retired, helping with this group's
  /// queued tasks while waiting.  Rethrows the group's first exception.
  void drain(std::unique_lock<std::mutex>& lk, Group& g) {
    while (g.remaining != 0) {
      if (!try_run_one(lk, t_slot, &g)) cv.wait(lk);
    }
    if (g.error) {
      std::exception_ptr err = g.error;
      lk.unlock();
      std::rethrow_exception(err);
    }
  }
};

ThreadPoolExecutor::ThreadPoolExecutor(int threads)
    : impl_(std::make_unique<Impl>()) {
  int lanes = threads;
  if (lanes <= 0) lanes = static_cast<int>(std::thread::hardware_concurrency());
  if (lanes < 1) lanes = 1;
  lanes_ = lanes;
  impl_->lanes = lanes;
  impl_->queues.resize(static_cast<std::size_t>(lanes));
  impl_->workers.reserve(static_cast<std::size_t>(lanes - 1));
  for (int s = 1; s < lanes; ++s)
    impl_->workers.emplace_back([this, s] { impl_->worker_main(s); });
}

ThreadPoolExecutor::~ThreadPoolExecutor() {
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->stop = true;
  }
  impl_->cv.notify_all();
  for (auto& w : impl_->workers) w.join();
}

std::uint64_t ThreadPoolExecutor::steals() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->steals;
}

std::uint64_t ThreadPoolExecutor::tasks_run() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->tasks_run;
}

void ThreadPoolExecutor::run_tasks(std::size_t n, const TaskFn& fn,
                                   const CostFn& cost) {
  Impl& im = *impl_;
  // Seed in descending cost order, round-robin across lanes, so the biggest
  // grids start first on distinct lanes and the tail load-balances by
  // stealing.  Scheduling order never affects results (tasks are
  // independent), so the sort needs no determinism guarantees beyond
  // stability for reproducible traces.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (cost) {
    std::vector<std::uint64_t> c(n);
    for (std::size_t i = 0; i < n; ++i) c[i] = cost(i);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return c[a] > c[b]; });
  }
  Impl::Group g;
  g.remaining = n;
  std::unique_lock<std::mutex> lk(im.mu);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = order[k];
    const auto q = static_cast<std::size_t>(
        (static_cast<std::size_t>(t_slot) + k) % static_cast<std::size_t>(im.lanes));
    im.queues[q].push_back(Impl::Task{&g, [&fn, i] { fn(i); }});
  }
  im.cv.notify_all();
  im.drain(lk, g);
}

void ThreadPoolExecutor::parallel_for(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  PhaseDepthGuard depth;
  Impl& im = *impl_;
  if (grain == 0) grain = 1;
  // Cap chunk count at a small multiple of the lane count: enough slack for
  // stealing to balance, little enough that per-chunk overhead stays noise.
  const auto max_chunks = static_cast<std::size_t>(im.lanes) * 4;
  const std::size_t chunk =
      std::max(grain, (n + max_chunks - 1) / max_chunks);
  const std::size_t nchunks = (n + chunk - 1) / chunk;
  if (im.lanes == 1 || nchunks <= 1) {
    fn(0, n);
    return;
  }
  Impl::Group g;
  g.remaining = nchunks;
  std::unique_lock<std::mutex> lk(im.mu);
  for (std::size_t c = 0; c < nchunks; ++c) {
    const std::size_t b = c * chunk;
    const std::size_t e = std::min(n, b + chunk);
    const auto q = static_cast<std::size_t>(
        (static_cast<std::size_t>(t_slot) + c) % static_cast<std::size_t>(im.lanes));
    im.queues[q].push_back(Impl::Task{&g, [&fn, b, e] { fn(b, e); }});
  }
  im.cv.notify_all();
  im.drain(lk, g);
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
