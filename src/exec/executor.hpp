#pragma once
// The level-execution engine (§3.4): grids are the unit of work.
//
// Every per-level sweep in the driver — hydro/chemistry/N-body grid steps,
// boundary sibling fills, the multigrid solve/exchange passes, CIC deposits,
// flux-register scatter and projection — is expressed as a *phase*: a named
// batch of independent tasks submitted through LevelExecutor::for_each.
// Two backends implement the API:
//
//   * SerialExecutor     — runs tasks inline in index order; bit-identical
//                          to the historical serial loops.
//   * ThreadPoolExecutor — a persistent work-stealing pool.  Tasks are
//                          seeded round-robin in descending cost order (the
//                          cost model rides on the PR-1 metrics registry) so
//                          big grids schedule first; idle lanes steal.
//
// Determinism policy: a task may write only state it owns (its grid, or its
// own parent-group for scatter phases), so results are independent of
// execution order.  Reductions that are sensitive to combining order
// (timestep min with limiter attribution) go through reduce_ordered: the
// per-item map runs in parallel, the fold runs serially left-to-right on the
// calling thread — bit-identical to a serial loop at any thread count.
//
// Invalidation contract: the grid list a phase iterates is snapshotted by
// the caller *before* the phase; the hierarchy must not be rebuilt while a
// phase is in flight.  exec::in_phase() is true for the duration of every
// for_each/parallel_for, and mesh::Hierarchy::rebuild asserts against it.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "exec/exec_config.hpp"

namespace enzo::exec {

/// Phase tag: a name for the trace path, a perf-component attribution for
/// the §5-style tables, and the refinement level being swept.
struct Phase {
  const char* name;
  const char* component = nullptr;  ///< perf::component::*; nullptr inherits
  int level = -1;
};

/// True while any executor phase (for_each or a nested parallel_for) is
/// executing in this process.  Hierarchy mutation is forbidden inside.
bool in_phase();

class LevelExecutor {
 public:
  virtual ~LevelExecutor() = default;

  virtual Backend backend() const = 0;
  /// Execution lanes (persistent workers + the participating caller).
  virtual int threads() const = 0;

  using TaskFn = std::function<void(std::size_t)>;
  using CostFn = std::function<std::uint64_t(std::size_t)>;

  /// Run fn(0..n-1) as independent tasks and block until all complete.
  /// `cost`, when given, seeds the scheduling order (most expensive first);
  /// it never affects results.  The first exception thrown by a task is
  /// rethrown here after the remaining tasks of the phase are cancelled.
  void for_each(const Phase& phase, std::size_t n, const TaskFn& fn,
                const CostFn& cost = {});

  /// Nested data-parallel loop over [0, n), callable from inside a task
  /// (the two demoted OpenMP kernels: hydro pencils, chemistry cells).
  /// fn(begin, end) receives contiguous chunks of at least `grain` items.
  virtual void parallel_for(
      std::size_t n, std::size_t grain,
      const std::function<void(std::size_t, std::size_t)>& fn) = 0;

  /// Deterministic ordered reduction: map(i) runs as a parallel phase into
  /// per-index slots, then the fold walks the slots serially in index order
  /// on the calling thread.  Bit-identical to the serial loop
  /// `for (i) acc = fold(acc, map(i))` at any thread count.
  template <class T, class MapFn, class FoldFn>
  T reduce_ordered(const Phase& phase, std::size_t n, T init,
                   const MapFn& map, const FoldFn& fold) {
    std::vector<T> slots(n, init);
    for_each(phase, n, [&](std::size_t i) { slots[i] = map(i); });
    T acc = init;
    for (std::size_t i = 0; i < n; ++i) acc = fold(acc, slots[i]);
    return acc;
  }

 protected:
  /// Backend hook: run the tasks of one phase (phase accounting, tracing
  /// and the in-phase guard are handled by for_each).
  virtual void run_tasks(std::size_t n, const TaskFn& fn,
                         const CostFn& cost) = 0;
};

/// Inline backend: index order, calling thread, zero overhead.
class SerialExecutor final : public LevelExecutor {
 public:
  Backend backend() const override { return Backend::kSerial; }
  int threads() const override { return 1; }
  void parallel_for(
      std::size_t n, std::size_t grain,
      const std::function<void(std::size_t, std::size_t)>& fn) override;

 protected:
  void run_tasks(std::size_t n, const TaskFn& fn, const CostFn& cost) override;
};

/// Persistent work-stealing pool.  One mutex/condvar protects all queues
/// (task granularity is whole grids, so queue traffic is cheap); each lane
/// owns a deque, pops its own front (biggest seeded first) and steals from
/// other lanes' backs.  The caller participates as lane 0 while a phase is
/// in flight, so `threads == 1` degenerates to inline execution.
class ThreadPoolExecutor final : public LevelExecutor {
 public:
  /// threads: total lanes (0 → hardware concurrency).
  explicit ThreadPoolExecutor(int threads);
  ~ThreadPoolExecutor() override;

  Backend backend() const override { return Backend::kThreadPool; }
  int threads() const override { return lanes_; }
  void parallel_for(
      std::size_t n, std::size_t grain,
      const std::function<void(std::size_t, std::size_t)>& fn) override;

  /// Tasks executed from a queue other than the running lane's own.
  std::uint64_t steals() const;
  std::uint64_t tasks_run() const;

 protected:
  void run_tasks(std::size_t n, const TaskFn& fn, const CostFn& cost) override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  int lanes_ = 1;
};

/// Build the backend the config asks for.
std::unique_ptr<LevelExecutor> make_executor(const ExecConfig& cfg);

/// The process-wide serial fallback used when callers pass no executor.
SerialExecutor& serial_executor();

/// Null-tolerant helpers for optional executor parameters.
inline LevelExecutor& fallback(LevelExecutor* ex) {
  return ex != nullptr ? *ex : serial_executor();
}
inline void maybe_parallel_for(
    LevelExecutor* ex, std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (ex != nullptr)
    ex->parallel_for(n, grain, fn);
  else
    fn(0, n);
}

}  // namespace enzo::exec
