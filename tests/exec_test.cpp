// LevelExecutor engine tests: completeness and ordering of both backends,
// exception propagation with pool reuse (also out of a nested chunk), load
// balance under skewed costs, nested parallel_for from every lane at once,
// many back-to-back small batches, bit-identical ordered reductions, and the
// hierarchy invalidation contract (no rebuild inside a phase).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/executor.hpp"
#include "mesh/field.hpp"
#include "mesh/hierarchy.hpp"
#include "util/error.hpp"

using namespace enzo;
using exec::Backend;
using exec::LevelExecutor;
using exec::Phase;
using exec::SerialExecutor;
using exec::ThreadPoolExecutor;

namespace {
constexpr Phase kPhase{"test_phase", nullptr, 0};
}  // namespace

TEST(SerialExecutorTest, RunsAllIndicesInOrder) {
  SerialExecutor ex;
  std::vector<std::size_t> order;
  ex.for_each(kPhase, 8, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(SerialExecutorTest, CostFunctionDoesNotAffectOrder) {
  SerialExecutor ex;
  std::vector<std::size_t> order;
  ex.for_each(
      kPhase, 4, [&](std::size_t i) { order.push_back(i); },
      [](std::size_t i) { return 100u - i; });
  ASSERT_EQ(order.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(order[i], i);
}

TEST(SerialExecutorTest, EmptyPhaseIsANoop) {
  SerialExecutor ex;
  ex.for_each(kPhase, 0,
              [&](std::size_t) { FAIL() << "task ran for empty phase"; });
  EXPECT_FALSE(exec::in_phase());
}

TEST(SerialExecutorTest, ExceptionPropagates) {
  SerialExecutor ex;
  EXPECT_THROW(ex.for_each(kPhase, 4,
                           [&](std::size_t i) {
                             if (i == 2) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  EXPECT_FALSE(exec::in_phase());
}

TEST(ThreadPoolExecutorTest, RunsEveryIndexExactlyOnce) {
  ThreadPoolExecutor ex(4);
  EXPECT_EQ(ex.backend(), Backend::kThreadPool);
  EXPECT_GE(ex.threads(), 1);
  std::vector<std::atomic<int>> hits(64);
  ex.for_each(kPhase, hits.size(), [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_GE(ex.tasks_run(), 64u);
}

TEST(ThreadPoolExecutorTest, EmptyPhaseIsANoop) {
  ThreadPoolExecutor ex(4);
  ex.for_each(kPhase, 0,
              [&](std::size_t) { FAIL() << "task ran for empty phase"; });
  EXPECT_EQ(ex.tasks_run(), 0u);
}

TEST(ThreadPoolExecutorTest, ExceptionPropagatesAndPoolStaysUsable) {
  ThreadPoolExecutor ex(4);
  EXPECT_THROW(ex.for_each(kPhase, 32,
                           [&](std::size_t i) {
                             if (i == 7) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  EXPECT_FALSE(exec::in_phase());
  // The pool must drain the failed phase completely and accept new work.
  std::atomic<int> ran{0};
  ex.for_each(kPhase, 16, [&](std::size_t) { ran++; });
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPoolExecutorTest, StealsUnderSkewedCosts) {
  ThreadPoolExecutor ex(2);
  if (ex.threads() < 2) GTEST_SKIP() << "no worker lane available";
  // Task 0 is by far the most expensive, so it is the first chunk of the
  // batch.  Whichever lane takes it sits in it for 100 ms, and the other
  // lane must run every cheap task meanwhile.
  std::atomic<int> ran{0};
  std::vector<std::thread::id> ran_on(16);
  ex.for_each(
      kPhase, 16,
      [&](std::size_t i) {
        ran_on[i] = std::this_thread::get_id();
        if (i == 0)
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        ran++;
      },
      [](std::size_t i) { return i == 0 ? 1000000u : 1u; });
  EXPECT_EQ(ran.load(), 16);
  for (std::size_t i = 1; i < 16; ++i)
    EXPECT_NE(ran_on[i], ran_on[0])
        << "cheap task " << i << " waited behind the costly one";
}

TEST(ThreadPoolExecutorTest, ParallelForCoversRangeOnce) {
  ThreadPoolExecutor ex(4);
  std::vector<std::atomic<int>> hits(1000);
  ex.parallel_for(hits.size(), 8, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolExecutorTest, NestedParallelForInsideTask) {
  // The step_grids pattern: a per-grid task runs an intra-grid
  // parallel_for on the same pool (leaf drain, no deadlock).
  ThreadPoolExecutor ex(4);
  std::atomic<std::int64_t> sum{0};
  ex.for_each(kPhase, 3, [&](std::size_t) {
    ex.parallel_for(100, 1, [&](std::size_t b, std::size_t e) {
      std::int64_t local = 0;
      for (std::size_t i = b; i < e; ++i) local += static_cast<std::int64_t>(i);
      sum += local;
    });
  });
  EXPECT_EQ(sum.load(), 3 * (99 * 100 / 2));
}

TEST(ThreadPoolExecutorTest, NestedParallelForFromEveryLaneAtOnce) {
  // Every lane runs an outer task that opens its own nested batch, so
  // several batches are open together and idle lanes serve the newest.
  ThreadPoolExecutor ex(4);
  constexpr std::size_t kOuter = 16, kInner = 1000;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  for (int rep = 0; rep < 20; ++rep) {
    ex.for_each(kPhase, kOuter, [&](std::size_t o) {
      ex.parallel_for(kInner, 1, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) hits[o * kInner + i]++;
      });
    });
  }
  for (auto& h : hits) EXPECT_EQ(h.load(), 20);
  EXPECT_FALSE(exec::in_phase());
}

TEST(ThreadPoolExecutorTest, NestedExceptionReachesTheOuterCaller) {
  ThreadPoolExecutor ex(4);
  EXPECT_THROW(ex.for_each(kPhase, 8,
                           [&](std::size_t o) {
                             ex.parallel_for(64, 1, [&](std::size_t b,
                                                        std::size_t e) {
                               for (std::size_t i = b; i < e; ++i)
                                 if (o == 5 && i == 40)
                                   throw std::runtime_error("nested boom");
                             });
                           }),
               std::runtime_error);
  EXPECT_FALSE(exec::in_phase());
  // The pool still runs work, nested included.
  std::atomic<int> ran{0};
  ex.for_each(kPhase, 8, [&](std::size_t) {
    ex.parallel_for(64, 1, [&](std::size_t b, std::size_t e) {
      ran += static_cast<int>(e - b);
    });
  });
  EXPECT_EQ(ran.load(), 8 * 64);
}

TEST(ThreadPoolExecutorTest, ManySmallBatchesCoverEveryIndexOnce) {
  // Back-to-back batches with tiny chunks: the hand-off between one batch
  // and the next must never lose or repeat a chunk.
  for (int lanes : {2, 3, 4, 8}) {
    ThreadPoolExecutor ex(lanes);
    std::vector<int> hits(37);
    for (int rep = 0; rep < 10000; ++rep) {
      const std::size_t n = 1 + static_cast<std::size_t>(rep) % hits.size();
      ex.parallel_for(n, 1, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) hits[i]++;
      });
    }
    std::vector<int> want(hits.size(), 0);
    for (int rep = 0; rep < 10000; ++rep)
      for (std::size_t i = 0; i < 1 + static_cast<std::size_t>(rep) % hits.size();
           ++i)
        want[i]++;
    EXPECT_EQ(hits, want) << lanes << " lanes";
  }
}

TEST(ExecutorTest, ReduceOrderedIsBitIdenticalAcrossBackends) {
  // Left-to-right FP sums depend on combining order; reduce_ordered promises
  // the serial order at any thread count.
  auto map = [](std::size_t i) {
    return std::sin(static_cast<double>(i) * 0.7) * 1e-3 +
           1.0 / (static_cast<double>(i) + 1.0);
  };
  auto fold = [](double acc, double v) { return acc + v; };
  SerialExecutor serial;
  const double want = serial.reduce_ordered(kPhase, 257, 0.0, map, fold);
  ThreadPoolExecutor pool(4);
  for (int rep = 0; rep < 4; ++rep) {
    const double got = pool.reduce_ordered(kPhase, 257, 0.0, map, fold);
    EXPECT_EQ(want, got);  // bitwise, not approximate
  }
}

TEST(ExecutorTest, MakeExecutorRespectsBackend) {
  exec::ExecConfig cfg;
  cfg.backend = Backend::kSerial;
  EXPECT_EQ(exec::make_executor(cfg)->backend(), Backend::kSerial);
  cfg.backend = Backend::kThreadPool;
  cfg.threads = 3;
  auto ex = exec::make_executor(cfg);
  EXPECT_EQ(ex->backend(), Backend::kThreadPool);
  EXPECT_EQ(ex->threads(), 3);
}

TEST(ExecutorHierarchyContract, RebuildInsidePhaseThrows) {
  mesh::HierarchyParams p;
  p.root_dims = {8, 8, 8};
  p.max_level = 1;
  mesh::Hierarchy h(p);
  h.build_root();
  SerialExecutor ex;
  EXPECT_THROW(
      ex.for_each(kPhase, 1,
                  [&](std::size_t) {
                    h.rebuild(1, [](const mesh::Grid&,
                                    std::vector<mesh::Index3>&) {});
                  }),
      enzo::Error);
  // Outside a phase the same rebuild is legal.
  h.rebuild(1, [](const mesh::Grid&, std::vector<mesh::Index3>&) {});
}

TEST(ExecutorHierarchyContract, GenerationCountsMutations) {
  mesh::HierarchyParams p;
  p.root_dims = {8, 8, 8};
  p.max_level = 1;
  mesh::Hierarchy h(p);
  const std::uint64_t g0 = h.generation();
  h.build_root();
  EXPECT_GT(h.generation(), g0);
  const std::uint64_t g1 = h.generation();
  h.rebuild(1, [](const mesh::Grid&, std::vector<mesh::Index3>&) {});
  EXPECT_GT(h.generation(), g1);
}
