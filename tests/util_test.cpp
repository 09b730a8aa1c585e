// Unit tests for the util module: ArrayView3 and Buffer3, RNG, flop
// accounting and the gauge arithmetic allocation accounting uses.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "perf/metrics.hpp"
#include "util/array3.hpp"
#include "util/error.hpp"
#include "util/flops.hpp"
#include "util/rng.hpp"

namespace eu = enzo::util;

TEST(ArrayView3, IndexingIsXFastest) {
  std::vector<int> cells(24, 0);
  const eu::ArrayView3<int> a(cells.data(), 4, 3, 2);
  EXPECT_EQ(a.index(1, 0, 0), 1u);
  EXPECT_EQ(a.index(0, 1, 0), 4u);
  EXPECT_EQ(a.index(0, 0, 1), 12u);
  EXPECT_EQ(a.size(), 24u);
  EXPECT_EQ(a.stride(1), 4);
  EXPECT_EQ(a.stride(2), 12);
  a(3, 2, 1) = 7;
  EXPECT_EQ(cells[23], 7);
  EXPECT_EQ(a.row(1, 3, 2, 1), cells.data() + 21);
}

TEST(ArrayView3, FillSumMinMax) {
  eu::Buffer3 buf(3, 3, 3, 2.0);
  const eu::ArrayView3<double> a = buf.view();
  EXPECT_DOUBLE_EQ(a.sum(), 54.0);
  a(1, 1, 1) = -5.0;
  a(2, 2, 2) = 9.0;
  EXPECT_DOUBLE_EQ(a.min(), -5.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
  // A read-only view of the same buffer sees the same cells.
  const eu::ArrayView3<const double> c = std::as_const(buf).view();
  EXPECT_DOUBLE_EQ(c(2, 2, 2), 9.0);
  std::vector<int> cells(8, 0);
  const eu::ArrayView3<int> v(cells.data(), 2, 2, 2);
  v.fill(3);
  v(1, 0, 1) = -4;
  EXPECT_EQ(v.sum(), 17);
  EXPECT_EQ(v.min(), -4);
  EXPECT_EQ(v.max(), 3);
}

TEST(ArrayView3, AddWithScale) {
  eu::Buffer3 a(2, 2, 1, 1.0), b(2, 2, 1, 3.0);
  a.view().add(b.view(), 0.5);
  for (int j = 0; j < 2; ++j)
    for (int i = 0; i < 2; ++i) EXPECT_DOUBLE_EQ(a.view()(i, j, 0), 2.5);
}

TEST(ArrayView3, ShapeMismatchThrows) {
  eu::Buffer3 a(2, 2, 2), b(2, 2, 1);
  EXPECT_THROW(a.view().add(b.view()), enzo::Error);
}

TEST(ArrayView3, AtBoundsCheck) {
  std::vector<int> cells(8, 0);
  const eu::ArrayView3<int> a(cells.data(), 2, 2, 2);
  EXPECT_NO_THROW(a.at(1, 1, 1));
  EXPECT_THROW(a.at(2, 0, 0), enzo::Error);
  EXPECT_THROW(a.at(0, -1, 0), enzo::Error);
}

TEST(ArrayView3, NegativeIndexCannotAliasValidCell) {
  // (2,-1,1) flattens to offset 2 + 4*(-1 + 4*1) = 14, which is inside the
  // array: a purely offset-based check would silently alias cell 14.
  // The checked accessor must reject each coordinate on its own sign.
  eu::Buffer3 buf(4, 4, 4);
  const eu::ArrayView3<double> a = buf.view();
  EXPECT_EQ(a.index(2, -1, 1), 14u);
  EXPECT_FALSE(a.contains(2, -1, 1));
  EXPECT_THROW(a.at(2, -1, 1), enzo::Error);
  EXPECT_THROW(a.at(-2, 1, 1), enzo::Error);
  EXPECT_THROW(a.at(1, 1, -1), enzo::Error);
}

TEST(ArrayView3, DegenerateDimensionsWork) {
  eu::Buffer3 line(8, 1, 1, 1.0);
  EXPECT_EQ(line.view().size(), 8u);
  EXPECT_DOUBLE_EQ(line.view().sum(), 8.0);
  std::vector<int> cells(16, 1);
  const eu::ArrayView3<int> plane(cells.data(), 4, 4, 1);
  EXPECT_EQ(plane.size(), 16u);
  EXPECT_EQ(plane.stride(2), 16);
  EXPECT_EQ(plane.sum(), 16);
  EXPECT_TRUE(eu::ArrayView3<int>().empty());
}

TEST(Buffer3, CopyAndMoveKeepShapeAndBytes) {
  eu::Buffer3 a(3, 2, 5);
  for (std::size_t n = 0; n < a.size(); ++n)
    a.data()[n] = 0.25 * static_cast<double>(n) - 3.0;
  a.data()[4] = -0.0;  // compared by bytes, so the sign must survive
  const auto same_bytes = [](const eu::Buffer3& x, const eu::Buffer3& y) {
    return x.view().same_shape(y.view()) &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  };

  eu::Buffer3 copy(1, 1, 1, 9.0);  // too small: copy_from takes a new block
  copy.copy_from(a);
  EXPECT_NE(copy.data(), a.data());
  EXPECT_TRUE(same_bytes(copy, a));

  const double* block = a.data();
  eu::Buffer3 moved(std::move(a));
  EXPECT_EQ(moved.data(), block);
  EXPECT_TRUE(same_bytes(moved, copy));
  // NOLINTNEXTLINE(bugprone-use-after-move): the moved-from state is tested
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(a.capacity(), 0u);

  eu::Buffer3 assigned(2, 2, 2);
  assigned = std::move(moved);
  EXPECT_EQ(assigned.data(), block);
  EXPECT_TRUE(same_bytes(assigned, copy));
  // NOLINTNEXTLINE(bugprone-use-after-move): the moved-from state is tested
  EXPECT_TRUE(moved.empty());
  EXPECT_EQ(moved.data(), nullptr);
}

TEST(Rng, Deterministic) {
  eu::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformRange) {
  eu::Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, GaussianMoments) {
  eu::Rng r(123);
  const int n = 200000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const double g = r.gaussian();
    sum += g;
    sum2 += g * g;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.02);
}

TEST(Rng, DifferentSeedsDiffer) {
  eu::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(ComponentFlops, AccumulatePerComponent) {
  enzo::perf::Registry reg;
  eu::ComponentFlops hydro("hydro", reg), fft("fft", reg);
  hydro.add(100);
  hydro.add(50);
  fft.add(10);
  EXPECT_EQ(reg.counter("flops.hydro").value(), 150u);
  EXPECT_EQ(reg.counter("flops.fft").value(), 10u);
  EXPECT_EQ(reg.counter("flops.total").value(), 160u);
  reg.reset();
  EXPECT_EQ(reg.counter("flops.total").value(), 0u);
}

TEST(AllocGauges, TrackPeakAndLive) {
  // The alloc.* arithmetic of util::Arena: an allocation raises the peak to
  // the live value its add returns; a free only lowers the live value.
  enzo::perf::Registry reg;
  enzo::perf::Counter& allocations = reg.counter("alloc.allocations");
  enzo::perf::Counter& frees = reg.counter("alloc.frees");
  enzo::perf::Counter& total = reg.counter("alloc.total_bytes");
  enzo::perf::Gauge& live = reg.gauge("alloc.live_bytes");
  enzo::perf::Gauge& peak = reg.gauge("alloc.peak_bytes");
  const auto on_alloc = [&](double bytes) {
    allocations.add(1);
    peak.raise_to(live.add(bytes));
    total.add(static_cast<std::uint64_t>(bytes));
  };
  on_alloc(100);
  on_alloc(200);
  EXPECT_EQ(live.value(), 300.0);
  EXPECT_EQ(peak.value(), 300.0);
  frees.add(1);
  EXPECT_EQ(live.add(-200), 100.0);
  EXPECT_EQ(peak.value(), 300.0);
  on_alloc(50);
  EXPECT_EQ(allocations.value(), 3u);
  EXPECT_EQ(frees.value(), 1u);
  EXPECT_EQ(total.value(), 350u);
  EXPECT_EQ(peak.value(), 300.0);
}

TEST(Error, RequireMacroThrowsWithContext) {
  try {
    ENZO_REQUIRE(1 == 2, "math is broken");
    FAIL() << "should have thrown";
  } catch (const enzo::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math is broken"), std::string::npos);
  }
}
