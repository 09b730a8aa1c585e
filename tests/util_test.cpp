// Unit tests for the util module: Array3, RNG, flop and allocation
// accounting.

#include <gtest/gtest.h>

#include <cmath>

#include "util/alloc_stats.hpp"
#include "util/array3.hpp"
#include "util/error.hpp"
#include "util/flops.hpp"
#include "util/rng.hpp"

namespace eu = enzo::util;

TEST(Array3, IndexingIsXFastest) {
  eu::Array3<double> a(4, 3, 2);
  EXPECT_EQ(a.index(1, 0, 0), 1u);
  EXPECT_EQ(a.index(0, 1, 0), 4u);
  EXPECT_EQ(a.index(0, 0, 1), 12u);
  EXPECT_EQ(a.size(), 24u);
}

TEST(Array3, FillSumMinMax) {
  eu::Array3<double> a(3, 3, 3, 2.0);
  EXPECT_DOUBLE_EQ(a.sum(), 54.0);
  a(1, 1, 1) = -5.0;
  a(2, 2, 2) = 9.0;
  EXPECT_DOUBLE_EQ(a.min(), -5.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
}

TEST(Array3, AddWithScale) {
  eu::Array3<double> a(2, 2, 1, 1.0), b(2, 2, 1, 3.0);
  a.add(b, 0.5);
  for (int j = 0; j < 2; ++j)
    for (int i = 0; i < 2; ++i) EXPECT_DOUBLE_EQ(a(i, j, 0), 2.5);
}

TEST(Array3, ShapeMismatchThrows) {
  eu::Array3<double> a(2, 2, 2), b(2, 2, 1);
  EXPECT_THROW(a.add(b), enzo::Error);
}

TEST(Array3, AtBoundsCheck) {
  eu::Array3<double> a(2, 2, 2);
  EXPECT_NO_THROW(a.at(1, 1, 1));
  EXPECT_THROW(a.at(2, 0, 0), enzo::Error);
  EXPECT_THROW(a.at(0, -1, 0), enzo::Error);
}

TEST(Array3, NegativeIndexCannotAliasValidCell) {
  // (2,-1,1) flattens to offset 2 + 4*(-1 + 4*1) = 14, which is inside the
  // allocation: a purely offset-based check would silently alias cell 14.
  // The checked accessor must reject each coordinate on its own sign.
  eu::Array3<double> a(4, 4, 4);
  EXPECT_EQ(a.index(2, -1, 1), 14u);
  EXPECT_FALSE(a.contains(2, -1, 1));
  EXPECT_THROW(a.at(2, -1, 1), enzo::Error);
  EXPECT_THROW(a.at(-2, 1, 1), enzo::Error);
  EXPECT_THROW(a.at(1, 1, -1), enzo::Error);
}

TEST(Array3, DegenerateDimensionsWork) {
  eu::Array3<double> line(8, 1, 1, 1.0);
  EXPECT_EQ(line.size(), 8u);
  eu::Array3<double> plane(4, 4, 1, 1.0);
  EXPECT_EQ(plane.size(), 16u);
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

TEST(FlopCounter, AccumulatesPerComponent) {
  eu::FlopCounter c;
  c.add("hydro", 100);
  c.add("hydro", 50);
  c.add("fft", 10);
  EXPECT_EQ(c.component("hydro"), 150u);
  EXPECT_EQ(c.total(), 160u);
  c.reset();
  EXPECT_EQ(c.total(), 0u);
}

TEST(AllocStats, TracksPeakAndLive) {
  eu::AllocStats s;
  s.on_alloc(100);
  s.on_alloc(200);
  EXPECT_EQ(s.live_bytes(), 300u);
  EXPECT_EQ(s.peak_bytes(), 300u);
  s.on_free(200);
  EXPECT_EQ(s.live_bytes(), 100u);
  EXPECT_EQ(s.peak_bytes(), 300u);
  s.on_alloc(50);
  EXPECT_EQ(s.allocations(), 3u);
  EXPECT_EQ(s.frees(), 1u);
  EXPECT_EQ(s.total_bytes(), 350u);
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
