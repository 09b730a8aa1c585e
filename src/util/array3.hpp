#pragma once
// Array3<T>: an owning, contiguous 3-d array used for all per-grid fields.
//
// Layout is Fortran-ish x-fastest (i + nx*(j + ny*k)) so that 1-d hydro
// sweeps along x are stride-1 and the x-pencil extraction in the PPM/ZEUS
// solvers is a memcpy.  2-d and 1-d problems simply use nz==1 (and ny==1).
//
// The class intentionally has no ghost-zone notion of its own: grids decide
// how many ghost cells a field carries and index accordingly.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "util/error.hpp"

namespace enzo::util {

/// ArrayView3<T>: a non-owning span over a contiguous 3-d array with the
/// same x-fastest layout, indexing and bounds-check behaviour as Array3.
/// Views are shallow-const handles (a `const ArrayView3<double>` still
/// yields mutable elements, like a span); use ArrayView3<const T> for a
/// read-only view.  Grid storage hands these out so callers never observe
/// where the bytes live (heap, arena block, scratch pool).
template <typename T>
class ArrayView3 {
 public:
  using value_type = std::remove_const_t<T>;

  ArrayView3() = default;
  ArrayView3(T* data, int nx, int ny, int nz)
      : data_(data), nx_(nx), ny_(ny), nz_(nz) {}
  /// Mutable view -> const view conversion.
  template <typename U,
            std::enable_if_t<std::is_same_v<T, const U>, int> = 0>
  ArrayView3(const ArrayView3<U>& o)  // NOLINT(google-explicit-constructor)
      : data_(o.data()), nx_(o.nx()), ny_(o.ny()), nz_(o.nz()) {}

  [[nodiscard]] int nx() const { return nx_; }
  [[nodiscard]] int ny() const { return ny_; }
  [[nodiscard]] int nz() const { return nz_; }
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(nx_) * ny_ * nz_;
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Signed-64 flattening, identical to Array3::index.
  [[nodiscard]] std::size_t index(int i, int j, int k) const {
    const std::int64_t off =
        static_cast<std::int64_t>(i) +
        static_cast<std::int64_t>(nx_) *
            (static_cast<std::int64_t>(j) +
             static_cast<std::int64_t>(ny_) * static_cast<std::int64_t>(k));
    return static_cast<std::size_t>(off);
  }

#ifdef ENZO_BOUNDS_CHECK
  T& operator()(int i, int j, int k) const { return at(i, j, k); }
#else
  T& operator()(int i, int j, int k) const { return data_[index(i, j, k)]; }
#endif

  T& at(int i, int j, int k) const {
    ENZO_REQUIRE(contains(i, j, k), "ArrayView3::at out of range");
    return data_[index(i, j, k)];
  }

  [[nodiscard]] bool contains(int i, int j, int k) const {
    return i >= 0 && i < nx_ && j >= 0 && j < ny_ && k >= 0 && k < nz_;
  }

  /// Flat-index distance between neighbouring cells along axis d.
  [[nodiscard]] std::ptrdiff_t stride(int d) const {
    return d == 0 ? 1
                  : (d == 1 ? nx_ : static_cast<std::ptrdiff_t>(nx_) * ny_);
  }

  /// Pointer to (i, j, k), the first of n >= 1 cells walked with stride(d)
  /// along axis d.  The ENZO_BOUNDS_CHECK build checks the first and the
  /// last cell through at().
  T* line([[maybe_unused]] int d, [[maybe_unused]] int n, int i, int j,
          int k) const {
#ifdef ENZO_BOUNDS_CHECK
    int last[3] = {i, j, k};
    last[d] += n - 1;
    (void)at(last[0], last[1], last[2]);
    return &at(i, j, k);
#else
    return data_ + index(i, j, k);
#endif
  }

  /// Pointer to the n >= 1 consecutive x-cells (i..i+n-1, j, k), for loops
  /// that walk a row with unit stride (checked like line()).
  T* row(int i, int n, int j, int k) const { return line(0, n, i, j, k); }

  T* data() const { return data_; }

  void fill(value_type v) const {
    static_assert(!std::is_const_v<T>, "fill on a const view");
    std::fill(data_, data_ + size(), v);
  }

  /// Element-wise accumulate (same shape required).
  void add(ArrayView3<const value_type> other,
           value_type scale = value_type{1}) const {
    static_assert(!std::is_const_v<T>, "add on a const view");
    ENZO_REQUIRE(same_shape(other), "ArrayView3::add shape mismatch");
    const value_type* src = other.data();
    for (std::size_t n = 0; n < size(); ++n) data_[n] += scale * src[n];
  }

  template <typename U>
  [[nodiscard]] bool same_shape(const ArrayView3<U>& o) const {
    return nx_ == o.nx() && ny_ == o.ny() && nz_ == o.nz();
  }

  // min/max/sum walk the data in storage order, matching Array3 exactly.
  value_type min() const {
    return empty() ? value_type{} : *std::min_element(data_, data_ + size());
  }
  value_type max() const {
    return empty() ? value_type{} : *std::max_element(data_, data_ + size());
  }
  value_type sum() const {
    value_type s{};
    for (std::size_t n = 0; n < size(); ++n) s += data_[n];
    return s;
  }

  T* begin() const { return data_; }
  T* end() const { return data_ + size(); }

 private:
  T* data_ = nullptr;
  int nx_ = 0, ny_ = 0, nz_ = 0;
};

template <typename T>
class Array3 {
 public:
  Array3() = default;
  Array3(int nx, int ny, int nz, T fill = T{}) { resize(nx, ny, nz, fill); }

  void resize(int nx, int ny, int nz, T fill = T{}) {
    ENZO_REQUIRE(nx >= 0 && ny >= 0 && nz >= 0, "negative Array3 extent");
    nx_ = nx;
    ny_ = ny;
    nz_ = nz;
    data_.assign(static_cast<std::size_t>(nx) * ny * nz, fill);
  }

  [[nodiscard]] int nx() const { return nx_; }
  [[nodiscard]] int ny() const { return ny_; }
  [[nodiscard]] int nz() const { return nz_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  /// Computed in signed 64-bit so a negative index yields a negative offset
  /// (caught by at()/ENZO_BOUNDS_CHECK) instead of silently wrapping through
  /// size_t into a huge in-range-looking value.
  [[nodiscard]] std::size_t index(int i, int j, int k) const {
    const std::int64_t off =
        static_cast<std::int64_t>(i) +
        static_cast<std::int64_t>(nx_) *
            (static_cast<std::int64_t>(j) +
             static_cast<std::int64_t>(ny_) * static_cast<std::int64_t>(k));
    return static_cast<std::size_t>(off);
  }

#ifdef ENZO_BOUNDS_CHECK
  // Debug mode: every field access goes through the checked accessor, so an
  // out-of-range (i,j,k) — including one whose flattened offset happens to
  // land inside the allocation — fails loudly at the call site.
  T& operator()(int i, int j, int k) { return at(i, j, k); }
  const T& operator()(int i, int j, int k) const { return at(i, j, k); }
#else
  T& operator()(int i, int j, int k) { return data_[index(i, j, k)]; }
  const T& operator()(int i, int j, int k) const { return data_[index(i, j, k)]; }
#endif

  T& at(int i, int j, int k) {
    ENZO_REQUIRE(contains(i, j, k), "Array3::at out of range");
    return data_[index(i, j, k)];
  }
  const T& at(int i, int j, int k) const {
    ENZO_REQUIRE(contains(i, j, k), "Array3::at out of range");
    return data_[index(i, j, k)];
  }

  [[nodiscard]] bool contains(int i, int j, int k) const {
    return i >= 0 && i < nx_ && j >= 0 && j < ny_ && k >= 0 && k < nz_;
  }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  void fill(T v) { std::fill(data_.begin(), data_.end(), v); }

  /// Element-wise accumulate (same shape required).
  void add(const Array3& other, T scale = T{1}) {
    ENZO_REQUIRE(same_shape(other), "Array3::add shape mismatch");
    for (std::size_t n = 0; n < data_.size(); ++n) data_[n] += scale * other.data_[n];
  }

  [[nodiscard]] bool same_shape(const Array3& o) const {
    return nx_ == o.nx_ && ny_ == o.ny_ && nz_ == o.nz_;
  }

  T min() const { return data_.empty() ? T{} : *std::min_element(data_.begin(), data_.end()); }
  T max() const { return data_.empty() ? T{} : *std::max_element(data_.begin(), data_.end()); }
  T sum() const {
    T s{};
    for (const T& v : data_) s += v;
    return s;
  }

  auto begin() { return data_.begin(); }
  auto end() { return data_.end(); }
  auto begin() const { return data_.begin(); }
  auto end() const { return data_.end(); }

  /// Non-owning views for interop with the FieldView-based grid APIs.
  [[nodiscard]] ArrayView3<T> view() { return {data_.data(), nx_, ny_, nz_}; }
  [[nodiscard]] ArrayView3<const T> view() const {
    return {data_.data(), nx_, ny_, nz_};
  }

 private:
  int nx_ = 0, ny_ = 0, nz_ = 0;
  std::vector<T> data_;
};

}  // namespace enzo::util
