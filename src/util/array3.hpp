#pragma once
// The 3-d array types: ArrayView3<T> indexes, Buffer3 owns.
//
// Layout is Fortran-ish x-fastest (i + nx*(j + ny*k)) so that 1-d hydro
// sweeps along x are stride-1 and the x-pencil extraction in the PPM/ZEUS
// solvers is a memcpy.  2-d and 1-d problems simply use nz==1 (and ny==1).
//
// ArrayView3 is the only indexed type: every field, flux register, solver
// scratch array and spectrum is read and written through one.  Buffer3 owns
// the double arrays (grid fields, solver scratch, initial conditions) in
// 64-byte-aligned blocks from a util::Arena or its heap fallback; the few
// non-double arrays (complex spectra, integer labels) are std::vectors read
// through a view.
//
// Neither type has a ghost-zone notion of its own: grids decide how many
// ghost cells a field carries and index accordingly.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "util/arena.hpp"
#include "util/error.hpp"

namespace enzo::util {

/// ArrayView3<T>: a non-owning span over a contiguous x-fastest 3-d array.
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
  // Debug mode: every access goes through the checked accessor, so an
  // out-of-range (i,j,k) — including one whose flattened offset happens to
  // land inside the array — fails loudly at the call site.
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

  /// Pointer to (i, j, k), the first of n >= 1 elements consecutive in
  /// storage order, for flat loops that run on across rows (and planes).
  /// The ENZO_BOUNDS_CHECK build checks the first and the last element.
  T* flat(int i, int j, int k, [[maybe_unused]] int n) const {
#ifdef ENZO_BOUNDS_CHECK
    ENZO_REQUIRE(contains(i, j, k) && n >= 1 &&
                     index(i, j, k) + static_cast<std::size_t>(n) <= size(),
                 "ArrayView3::flat out of range");
#endif
    return data_ + index(i, j, k);
  }

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

  // min/max/sum walk the data in storage order.
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

/// An owning, shaped 3-d double buffer whose storage is on loan from a
/// util::Arena (or the aligned heap fallback when no arena is attached).
/// Move-only; resize always writes every element so recycled blocks are
/// bitwise indistinguishable from fresh ones.
class Buffer3 {
 public:
  Buffer3() = default;
  /// An unattached (heap-backed) nx×ny×nz buffer with every element `fill`.
  Buffer3(int nx, int ny, int nz, double fill = 0.0) {
    resize(nx, ny, nz, fill);
  }
  ~Buffer3() { release(); }
  Buffer3(Buffer3&& o) noexcept { move_from(o); }
  Buffer3& operator=(Buffer3&& o) noexcept {
    if (this != &o) {
      release();
      move_from(o);
    }
    return *this;
  }
  Buffer3(const Buffer3&) = delete;
  Buffer3& operator=(const Buffer3&) = delete;

  /// Attach to an arena; must be called while empty (before first resize).
  void set_arena(Arena* a);

  /// Shape to (nx,ny,nz) and set every element to `fill`, acquiring a
  /// (possibly recycled) block when capacity is insufficient.
  void resize(int nx, int ny, int nz, double fill = 0.0);

  /// Return the block to its arena/heap and go empty (0×0×0).
  void release();

  void fill(double v) { view().fill(v); }

  /// Become a same-shaped copy of `o` (contents included).
  void copy_from(const Buffer3& o);

  [[nodiscard]] int nx() const { return nx_; }
  [[nodiscard]] int ny() const { return ny_; }
  [[nodiscard]] int nz() const { return nz_; }
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(nx_) * ny_ * nz_;
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Rounded capacity of the held block in doubles (0 when empty).  Lets
  /// owners of long-lived scratch decide when a shrinking shape should
  /// release the block back to its size class instead of squatting on it.
  [[nodiscard]] std::size_t capacity() const { return block_.capacity; }

  [[nodiscard]] ArrayView3<double> view() { return {block_.ptr, nx_, ny_, nz_}; }
  [[nodiscard]] ArrayView3<const double> view() const {
    return {block_.ptr, nx_, ny_, nz_};
  }

  double* data() { return block_.ptr; }
  const double* data() const { return block_.ptr; }

 private:
  void move_from(Buffer3& o) {
    arena_ = o.arena_;
    block_ = o.block_;
    nx_ = o.nx_;
    ny_ = o.ny_;
    nz_ = o.nz_;
    o.block_ = {};
    o.nx_ = o.ny_ = o.nz_ = 0;
  }

  Arena* arena_ = nullptr;  // nullptr -> aligned heap fallback
  ArenaBlock block_;
  int nx_ = 0, ny_ = 0, nz_ = 0;
};

}  // namespace enzo::util
