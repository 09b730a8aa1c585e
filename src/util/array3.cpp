#include "util/array3.hpp"

#include <cstring>

namespace enzo::util {

void Buffer3::set_arena(Arena* a) {
  ENZO_REQUIRE(block_.ptr == nullptr,
               "Buffer3::set_arena on a non-empty buffer");
  arena_ = a;
}

void Buffer3::resize(int nx, int ny, int nz, double fill) {
  ENZO_REQUIRE(nx >= 0 && ny >= 0 && nz >= 0, "negative Buffer3 extent");
  const std::size_t n =
      static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny) *
      static_cast<std::size_t>(nz);
  if (n > block_.capacity) {
    release();
    block_ = arena_ != nullptr ? arena_->acquire(n)
                               : Arena::heap_acquire(n);
  }
  nx_ = nx;
  ny_ = ny;
  nz_ = nz;
  if (n > 0) std::fill(block_.ptr, block_.ptr + n, fill);
}

void Buffer3::release() {
  if (block_.ptr != nullptr) {
    if (arena_ != nullptr)
      arena_->release(std::move(block_));
    else
      Arena::heap_release(std::move(block_));
  }
  nx_ = ny_ = nz_ = 0;
}

void Buffer3::copy_from(const Buffer3& o) {
  const std::size_t n = o.size();
  if (n > block_.capacity) {
    release();
    block_ = arena_ != nullptr ? arena_->acquire(n)
                               : Arena::heap_acquire(n);
  }
  nx_ = o.nx_;
  ny_ = o.ny_;
  nz_ = o.nz_;
  if (n > 0) std::memcpy(block_.ptr, o.block_.ptr, n * sizeof(double));
}

}  // namespace enzo::util
