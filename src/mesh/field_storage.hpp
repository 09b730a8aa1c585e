#pragma once
// Grid storage layer: the view/handle API over util::Buffer3 field blocks.
//
// Grids expose no owning arrays — every accessor returns a FieldView /
// ParticleView handle, so callers never observe where the bytes live (heap
// fallback, the hierarchy's arena, scratch pool).  Field data sits in
// util::Buffer3 blocks on loan from a util::Arena, released back to the
// pool on destruction so regrids recycle storage instead of churning the
// allocator (§5).
//
// StorageArena bundles the double arena with a particle-vector pool; each
// Hierarchy owns one for all its levels (shared_ptr — grids keep a
// reference so teardown order is never a hazard).

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "ext/position.hpp"
#include "util/arena.hpp"
#include "util/array3.hpp"

namespace enzo::mesh {

/// Dark-matter particle (kept in mesh to avoid a module cycle; the nbody
/// module provides the solvers that act on these).
struct Particle {
  ext::PosVec x{};                 ///< absolute position, code units [0,1)
  std::array<double, 3> v{};       ///< peculiar velocity, code units
  double mass = 0.0;               ///< code mass (density × root-cell volume)
  std::uint64_t id = 0;
};

/// Span-like handles over grid field storage (see util::ArrayView3 for the
/// shallow-const semantics).
using FieldView = util::ArrayView3<double>;
using ConstFieldView = util::ArrayView3<const double>;

/// Forwarding handle over a grid's particle list.  Like FieldView it is a
/// shallow-const span-style handle: copying the view aliases the same
/// underlying vector.
class ParticleView {
 public:
  explicit ParticleView(std::vector<Particle>& v) : v_(&v) {}

  [[nodiscard]] std::size_t size() const { return v_->size(); }
  [[nodiscard]] bool empty() const { return v_->empty(); }
  Particle& operator[](std::size_t i) const { return (*v_)[i]; }
  Particle* begin() const { return v_->data(); }
  Particle* end() const { return v_->data() + v_->size(); }
  Particle* data() const { return v_->data(); }
  void push_back(const Particle& p) const { v_->push_back(p); }
  void reserve(std::size_t n) const { v_->reserve(n); }
  void resize(std::size_t n) const { v_->resize(n); }
  void clear() const { v_->clear(); }
  void swap(std::vector<Particle>& other) const { v_->swap(other); }

 private:
  std::vector<Particle>* v_;
};

class ConstParticleView {
 public:
  explicit ConstParticleView(const std::vector<Particle>& v) : v_(&v) {}

  [[nodiscard]] std::size_t size() const { return v_->size(); }
  [[nodiscard]] bool empty() const { return v_->empty(); }
  const Particle& operator[](std::size_t i) const { return (*v_)[i]; }
  const Particle* begin() const { return v_->data(); }
  const Particle* end() const { return v_->data() + v_->size(); }
  const Particle* data() const { return v_->data(); }

 private:
  const std::vector<Particle>* v_;
};

/// A hierarchy's storage pool: the double arena for field blocks plus a
/// capacity-preserving particle-vector pool, so rebuilt grids reuse both
/// kinds of storage from the grids they replaced, on any level.
class StorageArena {
 public:
  [[nodiscard]] util::Arena& doubles() { return arena_; }

  /// An empty particle vector, recycled (capacity intact) when one is
  /// available.
  [[nodiscard]] std::vector<Particle> acquire_particles();
  void release_particles(std::vector<Particle>&& v);

 private:
  util::Arena arena_;
  std::mutex mu_;
  std::vector<std::vector<Particle>> particle_pool_;
};

}  // namespace enzo::mesh
