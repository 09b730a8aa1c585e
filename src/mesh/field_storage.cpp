#include "mesh/field_storage.hpp"

namespace enzo::mesh {

std::vector<Particle> StorageArena::acquire_particles() {
  std::lock_guard<std::mutex> lock(mu_);
  if (particle_pool_.empty()) return {};
  std::vector<Particle> v = std::move(particle_pool_.back());
  particle_pool_.pop_back();
  return v;
}

void StorageArena::release_particles(std::vector<Particle>&& v) {
  if (v.capacity() == 0) return;
  v.clear();
  std::lock_guard<std::mutex> lock(mu_);
  particle_pool_.push_back(std::move(v));
}

}  // namespace enzo::mesh
