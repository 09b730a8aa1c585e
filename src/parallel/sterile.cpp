#include "parallel/sterile.hpp"

#include "mesh/topology.hpp"

namespace enzo::parallel {

void SterileStore::mirror(const mesh::Hierarchy& h,
                          const std::vector<int>& owner_by_index) {
  all_.clear();
  std::size_t idx = 0;
  for (int l = 0; l <= h.deepest_level(); ++l)
    for (const mesh::Grid* g : h.grids(l)) {
      const int owner = idx < owner_by_index.size() ? owner_by_index[idx] : 0;
      all_.push_back({g->id(), l, g->box(), owner});
      ++idx;
    }
}

int SterileStore::owner_of(std::uint64_t id) const {
  ++lookups_;
  for (const auto& d : all_)
    if (d.id == id) return d.owner_rank;
  return -1;
}

std::vector<mesh::GridDescriptor> SterileStore::find_overlaps(
    int level, const mesh::IndexBox& target, const mesh::Index3& dims,
    bool periodic) const {
  ++lookups_;
  std::vector<mesh::GridDescriptor> out;
  // Arbitrary-target queries stay a scan over the (metadata-only)
  // descriptors; only the shift enumeration goes through the shared helper.
  const auto shifts = mesh::periodic_image_shifts(dims, periodic);
  for (const auto& desc : all_) {
    if (desc.level != level) continue;
    bool hit = false;
    for (std::int64_t kz : shifts[2]) {
      for (std::int64_t ky : shifts[1]) {
        for (std::int64_t kx : shifts[0]) {
          if (!target.intersect(desc.box.shifted({kx, ky, kz})).empty()) {
            hit = true;
            break;
          }
        }
        if (hit) break;
      }
      if (hit) break;
    }
    if (hit) out.push_back(desc);
  }
  return out;
}

}  // namespace enzo::parallel
