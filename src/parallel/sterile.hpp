#pragma once
// Sterile objects (§3.4): metadata-only grid replicas.
//
// "We solved this problem by creating a type of object which contained
// information about the location and size of a grid, but did not contain the
// actual solution.  These sterile objects are small and so each processor
// can hold the entire hierarchy.  Only those grids which are local to that
// processor are non-sterile.  This means that almost all messages are direct
// data sends; very few probes are required."
//
// SterileStore is that replica: every rank holds the full descriptor list
// and answers neighbour/owner queries locally, so boundary exchanges can be
// posted as source-addressed sends instead of any-source probes.

#include <cstdint>
#include <vector>

#include "mesh/hierarchy.hpp"

namespace enzo::parallel {

class SterileStore {
 public:
  void clear() { all_.clear(); }
  void add(const mesh::GridDescriptor& d) { all_.push_back(d); }
  /// Mirror a whole hierarchy: one descriptor per grid, level by level in
  /// grid-list order, with owners assigned by that index (0 past the end).
  void mirror(const mesh::Hierarchy& h, const std::vector<int>& owner_by_index);

  std::size_t size() const { return all_.size(); }
  const std::vector<mesh::GridDescriptor>& descriptors() const { return all_; }

  /// Owner rank of a grid id (-1 if unknown).
  int owner_of(std::uint64_t id) const;

  /// Descriptors on `level` whose box (under periodic shifts of `dims` when
  /// periodic) overlaps `target`.  Purely local — no communication.
  std::vector<mesh::GridDescriptor> find_overlaps(int level,
                                                  const mesh::IndexBox& target,
                                                  const mesh::Index3& dims,
                                                  bool periodic) const;

  /// Number of local lookups served (each one would otherwise have been a
  /// remote probe).
  std::uint64_t lookups() const { return lookups_; }

 private:
  std::vector<mesh::GridDescriptor> all_;
  mutable std::uint64_t lookups_ = 0;
};

}  // namespace enzo::parallel
