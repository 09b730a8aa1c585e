#include "mesh/grid.hpp"

#include <atomic>

#include "mesh/topology.hpp"
#include "util/error.hpp"

namespace enzo::mesh {

namespace {
std::uint64_t next_grid_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

Grid::Grid(const GridSpec& spec, const std::vector<Field>& fields,
           std::shared_ptr<StorageArena> arena)
    : spec_(spec),
      id_(next_grid_id()),
      field_list_(fields),
      arena_(std::move(arena)) {
  ENZO_REQUIRE(!spec_.box.empty(), "grid with empty box " + spec_.box.str());
  ENZO_REQUIRE(spec_.refine_factor >= 2, "refinement factor must be >= 2");
  for (int d = 0; d < 3; ++d) {
    ENZO_REQUIRE(0 <= spec_.box.lo[d] && spec_.box.hi[d] <= spec_.level_dims[d],
                 "grid " + spec_.box.str() + " exceeds level dims");
    // Degenerate axes (whole domain one cell thick) carry no ghosts.
    ng_[d] = (spec_.level_dims[d] > 1) ? spec_.nghost : 0;
    dx_[d] = ext::pos_t(1.0) / ext::pos_t(static_cast<double>(
                                  spec_.level_dims[d]));
  }
  if (arena_ != nullptr) {
    util::Arena* a = &arena_->doubles();
    for (auto& b : fields_) b.set_arena(a);
    for (auto& b : old_fields_) b.set_arena(a);
    for (auto& per_field : fluxes_)
      for (auto& b : per_field) b.set_arena(a);
    for (auto& per_field : bfluxes_)
      for (auto& per_axis : per_field)
        for (auto& b : per_axis) b.set_arena(a);
    gravitating_mass_.set_arena(a);
    potential_.set_arena(a);
    for (auto& b : accel_) b.set_arena(a);
    particles_ = arena_->acquire_particles();
  }
  for (Field f : field_list_) {
    fields_[field_index(f)].resize(nt(0), nt(1), nt(2), 0.0);
  }
}

Grid::~Grid() {
  if (arena_ != nullptr) arena_->release_particles(std::move(particles_));
}

ext::pos_t Grid::left_edge(int d) const {
  return ext::pos_t(static_cast<double>(spec_.box.lo[d])) * dx_[d];
}

ext::pos_t Grid::right_edge(int d) const {
  return ext::pos_t(static_cast<double>(spec_.box.hi[d])) * dx_[d];
}

ext::PosVec Grid::cell_center(int i, int j, int k) const {
  const int idx[3] = {i, j, k};
  ext::PosVec c;
  for (int d = 0; d < 3; ++d) {
    c[d] = (ext::pos_t(static_cast<double>(spec_.box.lo[d] + idx[d])) +
            ext::pos_t(0.5)) *
           dx_[d];
  }
  return c;
}

std::int64_t global_cell_index(ext::pos_t x, std::int64_t dims) {
  const ext::pos_t scaled = x * ext::pos_t(static_cast<double>(dims));
  return static_cast<std::int64_t>(ext::floor(scaled).to_double());
}

std::int64_t Grid::global_index_of(ext::pos_t x, int d) const {
  return global_cell_index(x, spec_.level_dims[d]);
}

bool Grid::contains_position(const ext::PosVec& x) const {
  for (int d = 0; d < 3; ++d) {
    const std::int64_t g = global_index_of(x[d], d);
    if (g < spec_.box.lo[d] || g >= spec_.box.hi[d]) return false;
  }
  return true;
}

FieldView Grid::field(Field f) {
  util::Buffer3& a = fields_[field_index(f)];
  ENZO_REQUIRE(!a.empty(), std::string("field not allocated: ") +
                               std::string(field_name(f)));
  return a.view();
}
ConstFieldView Grid::field(Field f) const {
  const util::Buffer3& a = fields_[field_index(f)];
  ENZO_REQUIRE(!a.empty(), std::string("field not allocated: ") +
                               std::string(field_name(f)));
  return a.view();
}

FieldView Grid::old_field(Field f) {
  ENZO_REQUIRE(has_old_, "old fields not stored");
  return old_fields_[field_index(f)].view();
}
ConstFieldView Grid::old_field(Field f) const {
  ENZO_REQUIRE(has_old_, "old fields not stored");
  return old_fields_[field_index(f)].view();
}

void Grid::store_old_fields() {
  for (Field f : field_list_)
    old_fields_[field_index(f)].copy_from(fields_[field_index(f)]);
  old_time_ = time_;
  has_old_ = true;
}

FieldView Grid::flux(Field f, int d) {
  ENZO_REQUIRE(has_fluxes_, "fluxes not allocated");
  return fluxes_[field_index(f)][d].view();
}
ConstFieldView Grid::flux(Field f, int d) const {
  ENZO_REQUIRE(has_fluxes_, "fluxes not allocated");
  return fluxes_[field_index(f)][d].view();
}

void Grid::reset_fluxes() {
  for (Field f : field_list_) {
    for (int d = 0; d < 3; ++d) {
      if (spec_.level_dims[d] == 1) continue;  // no sweep on degenerate axes
      const int fx = nx(0) + (d == 0 ? 1 : 0);
      const int fy = nx(1) + (d == 1 ? 1 : 0);
      const int fz = nx(2) + (d == 2 ? 1 : 0);
      fluxes_[field_index(f)][d].resize(fx, fy, fz, 0.0);
    }
  }
  has_fluxes_ = true;
}

FieldView Grid::boundary_flux(Field f, int d, int side) {
  ENZO_REQUIRE(has_bfluxes_, "boundary fluxes not allocated");
  return bfluxes_[field_index(f)][d][side].view();
}
ConstFieldView Grid::boundary_flux(Field f, int d, int side) const {
  ENZO_REQUIRE(has_bfluxes_, "boundary fluxes not allocated");
  return bfluxes_[field_index(f)][d][side].view();
}

void Grid::reset_boundary_fluxes() {
  for (Field f : field_list_) {
    for (int d = 0; d < 3; ++d) {
      if (spec_.level_dims[d] == 1) continue;
      for (int side = 0; side < 2; ++side) {
        const int fx = d == 0 ? 1 : nx(0);
        const int fy = d == 1 ? 1 : nx(1);
        const int fz = d == 2 ? 1 : nx(2);
        bfluxes_[field_index(f)][d][side].resize(fx, fy, fz, 0.0);
      }
    }
  }
  has_bfluxes_ = true;
}

void Grid::allocate_gravity() {
  if (has_gravity()) return;
  // One ghost layer on non-degenerate axes.
  auto g = [&](int d) { return spec_.level_dims[d] > 1 ? 1 : 0; };
  gravitating_mass_.resize(nx(0) + 2 * g(0), nx(1) + 2 * g(1),
                           nx(2) + 2 * g(2), 0.0);
  potential_.resize(nx(0) + 2 * g(0), nx(1) + 2 * g(1), nx(2) + 2 * g(2),
                    0.0);
  for (int d = 0; d < 3; ++d) accel_[d].resize(nx(0), nx(1), nx(2), 0.0);
}

void Grid::reset_for_reuse(Grid* parent) {
  ENZO_REQUIRE(parent != nullptr, "reset_for_reuse needs a parent");
  parent_ = parent;
  time_ = parent->time();
  old_time_ = parent->time();
  // A freshly built grid carries no flux/gravity storage; return ours to
  // the arena so consumers cannot tell a recycled grid from a new one.
  for (auto& per_field : fluxes_)
    for (auto& b : per_field) b.release();
  for (auto& per_field : bfluxes_)
    for (auto& per_axis : per_field)
      for (auto& b : per_axis) b.release();
  has_fluxes_ = false;
  has_bfluxes_ = false;
  gravitating_mass_.release();
  potential_.release();
  for (auto& b : accel_) b.release();
  // Fresh grids are zero-filled and only their active cells are written
  // during a rebuild, so a kept grid's stale ghost shells must go back to
  // zero (cheap: surface area, not volume).
  scrub_ghosts();
  // old fields are fully overwritten by the rebuild's store_old_fields()
  // pass, exactly as a fresh grid's are — nothing to do here.
}

void Grid::scrub_ghosts() {
  for (Field f : field_list_) {
    util::Buffer3& b = fields_[field_index(f)];
    if (b.empty()) continue;
    FieldView a = b.view();
    const int nxa = nx(0), nya = nx(1), nza = nx(2);
    for (int k = 0; k < nt(2); ++k)
      for (int j = 0; j < nt(1); ++j) {
        const bool jk_ghost = j < ng_[1] || j >= ng_[1] + nya ||
                              k < ng_[2] || k >= ng_[2] + nza;
        for (int i = 0; i < nt(0); ++i) {
          if (jk_ghost || i < ng_[0] || i >= ng_[0] + nxa) a(i, j, k) = 0.0;
        }
      }
  }
}

std::int64_t Grid::copy_region_from(const Grid& src, const Index3& shift,
                                    const IndexBox& target_global) {
  ENZO_REQUIRE(src.level() == level(), "sibling copy across levels");
  const IndexBox overlap = target_global.intersect(src.box().shifted(shift));
  if (overlap.empty()) return 0;
  // Storage index of the overlap's first cell in both grids; the copy then
  // walks whole x-rows.  The row loop stays inline: periodic self-wraps copy
  // rows of only nghost cells, where a memmove call per row costs more than
  // the copy.
  int d0[3], s0[3];
  for (int d = 0; d < 3; ++d) {
    d0[d] = static_cast<int>(overlap.lo[d] - spec_.box.lo[d]) + ng_[d];
    s0[d] = static_cast<int>(overlap.lo[d] - shift[d] - src.box().lo[d]) +
            src.ng(d);
  }
  const int nx = static_cast<int>(overlap.extent(0));
  const int ny = static_cast<int>(overlap.extent(1));
  const int nz = static_cast<int>(overlap.extent(2));
  for (Field f : field_list_) {
    if (!src.has_field(f)) continue;
    const FieldView dst_a = field(f);
    const ConstFieldView src_a = src.field(f);
    for (int k = 0; k < nz; ++k)
      for (int j = 0; j < ny; ++j) {
        double* __restrict out = dst_a.row(d0[0], nx, d0[1] + j, d0[2] + k);
        const double* __restrict in =
            src_a.row(s0[0], nx, s0[1] + j, s0[2] + k);
        for (int i = 0; i < nx; ++i) out[i] = in[i];
      }
  }
  return overlap.volume();
}

bool Grid::covers_periodic_domain() const {
  if (!spec_.periodic) return false;
  for (int d = 0; d < 3; ++d)
    if (spec_.box.lo[d] != 0 || spec_.box.hi[d] != spec_.level_dims[d])
      return false;
  return true;
}

void Grid::wrap_own_ghosts() {
  ENZO_REQUIRE(covers_periodic_domain(),
               "wrap_own_ghosts on a grid that does not cover the domain");
  // All 26 periodic images (the source region is always the active box, so
  // edge/corner ghosts need the diagonal shifts).  This site used to guard
  // on `ng_[d] > 0` instead of the canonical `dims[d] > 1`; the two only
  // differ when nghost == 0, where both end up copying nothing (the shifted
  // active box cannot meet a ghostless total box), so the shared helper is
  // behaviour-preserving here.
  const auto shifts =
      periodic_image_shifts(spec_.level_dims, spec_.periodic);
  for (std::int64_t kz : shifts[2])
    for (std::int64_t ky : shifts[1])
      for (std::int64_t kx : shifts[0]) {
        if (kx == 0 && ky == 0 && kz == 0) continue;
        copy_from_sibling(*this, {kx, ky, kz});
      }
}

std::int64_t Grid::copy_from_sibling(const Grid& src, const Index3& shift) {
  IndexBox total = spec_.box;
  for (int d = 0; d < 3; ++d) {
    total.lo[d] -= ng_[d];
    total.hi[d] += ng_[d];
  }
  return copy_region_from(src, shift, total);
}

std::int64_t Grid::copy_active_from(const Grid& src, const Index3& shift) {
  return copy_region_from(src, shift, spec_.box);
}

}  // namespace enzo::mesh
