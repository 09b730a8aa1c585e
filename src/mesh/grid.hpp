#pragma once
// Grid: the basic building block of SAMR (§3.4: "encapsulation: a grid
// represents the basic building block of AMR ... atomic and binary
// operations").
//
// A Grid owns a rectangular patch of cells at one refinement level:
//   * geometry — an integer IndexBox in the level's global index space plus
//     extended-precision edges/cell widths derived from it (§3.5);
//   * baryon fields with ghost zones (and an "old" copy of the previous
//     state, kept for time-centered subgrid boundary interpolation, Fig. 2);
//   * time-integrated face fluxes of the conserved fields, used by the flux
//     correction step (§3.2.1);
//   * gravity data (gravitating mass, potential, accelerations);
//   * the dark-matter particles whose positions it contains (§3.3).
//
// Storage lives in arena-backed Buffer3 blocks; every accessor returns a
// FieldView / ParticleView handle, so callers never observe whether the
// bytes came from the heap or from the hierarchy's arena pool.  Alignment logic
// is pure integer arithmetic; only absolute positions/times are extended
// precision.  Field data is plain double.

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "ext/position.hpp"
#include "mesh/box.hpp"
#include "mesh/field.hpp"
#include "mesh/field_storage.hpp"

namespace enzo::mesh {

/// Global level-index of the cell containing coordinate x on an axis with
/// `dims` cells (extended-precision floor).  Shared by
/// Grid::global_index_of and the topology point index so both use
/// bit-identical arithmetic.
std::int64_t global_cell_index(ext::pos_t x, std::int64_t dims);

/// Immutable description of a grid's place in the hierarchy.
struct GridSpec {
  int level = 0;
  IndexBox box;                   ///< active region, level index space
  Index3 level_dims{1, 1, 1};     ///< whole domain size in this level's cells
  int refine_factor = 2;
  int nghost = 3;
  bool periodic = true;           ///< domain-level boundary type
};

class Grid {
 public:
  /// `arena` may be null (tests, ad-hoc grids): buffers then use the
  /// aligned heap fallback with identical accounting.
  Grid(const GridSpec& spec, const std::vector<Field>& fields,
       std::shared_ptr<StorageArena> arena = nullptr);
  ~Grid();
  Grid(const Grid&) = delete;
  Grid& operator=(const Grid&) = delete;

  // ---- geometry -------------------------------------------------------------
  int level() const { return spec_.level; }
  const IndexBox& box() const { return spec_.box; }
  Grid* parent() const { return parent_; }
  void set_parent(Grid* p) { parent_ = p; }
  const GridSpec& spec() const { return spec_; }
  int refine_factor() const { return spec_.refine_factor; }
  std::uint64_t id() const { return id_; }

  /// Active cells per axis.
  int nx(int d) const { return static_cast<int>(spec_.box.extent(d)); }
  /// Ghost cells per axis (0 on degenerate axes).
  int ng(int d) const { return ng_[d]; }
  /// Total (active + ghost) cells per axis.
  int nt(int d) const { return nx(d) + 2 * ng_[d]; }

  /// Cell width along axis d (comoving code units), exact dd.
  ext::pos_t cell_width(int d) const { return dx_[d]; }
  double cell_width_d(int d) const { return ext::pos_to_double(dx_[d]); }

  /// Absolute edges of the active region.
  ext::pos_t left_edge(int d) const;
  ext::pos_t right_edge(int d) const;
  /// Center of active cell (i,j,k) — active indices, 0-based.
  ext::PosVec cell_center(int i, int j, int k) const;

  /// Global level index of the cell containing absolute position x along d
  /// (extended precision floor; this is the operation double gets wrong at
  /// depth — see ext tests).
  std::int64_t global_index_of(ext::pos_t x, int d) const;
  /// Active local index (may be outside [0,nx) if x is outside the grid).
  std::int64_t local_index_of(ext::pos_t x, int d) const {
    return global_index_of(x, d) - spec_.box.lo[d];
  }
  bool contains_position(const ext::PosVec& x) const;

  // ---- time -----------------------------------------------------------------
  ext::pos_t time() const { return time_; }
  ext::pos_t old_time() const { return old_time_; }
  void set_time(ext::pos_t t) { time_ = t; }
  void set_old_time(ext::pos_t t) { old_time_ = t; }

  // ---- fields ---------------------------------------------------------------
  const std::vector<Field>& field_list() const { return field_list_; }
  bool has_field(Field f) const { return !fields_[field_index(f)].empty(); }
  [[nodiscard]] FieldView field(Field f);
  [[nodiscard]] ConstFieldView field(Field f) const;
  [[nodiscard]] FieldView old_field(Field f);
  [[nodiscard]] ConstFieldView old_field(Field f) const;
  bool has_old_fields() const { return has_old_; }

  /// Snapshot current fields into the "old" copies and record old_time.
  void store_old_fields();

  /// Map an active index to the storage index of the field arrays.
  int sx(int i) const { return i + ng_[0]; }
  int sy(int j) const { return j + ng_[1]; }
  int sz(int k) const { return k + ng_[2]; }

  // ---- fluxes ----------------------------------------------------------------
  /// Expansion-weighted time-integrated face flux ∫F dt/a of the conserved
  /// counterpart of field f along axis d (a = 1 in non-comoving runs, so the
  /// flux-correction divide by the *comoving* cell width closes exactly).
  /// Active faces only: dims are nx with +1 along d, indexed by *active*
  /// coordinates, so face (i,j,k) is the lower face of active cell (i,j,k)
  /// — storage cell (sx(i), sy(j), sz(k)) — and face nx(d) is the upper
  /// face of the last active cell.  Ghost cells have no faces here.
  [[nodiscard]] FieldView flux(Field f, int d);
  [[nodiscard]] ConstFieldView flux(Field f, int d) const;
  bool has_fluxes() const { return has_fluxes_; }
  /// Allocate (if needed) and zero the flux accumulators.
  void reset_fluxes();

  /// Boundary flux registers: the time-integrated fluxes through this grid's
  /// *own boundary faces*, accumulated over all of the grid's subcycles
  /// within one parent timestep (the quantity the parent's flux correction
  /// consumes).  Stored as single face planes: thickness 1 along d and nx
  /// along the transverse axes, indexed by active coordinates like the flux
  /// arrays; side 0 = low face, side 1 = high face.
  [[nodiscard]] FieldView boundary_flux(Field f, int d, int side);
  [[nodiscard]] ConstFieldView boundary_flux(Field f, int d, int side) const;
  bool has_boundary_fluxes() const { return has_bfluxes_; }
  /// Allocate (if needed) and zero; the driver calls this when a new parent
  /// timestep window begins.
  void reset_boundary_fluxes();

  // ---- gravity ---------------------------------------------------------------
  /// Total gravitating (gas + dark matter) comoving density; one ghost layer
  /// so CIC deposits near edges land somewhere before being reconciled.
  [[nodiscard]] FieldView gravitating_mass() {
    return gravitating_mass_.view();
  }
  [[nodiscard]] ConstFieldView gravitating_mass() const {
    return gravitating_mass_.view();
  }
  /// Gravitational potential with one ghost layer (boundary from parent).
  [[nodiscard]] FieldView potential() { return potential_.view(); }
  [[nodiscard]] ConstFieldView potential() const { return potential_.view(); }
  /// Cell-centered acceleration components (active region only).
  [[nodiscard]] FieldView acceleration(int d) { return accel_[d].view(); }
  [[nodiscard]] ConstFieldView acceleration(int d) const {
    return accel_[d].view();
  }
  void allocate_gravity();
  bool has_gravity() const { return !potential_.empty(); }

  // ---- particles -------------------------------------------------------------
  [[nodiscard]] ParticleView particles() { return ParticleView(particles_); }
  [[nodiscard]] ConstParticleView particles() const {
    return ConstParticleView(particles_);
  }

  // ---- bulk data motion (binary grid operations, §3.4) -----------------------
  /// Copy every allocated field from src (same level) where src's active
  /// region, shifted by `shift` cells (periodic images), overlaps this
  /// grid's total (ghost-inclusive) region.  Returns copied-cell count.
  std::int64_t copy_from_sibling(const Grid& src, const Index3& shift);

  /// As above but restricted to this grid's *active* region (rebuild copy).
  std::int64_t copy_active_from(const Grid& src, const Index3& shift);

  /// True when this grid alone covers the whole periodic domain, so its
  /// ghost zones are exactly its own wrapped data.
  bool covers_periodic_domain() const;

  /// Refresh ghost zones by self-copy with periodic shifts (only valid when
  /// covers_periodic_domain()); used between directional sweeps to keep the
  /// conservative update exact across the external periodic boundary.
  void wrap_own_ghosts();

  // ---- regrid recycling ------------------------------------------------------
  /// Prepare this grid for reuse across a rebuild (same box): release
  /// auxiliary storage (fluxes, boundary fluxes, gravity) back to the
  /// arena, zero the ghost shells, and re-anchor parent/time — after which
  /// the grid is bitwise indistinguishable from a new grid the rebuild
  /// builds for the same box (grid id excepted: a kept grid keeps its id,
  /// which no physics or serialized byte observes).
  void reset_for_reuse(Grid* parent);

 private:
  std::int64_t copy_region_from(const Grid& src, const Index3& shift,
                                const IndexBox& target_global);
  void scrub_ghosts();

  GridSpec spec_;
  Grid* parent_ = nullptr;
  std::uint64_t id_;
  std::array<int, 3> ng_{};
  std::array<ext::pos_t, 3> dx_{};
  std::vector<Field> field_list_;
  // The arena is declared before every buffer so buffers (destroyed in
  // reverse order) always release into a live arena.
  std::shared_ptr<StorageArena> arena_;
  std::array<util::Buffer3, kNumFields> fields_;
  std::array<util::Buffer3, kNumFields> old_fields_;
  std::array<std::array<util::Buffer3, 3>, kNumFields> fluxes_;
  std::array<std::array<std::array<util::Buffer3, 2>, 3>, kNumFields> bfluxes_;
  util::Buffer3 gravitating_mass_;
  util::Buffer3 potential_;
  std::array<util::Buffer3, 3> accel_;
  std::vector<Particle> particles_;
  ext::pos_t time_{0.0};
  ext::pos_t old_time_{0.0};
  bool has_old_ = false;
  bool has_fluxes_ = false;
  bool has_bfluxes_ = false;
};

}  // namespace enzo::mesh
