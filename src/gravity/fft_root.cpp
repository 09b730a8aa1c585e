// Root-grid Poisson solve (§3.3): assemble the level-0 gravitating mass into
// a single periodic array, FFT, multiply by the Green function of the
// 7-point discrete Laplacian (so root and multigrid levels share the same
// operator), inverse FFT, and scatter the potential back to the root tiles
// with a periodic ghost layer.

#include <cmath>
#include <vector>

#include "exec/executor.hpp"
#include "fft/fft.hpp"
#include "gravity/gravity.hpp"
#include "perf/trace.hpp"
#include "util/array3.hpp"
#include "util/constants.hpp"
#include "util/error.hpp"

namespace enzo::gravity {

void solve_root_gravity(mesh::Hierarchy& h, const GravityParams& p, double a,
                        exec::LevelExecutor* ex) {
  auto roots = h.grids(0);
  ENZO_REQUIRE(!roots.empty(), "no root grids");
  ENZO_REQUIRE(h.params().periodic, "FFT root solve requires a periodic box");
  perf::TraceScope scope("root_fft", perf::component::kGravity, 0);
  const mesh::Index3 dims = h.level_dims(0);
  const int nx = static_cast<int>(dims[0]);
  const int ny = static_cast<int>(dims[1]);
  const int nz = static_cast<int>(dims[2]);

  // ρ and then φ live in scratch blocks recycled across solves.
  util::Buffer3 rho_buf, phi_buf;
  rho_buf.set_arena(&util::Arena::scratch());
  phi_buf.set_arena(&util::Arena::scratch());
  rho_buf.resize(nx, ny, nz, 0.0);
  phi_buf.resize(nx, ny, nz);
  const mesh::FieldView rho = rho_buf.view();
  const mesh::FieldView phi = phi_buf.view();

  // ---- assemble the global gravitating mass --------------------------------
  for (mesh::Grid* g : roots) {
    auto glo = [&](int d) { return g->spec().level_dims[d] > 1 ? 1 : 0; };
    const auto& gm = g->gravitating_mass();
    for (int k = 0; k < g->nx(2); ++k)
      for (int j = 0; j < g->nx(1); ++j)
        for (int i = 0; i < g->nx(0); ++i)
          rho(static_cast<int>(g->box().lo[0]) + i,
              static_cast<int>(g->box().lo[1]) + j,
              static_cast<int>(g->box().lo[2]) + k) =
              gm(i + glo(0), j + glo(1), k + glo(2));
  }

  // ---- FFT solve: ∇²φ = (G/a)(ρ − ρ̄) ---------------------------------------
  const double coef = p.grav_const_code / a;
  std::vector<fft::cplx> spec_data(rho.size());
  const util::ArrayView3<fft::cplx> spec(spec_data.data(), nx, ny, nz);
  fft::fft3_real(rho, spec, ex);
  // Eigenvalue of the 7-point Laplacian: Σ_d (2cos(2π f_d/n_d) − 2)/dx_d²,
  // summed in x, y, z order from +0.0 over the resolved axes, from one
  // table per axis.
  const int n[3] = {nx, ny, nz};
  std::vector<double> eig[3];
  for (int d = 0; d < 3; ++d) {
    const double dx = 1.0 / n[d];
    eig[d].resize(static_cast<std::size_t>(n[d]));
    for (int f = 0; f < n[d]; ++f) {
      const double ang = constants::kTwoPi * f / n[d];
      eig[d][static_cast<std::size_t>(f)] = (2.0 * std::cos(ang) - 2.0) / (dx * dx);
    }
  }
  exec::maybe_parallel_for(
      ex, static_cast<std::size_t>(nz), 1, [&](std::size_t k0, std::size_t k1) {
        for (auto kz = static_cast<int>(k0); kz < static_cast<int>(k1); ++kz)
          for (int ky = 0; ky < ny; ++ky)
            for (int kx = 0; kx < nx; ++kx) {
              if (kx == 0 && ky == 0 && kz == 0) {
                spec(kx, ky, kz) = 0.0;  // zero mean (removes ρ̄ exactly)
                continue;
              }
              double lam = 0.0;
              if (nx > 1) lam += eig[0][static_cast<std::size_t>(kx)];
              if (ny > 1) lam += eig[1][static_cast<std::size_t>(ky)];
              if (nz > 1) lam += eig[2][static_cast<std::size_t>(kz)];
              spec(kx, ky, kz) *= coef / lam;
            }
      });
  fft::ifft3_real(spec, phi, ex);

  // ---- scatter back with periodic ghosts ------------------------------------
  for (mesh::Grid* g : roots) {
    auto glo = [&](int d) { return g->spec().level_dims[d] > 1 ? 1 : 0; };
    const mesh::FieldView pot = g->potential();
    for (int k = -glo(2); k < g->nx(2) + glo(2); ++k)
      for (int j = -glo(1); j < g->nx(1) + glo(1); ++j)
        for (int i = -glo(0); i < g->nx(0) + glo(0); ++i) {
          const int gi =
              static_cast<int>(((g->box().lo[0] + i) % nx + nx) % nx);
          const int gj =
              static_cast<int>(((g->box().lo[1] + j) % ny + ny) % ny);
          const int gk =
              static_cast<int>(((g->box().lo[2] + k) % nz + nz) % nz);
          pot(i + glo(0), j + glo(1), k + glo(2)) = phi(gi, gj, gk);
        }
  }
}

}  // namespace enzo::gravity
