#include "parallel/distributed.hpp"

#include <cmath>

#include "util/error.hpp"

namespace enzo::parallel {

namespace {

struct TileGeom {
  int tpa;   // tiles per axis
  int w;     // tile width (cells)
  int n;     // domain width
  int rank_of(int ti, int tj, int tk) const {
    auto wrap = [&](int t) { return ((t % tpa) + tpa) % tpa; };
    return wrap(ti) + tpa * (wrap(tj) + tpa * wrap(tk));
  }
};

}  // namespace

util::Buffer3 serial_jacobi(const util::Buffer3& input, int iters) {
  const int n = input.nx();
  util::Buffer3 a, b(n, n, n);
  a.copy_from(input);
  for (int it = 0; it < iters; ++it) {
    const util::ArrayView3<const double> f = a.view();
    const util::ArrayView3<double> out = b.view();
    auto P = [&](int i, int j, int k) {
      return f(((i % n) + n) % n, ((j % n) + n) % n, ((k % n) + n) % n);
    };
    for (int k = 0; k < n; ++k)
      for (int j = 0; j < n; ++j)
        for (int i = 0; i < n; ++i)
          out(i, j, k) = (P(i - 1, j, k) + P(i + 1, j, k) + P(i, j - 1, k) +
                          P(i, j + 1, k) + P(i, j, k - 1) + P(i, j, k + 1) +
                          f(i, j, k)) /
                         7.0;
    std::swap(a, b);
  }
  return a;
}

util::Buffer3 distributed_jacobi(const util::Buffer3& input,
                                 int tiles_per_axis, int iters,
                                 bool use_sterile, DistributedRunInfo* info) {
  const int n = input.nx();
  ENZO_REQUIRE(input.ny() == n && input.nz() == n, "domain must be cubic");
  ENZO_REQUIRE(n % tiles_per_axis == 0, "tiles must divide the domain");
  TileGeom geo{tiles_per_axis, n / tiles_per_axis, n, };
  const int nranks = tiles_per_axis * tiles_per_axis * tiles_per_axis;
  Transport transport(nranks);

  util::Buffer3 result_buf(n, n, n);
  const util::ArrayView3<const double> in = input.view();
  const util::ArrayView3<double> result = result_buf.view();
  std::mutex result_mu;

  run_ranks(transport, [&](int rank) {
    const int ti = rank % geo.tpa;
    const int tj = (rank / geo.tpa) % geo.tpa;
    const int tk = rank / (geo.tpa * geo.tpa);
    const int w = geo.w;
    // Local tile with one ghost layer.
    util::Buffer3 tile_buf(w + 2, w + 2, w + 2);
    util::Buffer3 next_buf(w + 2, w + 2, w + 2);
    util::ArrayView3<double> tile = tile_buf.view();
    util::ArrayView3<double> next = next_buf.view();
    for (int k = 0; k < w; ++k)
      for (int j = 0; j < w; ++j)
        for (int i = 0; i < w; ++i)
          tile(i + 1, j + 1, k + 1) = in(ti * w + i, tj * w + j, tk * w + k);

    // Face index helpers: face f = (axis d, side s).
    auto neighbor_rank = [&](int d, int s) {
      int t[3] = {ti, tj, tk};
      t[d] += s == 0 ? -1 : 1;
      return geo.rank_of(t[0], t[1], t[2]);
    };

    for (int it = 0; it < iters; ++it) {
      // Phase 1: post all sends (§3.4 two-phase; ordering is trivial here
      // since all six faces are needed "at once").
      for (int d = 0; d < 3; ++d)
        for (int s = 0; s < 2; ++s) {
          Message m;
          m.src = rank;
          m.dst = neighbor_rank(d, s);
          // Tag encodes (iteration, axis, receiving side).
          m.tag = it * 6 + d * 2 + (1 - s);
          m.object_id = static_cast<std::uint64_t>(m.dst);
          m.payload.reserve(static_cast<std::size_t>(w) * w);
          const int plane = s == 0 ? 1 : w;  // boundary layer to export
          for (int b = 0; b < w; ++b)
            for (int a = 0; a < w; ++a) {
              int idx[3];
              idx[d] = plane;
              idx[(d + 1) % 3] = a + 1;
              idx[(d + 2) % 3] = b + 1;
              m.payload.push_back(tile(idx[0], idx[1], idx[2]));
            }
          transport.send(std::move(m));
        }
      // Phase 2: receive the six halos.
      for (int d = 0; d < 3; ++d)
        for (int s = 0; s < 2; ++s) {
          const int src = use_sterile ? neighbor_rank(d, s) : -1;
          Message m = transport.receive(rank, src, it * 6 + d * 2 + s,
                                        static_cast<std::uint64_t>(rank));
          const int plane = s == 0 ? 0 : w + 1;
          std::size_t c = 0;
          for (int b = 0; b < w; ++b)
            for (int a = 0; a < w; ++a) {
              int idx[3];
              idx[d] = plane;
              idx[(d + 1) % 3] = a + 1;
              idx[(d + 2) % 3] = b + 1;
              tile(idx[0], idx[1], idx[2]) = m.payload[c++];
            }
        }
      // Smooth (edges/corners of the 7-point stencil only need faces).
      for (int k = 1; k <= w; ++k)
        for (int j = 1; j <= w; ++j)
          for (int i = 1; i <= w; ++i)
            next(i, j, k) =
                (tile(i - 1, j, k) + tile(i + 1, j, k) + tile(i, j - 1, k) +
                 tile(i, j + 1, k) + tile(i, j, k - 1) + tile(i, j, k + 1) +
                 tile(i, j, k)) /
                7.0;
      std::swap(tile, next);
      transport.barrier();
    }

    std::lock_guard<std::mutex> lock(result_mu);
    for (int k = 0; k < w; ++k)
      for (int j = 0; j < w; ++j)
        for (int i = 0; i < w; ++i)
          result(ti * w + i, tj * w + j, tk * w + k) =
              tile(i + 1, j + 1, k + 1);
  });

  if (info) {
    info->stats = transport.stats();
    info->nranks = nranks;
  }
  return result_buf;
}

}  // namespace enzo::parallel
