// Micro-benchmarks (google-benchmark) of the solver kernels: PPM sweeps,
// the ZEUS alternative, FFT, multigrid V-cycles, the chemistry network,
// CIC deposition, double–double arithmetic and the subgrid boundary fill —
// the per-kernel numbers behind the §5 performance discussion.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chemistry/chemistry.hpp"
#include "chemistry/rates.hpp"
#include "hydro/riemann.hpp"
#include "ext/dd.hpp"
#include "fft/fft.hpp"
#include "gravity/gravity.hpp"
#include "hydro/hydro.hpp"
#include "mesh/boundary.hpp"
#include "mesh/hierarchy.hpp"
#include "mesh/interpolate.hpp"
#include "nbody/nbody.hpp"
#include "perf/metrics.hpp"
#include "util/constants.hpp"
#include "util/rng.hpp"

using namespace enzo;
using mesh::Field;

namespace {

mesh::Hierarchy hydro_box(int n, bool chem = false) {
  mesh::HierarchyParams p;
  p.root_dims = {n, n, n};
  if (chem) p.fields = mesh::chemistry_field_list();
  mesh::Hierarchy h(p);
  h.build_root();
  mesh::Grid* g = h.grids(0)[0];
  util::Rng rng(7);
  for (Field f : g->field_list()) {
    for (auto& v : g->field(f))
      v = mesh::is_density_like(f) ? 0.5 + rng.uniform()
                                   : 0.2 * rng.uniform(-1, 1);
  }
  g->field(Field::kInternalEnergy).fill(1.0);
  g->field(Field::kTotalEnergy).fill(1.1);
  return h;
}

void BM_PpmStep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto h = hydro_box(n);
  mesh::Grid* g = h.grids(0)[0];
  hydro::HydroParams hp;
  auto exp = cosmology::Expansion::statics();
  mesh::set_boundary_values(h, 0);
  for (auto _ : state) {
    hydro::solve_hydro_step(*g, 1e-4, hp, exp);
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_PpmStep)->Arg(16)->Arg(32);

void BM_ZeusStep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto h = hydro_box(n);
  mesh::Grid* g = h.grids(0)[0];
  hydro::HydroParams hp;
  hp.solver = hydro::Solver::kZeus;
  auto exp = cosmology::Expansion::statics();
  mesh::set_boundary_values(h, 0);
  for (auto _ : state) hydro::solve_hydro_step(*g, 1e-4, hp, exp);
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_ZeusStep)->Arg(16)->Arg(32);

void BM_PpmSubgrid(benchmark::State& state) {
  // An n³ child of a 16³ root with the chemistry field list and ghosts from
  // the boundary fill.  n = 8 is the small-subgrid regime of the sedov and
  // first_star decks, where a pencil is twice as long as the active cells it
  // updates and the ghost rows outnumber the active ones; n = 4 is the deep
  // run's shape (ROADMAP item 2: level-10 grids of at most 64 cells), whose
  // pencils are 12 cells long.
  const int n = static_cast<int>(state.range(0));
  mesh::Hierarchy h = hydro_box(16, true);
  mesh::Grid* root = h.grids(0)[0];
  root->store_old_fields();
  const int lo = 16 - n / 2, hi = lo + n;
  auto child = std::make_unique<mesh::Grid>(
      h.make_spec(1, {{lo, lo, lo}, {hi, hi, hi}}), root->field_list());
  child->set_parent(root);
  mesh::Grid* g = h.insert_grid(std::move(child));
  mesh::fill_active_from_parent(*g, *root);
  mesh::set_boundary_values(h, 0);
  mesh::set_boundary_values(h, 1);
  hydro::HydroParams hp;
  auto exp = cosmology::Expansion::statics();
  for (auto _ : state) hydro::solve_hydro_step(*g, 1e-4, hp, exp);
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_PpmSubgrid)->Arg(8)->Arg(4);

void BM_Fft3(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<fft::cplx> cells(static_cast<std::size_t>(n) * n * n);
  const util::ArrayView3<fft::cplx> a(cells.data(), n, n, n);
  util::Rng rng(3);
  for (auto& c : a) c = fft::cplx(rng.gaussian(), 0.0);
  for (auto _ : state) {
    fft::fft3(a, false);
    fft::fft3(a, true);
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Fft3)->Arg(16)->Arg(32)->Arg(64);

void BM_MultigridSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Buffer3 rhs_buf(n + 2, n + 2, n + 2);
  const mesh::FieldView rhs = rhs_buf.view();
  util::Rng rng(5);
  for (int k = 1; k <= n; ++k)
    for (int j = 1; j <= n; ++j)
      for (int i = 1; i <= n; ++i) rhs(i, j, k) = rng.uniform(-1, 1);
  gravity::GravityParams p;
  for (auto _ : state) {
    util::Buffer3 phi(n + 2, n + 2, n + 2);
    gravity::multigrid_solve(phi.view(), rhs, 1.0 / n, p);
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MultigridSolve)->Arg(16)->Arg(32);

// A subgrid-sized solve of a 12×ny×14 child, with Dirichlet ghosts and an
// initial guess from a smooth parent potential and a central mass.  ny = 10
// coarsens once (to 6×5×7), the 2-level stack most collapse-deck solves
// run; ny = 2 (a child one parent cell thick) gets a 1-level stack.
void BM_MultigridSubgrid(benchmark::State& state) {
  const int nx = 12, ny = static_cast<int>(state.range(0)), nz = 14;
  util::Buffer3 guess_buf(nx + 2, ny + 2, nz + 2);
  util::Buffer3 rhs_buf(nx + 2, ny + 2, nz + 2);
  const mesh::FieldView guess = guess_buf.view(), rhs = rhs_buf.view();
  const double cy = 0.5 * (ny + 1);
  for (int k = 0; k < nz + 2; ++k)
    for (int j = 0; j < ny + 2; ++j)
      for (int i = 0; i < nx + 2; ++i) {
        const double r2 = (i - 6.5) * (i - 6.5) + (j - cy) * (j - cy) +
                          (k - 7.5) * (k - 7.5);
        guess(i, j, k) = -1.0 / std::sqrt(1.0 + r2);
        rhs(i, j, k) = std::exp(-r2 / 8.0);
      }
  util::Buffer3 phi(nx + 2, ny + 2, nz + 2);
  gravity::GravityParams p;
  for (auto _ : state) {
    phi.copy_from(guess_buf);
    benchmark::DoNotOptimize(
        gravity::multigrid_solve(phi.view(), rhs, 1.0 / 64, p));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * nx * ny * nz);
}
BENCHMARK(BM_MultigridSubgrid)->Arg(10)->Arg(2);

// One level's whole subgrid gravity layer, serial: parent interpolation and
// right-hand sides, three solves per grid and two sibling exchanges, on
// eight 8×12×8 siblings (2-level stacks) tiling the centre of a 16³ root
// with a lumpy mass.  Items are the level's active cells.
void BM_SubgridGravity(benchmark::State& state) {
  mesh::HierarchyParams hp;
  hp.root_dims = {16, 16, 16};
  hp.max_level = 1;
  mesh::Hierarchy h(hp);
  h.build_root();
  mesh::Grid* root = h.grids(0)[0];
  for (Field f : root->field_list()) root->field(f).fill(1.0);
  root->store_old_fields();
  for (std::int64_t z = 8; z < 24; z += 8)
    for (std::int64_t y = 4; y < 28; y += 12)
      for (std::int64_t x = 8; x < 24; x += 8) {
        auto g = std::make_unique<mesh::Grid>(
            h.make_spec(1, {{x, y, z}, {x + 8, y + 12, z + 8}}), hp.fields);
        g->set_parent(root);
        for (Field f : g->field_list()) g->field(f).fill(1.0);
        h.insert_grid(std::move(g));
      }
  gravity::begin_gravitating_mass(h, 0);
  gravity::begin_gravitating_mass(h, 1);
  util::Rng rng(29);
  std::int64_t cells = 0;
  for (mesh::Grid* g : h.grids(1)) {
    for (double& v : g->gravitating_mass()) v = rng.uniform(0.5, 4.0);
    cells += std::int64_t(g->nx(0)) * g->nx(1) * g->nx(2);
  }
  gravity::restrict_gravitating_mass(h);
  const gravity::GravityParams p;
  gravity::solve_root_gravity(h, p, 1.0);
  for (auto _ : state) {
    gravity::solve_subgrid_gravity(h, 1, p, 1.0);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * cells);
}
BENCHMARK(BM_SubgridGravity);

void BM_ChemistryStep(benchmark::State& state) {
  auto h = hydro_box(8, true);
  mesh::Grid* g = h.grids(0)[0];
  chemistry::ChemistryParams prm;
  chemistry::initialize_primordial_composition(*g, prm, 1e-3, 1e-4);
  chemistry::ChemUnits u;
  u.n_factor = 1e4;
  u.rho_cgs = 1e4 * constants::kHydrogenMass;
  u.e_cgs = constants::kBoltzmann / constants::kHydrogenMass;
  for (auto& v : g->field(Field::kInternalEnergy)) v = 500.0;
  // Every iteration steps the same initial state (restored untimed), so the
  // subcycles per iteration do not depend on the iteration count.
  const std::vector<Field>& fields = g->field_list();
  std::vector<std::vector<double>> initial;
  for (Field f : fields)
    initial.emplace_back(g->field(f).begin(), g->field(f).end());
  perf::Counter& subcycles =
      perf::Registry::global().counter("chemistry.subcycles");
  const std::uint64_t subcycles0 = subcycles.value();
  for (auto _ : state) {
    state.PauseTiming();
    for (std::size_t q = 0; q < fields.size(); ++q)
      std::copy(initial[q].begin(), initial[q].end(),
                g->field(fields[q]).begin());
    state.ResumeTiming();
    chemistry::solve_chemistry_step(*g, 3.15e10, prm, u);
  }
  state.SetItemsProcessed(state.iterations() * 8 * 8 * 8);
  state.counters["cell_subcycles"] = benchmark::Counter(
      static_cast<double>(subcycles.value() - subcycles0),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ChemistryStep);

void BM_CicDeposit(benchmark::State& state) {
  auto h = hydro_box(16);
  mesh::Grid* g = h.grids(0)[0];
  g->allocate_gravity();
  util::Rng rng(11);
  for (int i = 0; i < 32768; ++i) {
    mesh::Particle p;
    p.x = {ext::pos_t(rng.uniform()), ext::pos_t(rng.uniform()),
           ext::pos_t(rng.uniform())};
    p.mass = 1.0 / 32768;
    g->particles().push_back(p);
  }
  for (auto _ : state) {
    g->gravitating_mass().fill(0.0);
    nbody::deposit_particles_cic(*g);
  }
  state.SetItemsProcessed(state.iterations() * 32768);
}
BENCHMARK(BM_CicDeposit);

void BM_DdArithmetic(benchmark::State& state) {
  using enzo::ext::dd;
  dd acc(1.0), x(1.0 + 1e-12);
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) acc = acc * x + dd(1e-20);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_DdArithmetic);

void BM_DoubleArithmetic(benchmark::State& state) {
  double acc = 1.0, x = 1.0 + 1e-12;
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) acc = acc * x + 1e-20;
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_DoubleArithmetic);

void BM_RiemannBatch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(17);
  std::vector<double> rho_l(n), u_l(n), p_l(n), rho_r(n), u_r(n), p_r(n);
  std::vector<double> rho(n), u(n), p(n), pstar(n), ustar(n);
  std::vector<double> cl(n), cr(n), wl(n), wr(n);
  for (int f = 0; f < n; ++f) {
    rho_l[f] = 0.5 + rng.uniform();
    rho_r[f] = 0.5 + rng.uniform();
    p_l[f] = 0.1 + rng.uniform();
    p_r[f] = 0.1 + rng.uniform();
    u_l[f] = rng.uniform(-1, 1);
    u_r[f] = rng.uniform(-1, 1);
  }
  const hydro::RiemannBatch b{rho_l.data(), u_l.data(),   p_l.data(),
                              rho_r.data(), u_r.data(),   p_r.data(),
                              rho.data(),   u.data(),     p.data(),
                              pstar.data(), ustar.data(), cl.data(),
                              cr.data(),    wl.data(),    wr.data()};
  // n faces in rows of kBatch.
  for (auto _ : state) {
    hydro::riemann_two_shock_batch(0, n / hydro::kBatch - 1, b, 5.0 / 3.0);
    benchmark::DoNotOptimize(rho.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RiemannBatch)->Arg(256);

void BM_RateBatch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<double> T(n);
  for (int i = 0; i < n; ++i)
    T[i] = std::pow(10.0, 1.0 + 5.0 * i / (n - 1.0));  // 10 K .. 1e6 K
  chemistry::RateBatch batch;
  for (auto _ : state) {
    batch.compute(n, T.data());
    benchmark::DoNotOptimize(batch.row(0).k1);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RateBatch)->Arg(256);

void BM_CoolingBatch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<double> T(n), nHI(n), nHII(n), nHeI(n), nHeII(n), nHeIII(n),
      ne(n), nH2(n), nHD(n), lambda(n);
  for (int i = 0; i < n; ++i) {
    T[i] = std::pow(10.0, 1.0 + 5.0 * i / (n - 1.0));  // 10 K .. 1e6 K
    const double nH = std::pow(10.0, -2.0 + 8.0 * i / (n - 1.0));
    nHI[i] = 0.9 * nH;
    nHII[i] = 0.1 * nH;
    nHeI[i] = 0.08 * nH;
    nHeII[i] = 0.01 * nH;
    nHeIII[i] = 0.001 * nH;
    ne[i] = nHII[i] + nHeII[i] + 2.0 * nHeIII[i];
    nH2[i] = 1e-3 * nH;
    nHD[i] = 1e-7 * nH;
  }
  const chemistry::CoolingRowInput in{
      T.data(),      nHI.data(), nHII.data(), nHeI.data(), nHeII.data(),
      nHeIII.data(), ne.data(),  nH2.data(),  nHD.data()};
  // Λ from coefficient lanes the rate lookup already filled (BM_RateBatch
  // times that lookup).
  chemistry::RateBatch coefs;
  coefs.compute(n, T.data());
  const chemistry::CmbTerms cmb = chemistry::cmb_terms(54.5);
  for (auto _ : state) {
    chemistry::cooling_rate_batch(coefs, cmb, in, lambda.data());
    benchmark::DoNotOptimize(lambda.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CoolingBatch)->Arg(256);

void BM_BoundaryFill(benchmark::State& state) {
  // Two levels with the chemistry field list: a 16³ root whose old state
  // lies at t = 0 and new state at t = 1, and a 2×2×2 block of 8³ children
  // at t = 0.5, so every child blends old and new with weight 0.5 and has
  // seven siblings whose overlaps its parent fill skips.
  mesh::HierarchyParams p;
  p.root_dims = {16, 16, 16};
  p.max_level = 1;
  p.fields = mesh::chemistry_field_list();
  mesh::Hierarchy h(p);
  h.build_root();
  mesh::Grid* root = h.grids(0)[0];
  util::Rng rng(23);
  auto randomize = [&](mesh::Grid* g) {
    for (Field f : g->field_list())
      for (auto& v : g->field(f)) v = 0.5 + rng.uniform();
  };
  randomize(root);
  root->store_old_fields();
  randomize(root);
  root->set_time(ext::pos_t(1.0));
  for (std::int64_t z = 8; z < 24; z += 8)
    for (std::int64_t y = 8; y < 24; y += 8)
      for (std::int64_t x = 8; x < 24; x += 8) {
        auto g = std::make_unique<mesh::Grid>(
            h.make_spec(1, {{x, y, z}, {x + 8, y + 8, z + 8}}), p.fields);
        g->set_parent(root);
        g->set_time(ext::pos_t(0.5));
        randomize(g.get());
        h.insert_grid(std::move(g));
      }
  std::int64_t ghosts = 0;
  for (const mesh::Grid* g : h.grids(1))
    ghosts += std::int64_t(g->nt(0)) * g->nt(1) * g->nt(2) -
              std::int64_t(g->nx(0)) * g->nx(1) * g->nx(2);
  for (auto _ : state) {
    mesh::set_boundary_values(h, 1);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * ghosts);
}
BENCHMARK(BM_BoundaryFill);

// ---------------------------------------------------------------------------
// Reporter: collect finalized per-kernel throughput (cells/sec) and write it
// to BENCH_micro_kernels.json alongside the usual console table.  The
// `items_per_second` counter is finalized by the framework (kIsRate) before
// ReportRuns, so the values here match the console column exactly.
// ---------------------------------------------------------------------------

struct KernelStats {
  double cells_per_second = 0.0;
  double cpu_seconds_per_iteration = 0.0;
};

class ThroughputCollector : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& r : reports) {
      if (r.run_type != Run::RT_Iteration || r.error_occurred) continue;
      KernelStats s;
      auto it = r.counters.find("items_per_second");
      if (it != r.counters.end()) s.cells_per_second = it->second.value;
      if (r.iterations > 0)
        s.cpu_seconds_per_iteration =
            r.cpu_accumulated_time / static_cast<double>(r.iterations);
      stats_[r.benchmark_name()] = s;
    }
    benchmark::ConsoleReporter::ReportRuns(reports);
  }

  const std::map<std::string, KernelStats>& stats() const { return stats_; }

 private:
  std::map<std::string, KernelStats> stats_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ThroughputCollector reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  std::ofstream out("BENCH_micro_kernels.json");
  out << "{\n  \"kernels\": {\n";
  bool first = true;
  for (const auto& [name, s] : reporter.stats()) {
    if (!first) out << ",\n";
    first = false;
    out << "    \"" << name << "\": {\"cells_per_second\": "
        << s.cells_per_second
        << ", \"cpu_seconds_per_iteration\": " << s.cpu_seconds_per_iteration
        << "}";
  }
  out << "\n  }\n}\n";
  benchmark::Shutdown();
  return 0;
}
