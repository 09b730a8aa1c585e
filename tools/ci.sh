#!/usr/bin/env bash
# ci.sh: the full correctness matrix, in the order a PR gate should run it.
#
#   1. werror      — -Wall -Wextra -Werror, full test suite (includes the
#                    `io` label: checkpoint round-trips, restart determinism,
#                    and the ckpt_faultinject corruption/torn-write sweep)
#   2. lint        — tools/run_lint --all: the project linter (enzo-lint)
#                    whole-repo gate against tools/enzo_lint/baseline.txt
#   3. clang-tidy  — tools/run_tidy diff gate (skips if clang-tidy missing)
#   4. asan-ubsan  — AddressSanitizer + UBSan + ENZO_BOUNDS_CHECK,
#                    `ctest -L sanitize` subset (the fault sweep carries the
#                    sanitize label too, so torn-file parsing runs under asan)
#   5. tsan        — ThreadSanitizer (OpenMP off), `ctest -L sanitize` subset
#
# Extra on-demand stages re-run targeted suites against an existing
# build-werror tree: `io` (CI_STAGES="io") covers the checkpoint suite, and
# `topology` (CI_STAGES="topology") covers the `mesh` label — the overlap-
# topology cache equivalence/invalidation tests and the rest of mesh_test —
# and `regrid` (CI_STAGES="regrid") the storage-arena and rebuild keep-path
# tests, and `kernels` (CI_STAGES="kernels") the SoA kernel gate —
# check_vec (the kernel TUs must autovectorize), the
# micro-kernel bench (BENCH_micro_kernels.json), and check_kernels (>40%
# cells/sec regression vs bench/micro_kernels_baseline.json fails), and
# `regression` (CI_STAGES="regression") the analytic regression harness —
# `ctest -L regression` (full-resolution L1 convergence sweeps over the
# problem registry) plus a check_kernels gate on the end-to-end driver
# throughput (BENCH_regression.json vs bench/regression_baseline.json).
#
# Each stage uses the corresponding CMakePresets.json preset, so a local
# repro of any failure is one command, e.g.:
#   cmake --preset tsan && cmake --build --preset tsan -j && \
#   ctest --preset tsan
#
# Environment:
#   CI_JOBS     parallel build/test jobs (default: nproc)
#   CI_STAGES   space-separated subset to run (default: "werror lint tidy
#               asan-ubsan tsan")

set -u -o pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)
cd "$repo_root" || exit 2

jobs="${CI_JOBS:-$(nproc)}"
stages="${CI_STAGES:-werror lint tidy asan-ubsan tsan}"
failed=()

banner() { printf '\n==== %s ====\n' "$*"; }

run_preset() {
  local preset="$1"
  banner "stage: $preset"
  cmake --preset "$preset" || return 1
  cmake --build --preset "$preset" -j "$jobs" || return 1
  ctest --preset "$preset" -j "$jobs" --output-on-failure || return 1
}

for stage in $stages; do
  case "$stage" in
    lint)
      banner "stage: enzo-lint gate"
      # Whole-repo run of the project linter; new findings (anything not in
      # tools/enzo_lint/baseline.txt) fail the stage.  Uses build-werror's
      # compile database, configuring it if this stage runs first.
      if [ ! -f build-werror/compile_commands.json ]; then
        cmake --preset werror || { failed+=(lint); continue; }
      fi
      tools/run_lint -b build-werror --all || failed+=(lint)
      ;;
    tidy)
      banner "stage: clang-tidy gate"
      # Gate against the merge base when on a branch, else all of HEAD's
      # parent; run_tidy itself skips cleanly when clang-tidy is missing.
      tools/run_tidy -b build-werror || failed+=(tidy)
      ;;
    io)
      banner "stage: io checkpoint suite"
      # Targeted re-run of the checkpoint/restart tests and the fault sweep
      # against an existing werror build (configure+build it if missing).
      if [ ! -d build-werror ]; then
        cmake --preset werror && cmake --build --preset werror -j "$jobs" \
          || { failed+=(io); continue; }
      fi
      ctest --test-dir build-werror -L io -j "$jobs" --output-on-failure \
        || failed+=(io)
      ;;
    topology)
      banner "stage: overlap-topology suite"
      # Targeted re-run of the `mesh` label (topology cache equivalence,
      # invalidation, and the rest of mesh_test) against build-werror.
      if [ ! -d build-werror ]; then
        cmake --preset werror && cmake --build --preset werror -j "$jobs" \
          || { failed+=(topology); continue; }
      fi
      ctest --test-dir build-werror -L mesh -j "$jobs" --output-on-failure \
        || failed+=(topology)
      ;;
    regrid)
      banner "stage: regrid arena suite"
      # Targeted re-run of the storage-arena tests and the rebuild keep path
      # (kept grids against a freshly built oracle, zero steady-state heap
      # allocations, the flag dedupe at depth) against build-werror.
      if [ ! -d build-werror ]; then
        cmake --preset werror && cmake --build --preset werror -j "$jobs" \
          || { failed+=(regrid); continue; }
      fi
      ctest --test-dir build-werror \
        -R '^(Arena|Buffer3|StorageArena|RegridStorm|ArenaCheckpoint)\.|^Hierarchy\.Rebuild' \
        -j "$jobs" --output-on-failure || failed+=(regrid)
      ;;
    kernels)
      banner "stage: SoA kernel gate"
      # Vectorization report + micro-kernel throughput against the checked-in
      # baseline, all against build-werror (RelWithDebInfo, same flags the
      # baseline was recorded with).
      if [ ! -d build-werror ]; then
        cmake --preset werror && cmake --build --preset werror -j "$jobs" \
          || { failed+=(kernels); continue; }
      fi
      cmake --build --preset werror -j "$jobs" \
        --target micro_kernels --target check_kernels \
        || { failed+=(kernels); continue; }
      tools/check_vec build-werror || { failed+=(kernels); continue; }
      (cd build-werror/bench && ./micro_kernels) \
        || { failed+=(kernels); continue; }
      # 40% tolerance: back-to-back runs of the small per-kernel benches
      # swing ±25-30% on a shared host, so tighter gates flap without a
      # real regression.  The failures this gate exists to catch — a lane
      # loop falling back to scalar — show up as 2-3x drops.
      build-werror/tools/check_kernels \
        bench/micro_kernels_baseline.json \
        build-werror/bench/BENCH_micro_kernels.json 0.40 || failed+=(kernels)
      ;;
    regression)
      banner "stage: analytic regression harness"
      # Full-resolution convergence sweeps (Sod, Sedov, Zel'dovich; unigrid
      # and AMR) plus the end-to-end driver throughput gate.  The bench run
      # is repeated alone after the ctest pass so BENCH_regression.json is
      # recorded without contention from the convergence sweeps.
      if [ ! -d build-werror ]; then
        cmake --preset werror && cmake --build --preset werror -j "$jobs" \
          || { failed+=(regression); continue; }
      fi
      cmake --build --preset werror -j "$jobs" \
        --target regression_test --target check_kernels \
        || { failed+=(regression); continue; }
      ctest --test-dir build-werror -L regression -j "$jobs" \
        --output-on-failure || { failed+=(regression); continue; }
      (cd build-werror/tests && \
        ./regression_test --gtest_filter='RegressionBench.*') \
        || { failed+=(regression); continue; }
      # 50% tolerance: these are whole-driver runs (regrid, flux correction,
      # projection in the loop), noisier than the pinned micro-kernels; the
      # failures this catches — a hot path dropping out of the vector or
      # arena path — show up as 2x+ drops.
      build-werror/tools/check_kernels \
        bench/regression_baseline.json \
        build-werror/tests/BENCH_regression.json 0.50 || failed+=(regression)
      ;;
    werror|asan-ubsan|tsan)
      run_preset "$stage" || failed+=("$stage")
      ;;
    *)
      echo "ci.sh: unknown stage '$stage'" >&2
      failed+=("$stage")
      ;;
  esac
done

banner "summary"
if [ ${#failed[@]} -gt 0 ]; then
  echo "FAILED stages: ${failed[*]}"
  exit 1
fi
echo "all stages passed: $stages"
