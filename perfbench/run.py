#!/usr/bin/env python3
"""Whole-deck benchmark for enzo-mini.

  python3 perfbench/run.py --workload first_star --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --compare PARENT.jsonl CHANGE.jsonl
  python3 perfbench/run.py --selfcheck

Run from the repository root.  One run builds perfbench_run from source
(into .bench_build/), generates the workload's deck from the seed, runs it
as a closed batch in fresh processes -- 4 lanes (thread pool), then 1 lane
(serial backend) -- checks every episode, and prints every metric by name
with its unit.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
--trace 0, per-layer metrics of the traced replay with --trace 1.  Each run
is also appended to .bench_build/results.jsonl for --compare.  See
perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import compare  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "cmake", "perfbench_run")
LANES = 4
# The clock probe's time (perfbench_run's clock_probe) on the reference
# machine at its usual clock.  Times are reported at that clock: each is
# multiplied by PROBE_REF_S over the mean of the probes taken just before
# and just after it.
PROBE_REF_S = 1.6e-3
PROCESS_TIMEOUT_S = 170
# No process starts after this many seconds of a run, so that a run on a
# machine much slower than the reference one still ends in time.
LAUNCH_DEADLINE_S = 110
# Set-up time depends on the state a fresh process starts in (the same
# set-up repeats to a few per cent inside one process, but differs by up to
# 1.5x from one process to the next), so every run also starts this many
# processes that only time set-ups, spread over the run.
SETUP_PROCESSES = 6

# deck: shipped deck; steps: root steps per episode; plan: the lane count of
# each fresh process, run in this order (alternating, so both lane counts
# sample the whole run), each timing one episode; setup_reps: extra set-ups
# timed per process; plan_s: seconds one pass of the plan takes on the
# reference machine.  The plan runs
# round(--seconds / plan_s) times, so how many samples a run takes depends
# on --seconds only, not on the speed of the code.  overrides: deck keys
# replaced in the generated deck; seeded: the problem reads RandomSeed;
# l1_max: registry L1 tolerance checked after each episode.
WORKLOADS = {
    "first_star": dict(deck="decks/first_star.enzo", steps=1, plan="41",
                       setup_reps=8, plan_s=28),
    "isothermal_collapse": dict(deck="decks/isothermal_collapse.enzo", steps=1,
                                plan="4141414", setup_reps=10, plan_s=19),
    # The regression harness gates the Sedov L1 density error below 0.09.
    "sedov": dict(deck="decks/sedov.enzo", steps=30, plan="41414",
                  setup_reps=30, plan_s=26, l1_max=0.09),
    "cosmology": dict(deck="decks/cosmology_box.enzo", steps=5, plan="4141414141",
                      setup_reps=2, plan_s=20,
                      overrides={"TopGridDimensions": "32 32 32"}, seeded=True),
}

def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# ---- build -------------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no program sources under {ROOT}/src", 2)
    os.makedirs(BUILD, exist_ok=True)
    cmake_dir = os.path.join(BUILD, "cmake")
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir, *gen,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "perfbench_run",
                  "-j", str(os.cpu_count() or 1)])
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "a") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=env).returncode
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed ({' '.join(cmd[:2])}); log in {log_path}")


# ---- inputs ------------------------------------------------------------------

def make_deck(name, seed):
    """Write the workload's deck for this seed; the same seed, the same deck."""
    w = WORKLOADS[name]
    overrides = dict(w.get("overrides", {}))
    if w.get("seeded"):
        overrides["RandomSeed"] = str(seed)
    lines = [f"# perfbench workload {name}, seed {seed}, from {w['deck']}"]
    with open(os.path.join(ROOT, w["deck"])) as f:
        for line in f:
            key = line.split("=")[0].strip()
            if key in overrides:
                line = f"{key} = {overrides.pop(key)}\n"
            lines.append(line.rstrip("\n"))
    lines += [f"{k} = {v}" for k, v in overrides.items()]
    path = os.path.join(BUILD, "decks", f"{name}-{seed}.enzo")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return path


# ---- processes ----------------------------------------------------------------

def run_process(deck, w, lanes, episodes, setup_reps, warmup=0, trace=False):
    """One fresh perfbench_run process; returns its parsed result."""
    cmd = [BINARY, "--deck", deck, "--lanes", str(lanes), "--steps", str(w["steps"]),
           "--episodes", str(episodes), "--setup-reps", str(setup_reps),
           "--warmup", str(warmup)]
    if "l1_max" in w:
        cmd += ["--l1-max", str(w["l1_max"])]
    if trace:
        cmd.append("--trace")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{lanes}-lane process timed out")
    if p.returncode != 0 or not p.stdout.strip():
        sys.stderr.write(p.stderr[-2000:])
        fail(f"{lanes}-lane process exited {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def refuse_debug(result):
    b = result["build"]
    if b["build_type"] == "Debug" or not b["ndebug"] or b["sanitized"]:
        fail(f"refusing to record from a {b['build_type']} / sanitizer build", 3)


def run_record(result):
    info = {}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                info.setdefault(key.strip(), value.strip())
    except OSError:
        pass
    # /proc/cpuinfo "cache size" is the last-level cache on x86.
    llc = info.get("cache size", "0 KB").split()
    head = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        head = p.stdout.strip() or head
    b = result["build"]
    return {"nproc": os.cpu_count(), "cpu_model": info.get("model name", "unknown"),
            "llc_kb": int(llc[0]) if llc and llc[0].isdigit() else 0,
            "compiler": b["compiler"], "build_type": b["build_type"],
            "enzo_kernel_native": b["kernel_native"], "git_head": head}


def fingerprint(ep):
    return (ep["grid_crc"], ep["meta_crc"], tuple(sorted(ep["counts"].items())))


def check_episodes(groups, problems):
    """Mark episodes that fail their own checks or differ from the first
    episode's fingerprint and exact counts; returns (attempted, failed)."""
    episodes = [ep for g in groups for ep in g]
    ref = fingerprint(episodes[0])
    failed = 0
    for ep in episodes:
        ep["passed"] = ep["ok"] and fingerprint(ep) == ref
        if not ep["ok"]:
            problems.append(ep["why"])
        elif fingerprint(ep) != ref:
            problems.append("fingerprint or exact counts differ across lanes/episodes")
        failed += not ep["passed"]
    return len(episodes), failed


def median(values):
    return statistics.median(values) if values else float("nan")


def at_ref_clock(seconds, probes):
    """`seconds` rescaled to the reference clock; `probes` bracket it."""
    return seconds * PROBE_REF_S / statistics.fmean(probes)


def scaled_steps(ep):
    p = ep["probe_s"]
    return [at_ref_clock(t, p[i + 1:i + 3]) for i, t in enumerate(ep["step_s"])]


def scaled_setups(result):
    p = result["setup_probe_s"]
    return [at_ref_clock(t, p[i:i + 2]) for i, t in enumerate(result["setup_s"])]


def best_step_s(episodes, steps):
    """Per root step, the fastest time any episode took; summed over steps.
    Every episode replays the same steps, so each step's minimum is its cost
    with the least interference from other load on the machine.  The number
    of episodes is fixed per workload, so two builds take their minima over
    the same number of samples."""
    if not episodes:
        return float("nan")
    return sum(min(col) for col in zip(*(steps(e) for e in episodes)))


# ---- one run -------------------------------------------------------------------

def run(args):
    bench = load_bench()
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload}; choose from {', '.join(WORKLOADS)}", 2)
    w = WORKLOADS[args.workload]
    build()
    deck = make_deck(args.workload, args.seed)
    problems = []

    if not args.trace:
        passes = max(1, round(args.seconds / w["plan_s"]))
        plan = [LANES if c == "4" else 1 for c in w["plan"] * passes]
        setup_only = [(LANES if j % 2 == 0 else 1, 0) for j in range(SETUP_PROCESSES)]
        schedule = []
        for i, lanes in enumerate(plan):
            schedule.append((lanes, 1))
            schedule += setup_only[i * len(setup_only) // len(plan):
                                   (i + 1) * len(setup_only) // len(plan)]
        start = time.monotonic()
        results = []
        for i, (lanes, episodes) in enumerate(schedule):
            if (time.monotonic() - start > LAUNCH_DEADLINE_S
                    and {LANES, 1} <= {n for n, r in results if r["episodes"]}):
                print(f"launch deadline: ran {i} of {len(schedule)} processes")
                break
            results.append((lanes, run_process(deck, w, lanes, episodes, w["setup_reps"])))
            refuse_debug(results[-1][1])
        r4s = [r for lanes, r in results if lanes == LANES and r["episodes"]]
        r1s = [r for lanes, r in results if lanes == 1 and r["episodes"]]
        runs4 = [e for r in r4s for e in r["episodes"]]
        runs1 = [e for r in r1s for e in r["episodes"]]
        attempted, failed = check_episodes([runs4, runs1], problems)
        ok4 = [e for e in runs4 if e["passed"]]
        ok1 = [e for e in runs1 if e["passed"]]
        zones = runs4[0]["counts"]["driver.zone_cycles"]
        best4, best1 = best_step_s(ok4, scaled_steps), best_step_s(ok1, scaled_steps)
        setups = [s for _, r in results for s in scaled_setups(r)]
        setups += [at_ref_clock(e["setup_s"], e["probe_s"][:2]) for e in ok4 + ok1]
        raw4 = best_step_s(ok4, lambda e: e["step_s"])
        raw1 = best_step_s(ok1, lambda e: e["step_s"])
        probes = [p for _, r in results for p in r["setup_probe_s"]]
        probes += [p for e in runs4 + runs1 for p in e["probe_s"]]
        values = {
            "root_step_s": best4 / w["steps"],
            "root_step_s_serial": best1 / w["steps"],
            "zone_cycles_per_s": zones / best4,
            "zone_cycles_per_s_serial": zones / best1,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in r4s),
            "setup_s": median(setups),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
        counts = runs4[0]["counts"]
        record = run_record(r4s[0])
        print(f"episodes: 4 lanes {len(runs4)}, 1 lane {len(runs1)}; "
              f"failed_frac {failed / attempted:.3g}")
        print(f"wall clock: root step {raw4 / w['steps']:.6g} s, serial "
              f"{raw1 / w['steps']:.6g} s; clock probe median "
              f"{statistics.median(probes):.6g} s (reference {PROBE_REF_S} s)")
    else:
        # One warm-up episode first, so that the reference, the replay and
        # the serial episode all run warm.
        r1 = run_process(deck, w, 1, 1, 0, warmup=1)
        rt = run_process(deck, w, LANES, 1, 0, warmup=1, trace=True)
        refuse_debug(rt)
        attempted, failed = check_episodes([rt["episodes"], r1["episodes"]], problems)
        t = rt["trace"]
        attempted += 1
        # core.unattributed_s is measured as the gaps between layer calls, so
        # this sum is the traced wall only if the layer spans nest properly.
        accounted = abs(t["accounted_s"] - t["traced_wall_s"]) <= 1e-6 * t["traced_wall_s"]
        why = [t["why"]] if t["why"] else []
        if not t["spans_ok"]:
            why.append(t["spans_why"])
        if not accounted:
            why.append(f"layer spans plus core.unattributed_s are {t['accounted_s']:.6f} s, "
                       f"the traced wall is {t['traced_wall_s']:.6f} s")
        if t["grid_crc"] != r1["episodes"][0]["grid_crc"]:
            why.append("replay fingerprint differs from the 1-lane run")
        if why or not (t["identical"] and t["ok"]):
            failed += 1
            problems.append("; ".join(why) or "replay check failed")
        layer = dict(t["metrics"])
        layer["exec.lane_speedup"] = (r1["episodes"][0]["evolve_s"]
                                      / rt["episodes"][0]["evolve_s"])
        metrics = {}
        for m in bench["per_layer"]:
            if m["name"] not in layer:
                fail(f"per-layer metric {m['name']} not produced")
            metrics[m["name"]] = {"value": layer[m["name"]], "unit": m["unit"]}
        counts = rt["episodes"][0]["counts"]
        record = run_record(rt)
        print(f"replay: byte-identical {t['identical']}, {t['spans']} spans, "
              f"traced {t['traced_wall_s']:.4f} s vs untraced {t['untraced_wall_s']:.4f} s")

    correct = failed == 0
    for p in problems:
        print(f"check failed: {p}")
    print("record: " + json.dumps(record))
    print("exact counts: " + json.dumps(counts))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    with open(os.path.join(BUILD, "results.jsonl"), "a") as f:
        f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                            "trace": args.trace, "correct": correct,
                            "attempted": attempted, "failed": failed,
                            "time": time.time(), "record": record,
                            "counts": counts, "metrics": metrics}) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if args.selfcheck:
        sys.exit(0 if compare.selfcheck() else 1)
    if args.compare:
        compare.compare(load_bench(), *args.compare)
        return
    if not args.workload:
        ap.error("--workload is required")
    run(args)


if __name__ == "__main__":
    main()
