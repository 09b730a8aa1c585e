"""Compare two benchmark result sets metric by metric.

A result set is a JSONL file that run.py appends one record to per run
(default .bench_build/results.jsonl).  For every workload and end-to-end
metric, compare() prints each side's median and quartiles and a verdict
against the metric's bound in BENCHMARK.json:

  worse       the change's median is worse than the parent's by more
              than the bound
  better      the change wins at least 9 of 10 run pairs and the medians
              differ by more than the parent's own quartile spread
  same        neither: the medians agree within the bound
  unresolved  either side's quartile spread is wider than the bound, and
              the runs do not separate completely
"""

import json
import random
import statistics


def load(path):
    """Trace-0 records of a result set, grouped by workload, in run order."""
    by_workload = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("trace") or not rec.get("correct"):
                continue
            by_workload.setdefault(rec["workload"], []).append(rec["metrics"])
    return by_workload


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent, change, better, bound):
    """Verdict for one metric: parent and change are lists of run values."""
    sign = 1.0 if better == "lower" else -1.0
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    worse_by = sign * (cmed - pmed) / abs(pmed)
    wider = max((pq3 - pq1) / abs(pmed), (cq3 - cq1) / abs(cmed)) > bound
    all_better = all(sign * c < sign * p for p in parent for c in change)
    all_worse = all(sign * c > sign * p for p in parent for c in change)
    if wider:
        return "better" if all_better else "worse" if all_worse else "unresolved"
    if worse_by > bound:
        return "worse"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * c < sign * p)
    if wins >= 0.9 * len(pairs) and -sign * (cmed - pmed) > (pq3 - pq1):
        return "better"
    return "same"


def compare(bench, parent_path, change_path, out=print):
    """Print the comparison table; return the list of (workload, metric, verdict)."""
    parent, change = load(parent_path), load(change_path)
    rows = []
    for workload in [w["name"] for w in bench["workloads"]]:
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        if not p_runs or not c_runs:
            out(f"{workload}: missing runs (parent {len(p_runs)}, change {len(c_runs)})")
            continue
        for m in bench["end_to_end"]:
            name = m["name"]
            p = [r[name]["value"] for r in p_runs if name in r]
            c = [r[name]["value"] for r in c_runs if name in r]
            v = verdict(p, c, m["better"], m["bound"])
            pq, cq = quartiles(p), quartiles(c)
            out(f"{workload:20s} {name:26s} {m['unit']:>5s}  "
                f"parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}] n={len(p)}  "
                f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] n={len(c)}  "
                f"{100.0 * (cq[1] - pq[1]) / pq[1]:+.1f}%  bound {m['bound']:.0%}  {v}")
            rows.append((workload, name, v))
    return rows


def selfcheck(out=print):
    """Synthetic result sets with known answers; returns True when all hold."""
    rng = random.Random(11)
    bound = 0.1
    base = [1.0 + rng.uniform(-0.01, 0.01) for _ in range(10)]
    wide = [1.0 + rng.uniform(-0.4, 0.4) for _ in range(10)]
    cases = [
        ("slowdown 2x the bound", base, [v * (1 + 2 * bound) for v in base], "lower", "worse"),
        ("slowdown 1.2x the bound", base, [v * (1 + 1.2 * bound) for v in base], "lower", "worse"),
        ("drift a quarter of the bound", base, [v * (1 + bound / 4) for v in base], "lower", "same"),
        ("speed-up 3x the bound", base, [v * (1 - 3 * bound) for v in base], "lower", "better"),
        ("throughput loss 2x the bound", base, [v * (1 - 2 * bound) for v in base], "higher", "worse"),
        ("spread wider than the bound", wide, [v * 1.05 for v in wide], "lower", "unresolved"),
    ]
    ok = True
    for label, parent, change, better, want in cases:
        got = verdict(parent, change, better, bound)
        ok &= got == want
        out(f"selfcheck: {label:30s} want {want:10s} got {got:10s} {'ok' if got == want else 'FAIL'}")
    return ok
