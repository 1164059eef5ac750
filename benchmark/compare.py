#!/usr/bin/env python3
"""Compare two benchmark sets (files written by `run.sh --out`).

    benchmark/compare.py A.json B.json

For every (workload, end-to-end metric) it prints both medians, how much
worse B is than A in the metric's own direction, and a verdict against
the bound fixed in BENCHMARK.json:

    unchanged    B is not worse than A by more than the bound
    improved     B is better than A by more than the bound
    REGRESSED    B is worse than A by more than the bound
    unresolved   the run-to-run spread (IQR / median of either side) is
                 wider than the bound, and B's runs do not all read
                 better (or all worse) than every run of A

Counts that must repeat for one seed (`msgs_per_op`, `satisfied_pct`, the
per-layer rows a set marks `exact`) are also compared bit for bit.
Per-layer time rows have no bound; they are listed with their relative
difference only.

Refuses smoke (`--quick`) results and sets that differ in `nproc`,
`workers`, `--seed`, `--seconds` or segment size: those numbers are not
comparable. Exit code: 0 = nothing regressed and every exact count
equal, 1 = a regression or an exact count differs, 2 = refused.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXACT_END_TO_END = ("msgs_per_op", "satisfied_pct")


def refuse(msg):
    print(f"refused: {msg}", file=sys.stderr)
    sys.exit(2)


def load(path):
    with open(path) as f:
        runs = json.load(f)["runs"]
    if not runs:
        refuse(f"{path} holds no runs")
    if any(r["smoke"] for r in runs):
        refuse(f"{path} is a smoke (--quick) set")
    return runs


def shape(runs, path):
    """What must be equal between two sets for them to be comparable."""
    keys = ("nproc", "workers", "seed", "seconds")
    shapes = {tuple(r[k] for k in keys) for r in runs}
    if len(shapes) != 1:
        refuse(f"{path} mixes runs taken with different {keys}")
    sizes = {(r["workload"], r["segment_ops"]) for r in runs if r["trace"] == 0}
    return dict(zip(keys, shapes.pop())), sizes


def group(runs, trace):
    out = {}
    for r in runs:
        if r["trace"] == trace:
            for name, m in r["metrics"].items():
                out.setdefault((r["workload"], name), []).append(m["value"])
    return out


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / abs(med) if med else 0.0


def worse_by(a, b, better):
    """Share of A's median by which B's median is worse (negative = better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    delta = (b - a) / abs(a)
    return delta if better == "lower" else -delta


def verdict(a_vals, b_vals, better, bound):
    a, b = statistics.median(a_vals), statistics.median(b_vals)
    w = worse_by(a, b, better)
    noisy = max(spread(a_vals), spread(b_vals)) > bound
    if better == "lower":
        all_better = max(b_vals) < min(a_vals)
        all_worse = min(b_vals) > max(a_vals)
    else:
        all_better = min(b_vals) > max(a_vals)
        all_worse = max(b_vals) < min(a_vals)
    if noisy and not (all_better or all_worse):
        return w, "unresolved"
    if w > bound:
        return w, "REGRESSED"
    if w < -bound:
        return w, "improved"
    return w, "unchanged"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    a_runs, b_runs = load(sys.argv[1]), load(sys.argv[2])
    (a_shape, a_sizes), (b_shape, b_sizes) = shape(a_runs, sys.argv[1]), shape(b_runs, sys.argv[2])
    if a_shape != b_shape:
        refuse(f"sets are not comparable: {a_shape} vs {b_shape}")
    if a_sizes != b_sizes:
        refuse(f"sets differ in workloads or segment sizes: {sorted(a_sizes ^ b_sizes)}")
    print(f"A = {sys.argv[1]} ({a_runs[0]['commit']})   B = {sys.argv[2]} ({b_runs[0]['commit']})")
    print("   ".join(f"{k} {v}" for k, v in a_shape.items()))

    bad = False
    a, b = group(a_runs, 0), group(b_runs, 0)
    workloads = [w["name"] for w in bench["workloads"]]
    print(f"\n{'workload':<20}{'metric':<15}{'A':>14}{'B':>14}{'worse by':>10}{'bound':>7}  verdict")
    for w in workloads:
        for m in bench["end_to_end"]:
            key = (w, m["name"])
            if key not in a or key not in b:
                refuse(f"{key} is missing from one set")
            by, v = verdict(a[key], b[key], m["better"], m["bound"])
            note = f" (n={len(a[key])},{len(b[key])})"
            if m["name"] in EXACT_END_TO_END:
                same = sorted(a[key]) == sorted(b[key])
                note += " exact" if same else " COUNT DIFFERS"
                bad |= not same
            bad |= v == "REGRESSED"
            print(
                f"{w:<20}{m['name']:<15}{statistics.median(a[key]):>14.4f}"
                f"{statistics.median(b[key]):>14.4f}{by:>+10.2%}{m['bound']:>7.0%}  {v}{note}"
            )

    a, b = group(a_runs, 1), group(b_runs, 1)
    if a and b:
        exact = set()
        for r in a_runs:
            exact.update(r.get("exact", []))
        print(f"\n{'focus workload':<20}{'per-layer row':<46}{'A':>14}{'B':>14}{'diff':>9}")
        for key in sorted(a):
            if key not in b:
                continue
            am, bm = statistics.median(a[key]), statistics.median(b[key])
            diff = (bm - am) / abs(am) if am else 0.0
            note = ""
            if key[1] in exact:
                same = sorted(a[key]) == sorted(b[key])
                note = "  exact" if same else "  COUNT DIFFERS"
                bad |= not same
            print(f"{key[0]:<20}{key[1]:<46}{am:>14.3f}{bm:>14.3f}{diff:>+9.1%}{note}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
