#!/usr/bin/env python3
"""Validate (and summarize) a health-snapshot JSONL series emitted by
`dlpt-core::obs::health` (the `--health` flag of the figure binaries).

Usage:
    scripts/health_report.py <health.jsonl> [--expect-zero-violations]
                             [--timing <health.timing.jsonl>]

Each line is one `HealthSnapshot` of one (config, run, unit) cell,
with a fixed key order and fixed float precision so two seeded runs
diff byte-identically. What the wall clock decides (`route_us` and
`commit_us`, the two phases of the batch pump's last batch) is not in
this file: the snapshot's timing section is written to a series of its
own, which ``--timing`` validates (same cells in the same order,
non-negative ints) and which is never diffed. This tool enforces the schema: every line must
be a JSON object with exactly the expected keys, correctly typed;
`depth_occupancy` must be a list of non-negative ints summing to
`nodes`; `peer_load` must be a list of `[peer, nodes, replicas, used,
messages]` rows whose count matches `peers` and whose node total
matches `nodes`; the byte columns must sum to `bytes_total`. Any violation prints the offending line and exits
non-zero.

``--expect-zero-violations`` additionally fails if any snapshot
carries a non-zero `violations` counter (the `Engine::audit`
invariant count) — the CI health-smoke contract that a healthy run
audits clean at every unit boundary.
"""

import argparse
import json
import sys
from collections import defaultdict

INT_KEYS = (
    "run", "unit", "peers", "nodes", "max_depth", "under_replicated",
    "cache_hits", "cache_stale", "cache_learned", "lost", "duplicated",
    "reordered", "partition_dropped", "dedup_suppressed", "retries",
    "requests_failed", "violations",
    "bytes_total", "bytes_directory", "bytes_slab", "bytes_shards",
    "bytes_caches",
)
FLOAT_KEYS = ("opt_depth", "imbalance", "gini", "bytes_per_node",
              "bytes_per_peer")
LIST_KEYS = ("depth_occupancy", "peer_load")
ALL_KEYS = set(INT_KEYS) | set(FLOAT_KEYS) | set(LIST_KEYS) | {"cfg"}
TIMING_INT_KEYS = ("run", "unit", "route_us", "commit_us")


def fail(lineno, line, why):
    print(f"health-report: line {lineno}: {why}\n  {line.rstrip()}",
          file=sys.stderr)
    sys.exit(1)


def check_timing(path, cells):
    """The timing series must cover exactly `cells`, in order."""
    n = 0
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            try:
                row = json.loads(line)
            except json.JSONDecodeError as e:
                fail(lineno, line, f"timing: not JSON: {e}")
            if not isinstance(row, dict) or \
                    set(row) != set(TIMING_INT_KEYS) | {"cfg"}:
                fail(lineno, line, "timing: keys must be "
                     f"cfg, {', '.join(TIMING_INT_KEYS)}")
            for k in TIMING_INT_KEYS:
                if not isinstance(row[k], int) or isinstance(row[k], bool) \
                        or row[k] < 0:
                    fail(lineno, line,
                         f"timing: {k!r} must be a non-negative int")
            cell = (row["cfg"], row["run"], row["unit"])
            if n >= len(cells) or cell != cells[n]:
                fail(lineno, line, "timing: cell does not match snapshot "
                     f"{n + 1} of the health series")
            n += 1
    if n != len(cells):
        print(f"health-report: timing series has {n} lines, "
              f"health series {len(cells)}", file=sys.stderr)
        sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("health", help="JSONL health-snapshot file")
    ap.add_argument("--timing", metavar="PATH",
                    help="the snapshots' timing-section JSONL series")
    ap.add_argument("--expect-zero-violations", action="store_true",
                    help="fail if any snapshot reports audit violations")
    args = ap.parse_args()

    n = 0
    violations = 0
    configs = defaultdict(int)
    cells = []
    last = None
    with open(args.health) as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                fail(lineno, line, "blank line")
            try:
                snap = json.loads(line)
            except json.JSONDecodeError as e:
                fail(lineno, line, f"not JSON: {e}")
            if not isinstance(snap, dict) or set(snap) != ALL_KEYS:
                missing = sorted(ALL_KEYS - set(snap))
                extra = sorted(set(snap) - ALL_KEYS)
                fail(lineno, line, f"missing keys {missing}, extra {extra}")
            if not isinstance(snap["cfg"], str) or not snap["cfg"]:
                fail(lineno, line, "'cfg' must be a non-empty string")
            for k in INT_KEYS:
                if not isinstance(snap[k], int) or isinstance(snap[k], bool) \
                        or snap[k] < 0:
                    fail(lineno, line, f"{k!r} must be a non-negative int")
            for k in FLOAT_KEYS:
                if not isinstance(snap[k], (int, float)) or snap[k] < 0:
                    fail(lineno, line, f"{k!r} must be a non-negative number")
            occ = snap["depth_occupancy"]
            if not isinstance(occ, list) or \
                    any(not isinstance(c, int) or c < 0 for c in occ):
                fail(lineno, line,
                     "'depth_occupancy' must be a list of non-negative ints")
            if sum(occ) != snap["nodes"]:
                fail(lineno, line,
                     f"depth occupancy sums to {sum(occ)}, "
                     f"nodes is {snap['nodes']}")
            pl = snap["peer_load"]
            if not isinstance(pl, list) or any(
                    not isinstance(row, list) or len(row) != 5 or
                    any(not isinstance(v, int) or v < 0 for v in row)
                    for row in pl):
                fail(lineno, line,
                     "'peer_load' rows must be "
                     "[peer, nodes, replicas, used, messages]")
            if len(pl) != snap["peers"]:
                fail(lineno, line,
                     f"{len(pl)} peer_load rows, peers is {snap['peers']}")
            if sum(row[1] for row in pl) != snap["nodes"]:
                fail(lineno, line, "peer_load node total != nodes")
            parts = (snap["bytes_directory"] + snap["bytes_slab"] +
                     snap["bytes_shards"] + snap["bytes_caches"])
            if parts != snap["bytes_total"]:
                fail(lineno, line,
                     f"byte columns sum to {parts}, "
                     f"bytes_total is {snap['bytes_total']}")
            n += 1
            violations += snap["violations"]
            configs[snap["cfg"]] += 1
            cells.append((snap["cfg"], snap["run"], snap["unit"]))
            last = snap

    if n == 0:
        print("health-report: empty series", file=sys.stderr)
        sys.exit(1)
    if args.timing:
        check_timing(args.timing, cells)

    print(f"snapshots: {n}  configs: {len(configs)}  "
          f"audit violations: {violations}")
    for cfg in sorted(configs):
        print(f"  {cfg:<28} {configs[cfg]:>6}")
    print(f"last: {last['peers']} peers, {last['nodes']} nodes, "
          f"depth {last['max_depth']} (opt {last['opt_depth']}), "
          f"gini {last['gini']}, {last['bytes_total']} bytes "
          f"({last['bytes_per_node']}/node, {last['bytes_per_peer']}/peer)")
    if args.expect_zero_violations and violations > 0:
        print(f"health-report: FAILED — {violations} audit violation(s) "
              "in a run expected to audit clean", file=sys.stderr)
        sys.exit(1)
    print("health-report: valid")


if __name__ == "__main__":
    main()
