#!/usr/bin/env python3
"""Summarize (and validate) a JSONL trace emitted by `dlpt-core::obs`.

Usage:
    scripts/trace_summary.py <trace.jsonl> [--validate]

Each line of the input is one fixed-shape event:

    {"req": N, "kind": "hop", "a": .., "b": .., "depth": ..,
     "flags": .., "seq": ..}

``kind`` is one of the engine's stable event names (admit, hop,
cache_hit, cache_stale, cache_miss, branch_open, branch_close, retry,
dedup_suppress, drop, satisfy, fail). The summary reports event counts
for *all twelve* kinds (zero-filled — an absent counter and a zero
counter read the same, so downstream diffs are shape-stable),
and per-request shape (events, hops, max depth), so a trace can be
sanity-read without tooling. A line with an unknown
``kind`` always exits non-zero, with or without ``--validate``: such a
line means the trace and this tool disagree about the event
vocabulary, and every count in the summary would be suspect.

``--validate`` additionally enforces the schema — every line must be a
JSON object with exactly the seven keys above, integer-valued except
``kind`` which must be a known name, and ``seq`` must be
non-decreasing (every event, the batch pump's included, is emitted in
order under the engine's one owner). Any violation prints the offending
line and exits non-zero; CI diffs two seeded runs on top of this.
"""

import argparse
import json
import sys
from collections import Counter, defaultdict

KINDS = {
    "admit", "hop", "cache_hit", "cache_stale", "cache_miss",
    "branch_open", "branch_close", "retry", "dedup_suppress",
    "drop", "satisfy", "fail",
}
INT_KEYS = ("req", "a", "b", "depth", "flags", "seq")
ALL_KEYS = set(INT_KEYS) | {"kind"}


def fail(lineno, line, why):
    print(f"trace-summary: line {lineno}: {why}\n  {line.rstrip()}",
          file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace", help="JSONL trace file")
    ap.add_argument("--validate", action="store_true",
                    help="enforce the event schema; exit non-zero on any "
                         "malformed line")
    args = ap.parse_args()

    kinds = Counter()
    per_req = defaultdict(lambda: {"events": 0, "hops": 0, "max_depth": 0})
    last_seq = -1
    n = 0
    with open(args.trace) as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                fail(lineno, line, "blank line")
            try:
                ev = json.loads(line)
            except json.JSONDecodeError as e:
                fail(lineno, line, f"not JSON: {e}")
            if args.validate:
                if not isinstance(ev, dict) or set(ev) != ALL_KEYS:
                    fail(lineno, line, f"keys != {sorted(ALL_KEYS)}")
                for k in INT_KEYS:
                    if not isinstance(ev[k], int) or ev[k] < 0:
                        fail(lineno, line, f"{k!r} must be a non-negative int")
                if last_seq > ev["seq"]:
                    fail(lineno, line, "seq went backwards")
                last_seq = ev["seq"]
            if ev.get("kind") not in KINDS:
                fail(lineno, line, f"unknown kind {ev.get('kind')!r}")
            n += 1
            kinds[ev["kind"]] += 1
            r = per_req[ev["req"]]
            r["events"] += 1
            if ev["kind"] == "hop":
                r["hops"] += 1
            r["max_depth"] = max(r["max_depth"], ev["depth"])

    if args.validate and n == 0:
        print("trace-summary: empty trace", file=sys.stderr)
        sys.exit(1)

    print(f"events: {n}  requests: {len(per_req)}")
    for kind in sorted(KINDS):
        print(f"  {kind:<15} {kinds[kind]:>8}")
    if per_req:
        hops = sorted(r["hops"] for r in per_req.values())
        depths = sorted(r["max_depth"] for r in per_req.values())
        mid = len(hops) // 2
        print(f"per-request: hops median {hops[mid]}, max {hops[-1]}; "
              f"depth median {depths[mid]}, max {depths[-1]}")
    if args.validate:
        print("trace-summary: valid")


if __name__ == "__main__":
    main()
