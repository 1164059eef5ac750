#!/usr/bin/env bash
# The CHANGES.md LOC ledger: first-party `.rs` lines per crate, their
# total, then vendor/ and benchmark/. Run from anywhere in the repo.
set -euo pipefail
cd "$(dirname "$0")/.."
loc() { find "$@" -name '*.rs' -not -path '*/target/*' -print0 | xargs -0 cat | wc -l; }
total=0
for c in core bench net sim dht baselines workloads facade; do
  if [ $c = facade ]; then n=$(loc src tests examples); else n=$(loc crates/$c); fi
  total=$((total + n))
  printf '%-10s %6d\n' $c $n
done
printf '%-10s %6d\n' total $total vendor/ $(loc vendor) benchmark/ $(loc benchmark)
