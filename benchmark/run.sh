#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh                       every workload, one process each
#   benchmark/run.sh --traced              ... then the traced run of each
#   benchmark/run.sh --workload NAME       one workload (add --trace 1 for its ledger)
#   benchmark/run.sh --seed 2 --out set.json --quick
#
# All flags go to the binary; see README.md. The result object is the
# last line of stdout, tables and cargo's output go to stderr.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2
commit="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$target/release/dlpt-benchmark" --commit "$commit" "$@"
