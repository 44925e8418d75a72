#!/usr/bin/env bash
# Runs the full set (every workload: end-to-end run, then traced run)
# twice on seed 1, and once more on seed 2 with REPEAT_SEED2=1, then
# prints every metric of every workload side by side with the relative
# difference and the bound. Exits non-zero if any end-to-end metric
# differs between the two seed-1 sets by more than its bound, in either
# direction, or if a sim workload's model statistics differ at all: two
# sets of runs of the same code must agree.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out"
bash "$here/run.sh" --seed 1 --out "$out/repeat-1a.json"
bash "$here/run.sh" --seed 1 --out "$out/repeat-1b.json"
if [ -n "${REPEAT_SEED2:-}" ]; then
	bash "$here/run.sh" --seed 2 --out "$out/repeat-2.json"
fi
bash "$here/run.sh" -role compare "$out/repeat-1a.json" "$out/repeat-1b.json"
