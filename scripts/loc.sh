#!/usr/bin/env bash
# Non-test Go lines (wc -l: comments and blank lines count) per package
# directory, bench/ apart: the table ROADMAP.md and CHANGES.md quote.
# Usage: scripts/loc.sh [checkout]   (default: the one this script is in)
set -euo pipefail
cd "${1:-$(dirname "${BASH_SOURCE[0]}")/..}"
lines() { # non-test Go lines in the files find selects with "$@"
	find "$@" -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l
}
for dir in $(find . -path ./bench -prune -o -path './.*' -prune -o -name '*.go' ! -name '*_test.go' -printf '%h\n' | sort -u); do
	printf '%-28s %6d\n' "${dir#./}" "$(lines "$dir" -maxdepth 1)"
done
printf '%-28s %6d\n' "total without bench/" "$(lines . -path ./bench -prune -o -path './.*' -prune -o -type f)"
printf '%-28s %6d\n' "bench/" "$(lines bench)"
