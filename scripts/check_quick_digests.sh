#!/usr/bin/env bash
# Checks the digests of a `gqs_benchmark run --quick` at the default seed
# against the committed list beside this script.
#
#   bash scripts/check_quick_digests.sh [RUN_OUTPUT]
#
# Reads the run's stdout from RUN_OUTPUT, or from stdin without one. Each
# workload's digest is exact for a fixed seed and size, so any difference
# is a change in behaviour: the script prints a diff and exits 1. A change
# that means to alter behaviour updates scripts/quick_digests.txt in the
# same commit, and says which digests moved and why.
set -euo pipefail
expected="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)/quick_digests.txt"
got=$(awk '/^workload / { w = $2 }
    { for (i = 1; i < NF; i++) if ($i == "digest") print w, $(i + 1) }' "${1:-/dev/stdin}")
if ! diff -u --label expected --label run "$expected" <(printf '%s\n' "$got"); then
    echo "quick digests differ from scripts/quick_digests.txt" >&2
    exit 1
fi
echo "quick digests match scripts/quick_digests.txt"
