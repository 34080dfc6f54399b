#!/usr/bin/env bash
# Counts, per crate, the code lines and panic sites of the library sources
# and checks them against the committed list beside this script.
#
#   bash scripts/check_budget.sh            # diff against scripts/budget.txt
#   bash scripts/check_budget.sh --print    # print the counts only
#
# A code line is a non-blank line of a library `src/` file (`bin/`
# excluded) that does not start with `//`, before the file's
# `#[cfg(test)] mod` test module. A panic site is an `unwrap()`,
# `expect(`, `panic!(` or `unreachable!(` on such a line. The numbers are
# not a gate on growth: a change that moves them updates
# scripts/budget.txt in the same commit, and says why in CHANGES.md.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

count() {
    printf '%-16s %6s %6s\n' crate code panics
    for manifest in "$root/Cargo.toml" "$root"/crates/*/Cargo.toml; do
        dir=$(dirname "$manifest")
        name=$(awk -F'"' '/^name *=/ { print $2; exit }' "$manifest" | tr - _)
        find "$dir/src" -name '*.rs' -not -path '*/bin/*' | LC_ALL=C sort | xargs awk -v name="$name" '
            function take(line,   s) {
                s = line
                sub(/^[ \t]+/, "", s)
                if (s == "" || s ~ /^\/\//) return
                code++
                panics += gsub(/unwrap\(\)|expect\(|panic!\(|unreachable!\(/, "", s)
            }
            FNR == 1 { done = 0; held = "" }
            done { next }
            held != "" {
                if ($0 ~ /^mod /) { done = 1; held = ""; next }
                take(held); held = ""
            }
            /^#\[cfg\(test\)\]$/ { held = $0; next }
            { take($0) }
            END { printf "%-16s %6d %6d\n", name, code, panics }'
    done
}

if [ "${1:-}" = "--print" ]; then
    count
    exit 0
fi
expected="$root/scripts/budget.txt"
if ! diff -u --label expected --label counted "$expected" <(count); then
    echo "code lines or panic sites differ from scripts/budget.txt" >&2
    exit 1
fi
echo "code lines and panic sites match scripts/budget.txt"
