#!/usr/bin/env bash
# Times one benchmark workload in two checkouts, in alternating pairs.
#
#   bash scripts/pairs.sh WORKLOAD PAIRS SECONDS PARENT_DIR CHANGE_DIR [SEED] [METRIC]
#
# Each pair runs `gqs_benchmark --workload WORKLOAD --seed SEED --seconds
# SECONDS` once in each checkout (SEED defaults to 1). Odd pairs start
# with the parent and even pairs with the change, so a drift in the
# machine's load falls on both sides alike. Both benchmark binaries are
# built first, each in its own checkout. METRIC is one end-to-end metric
# of the run's result line (default `trial_us`; also `setup_s`,
# `events_per_s`, `peak_rss_mb`), and the change's BENCHMARK.json says
# whether lower or higher is better. Prints each pair's METRIC, both
# medians, the parent's interquartile range as a share of its median,
# and how many pairs the change won.
set -euo pipefail

if [ $# -lt 5 ] || [ $# -gt 7 ]; then
    sed -n '4p' "$0" | sed 's/^#  *//' >&2
    exit 2
fi
workload=$1 pairs=$2 seconds=$3 parent=$4 change=$5 seed=${6:-1} metric=${7:-trial_us}

# "lower" or "higher", from the metric's entry in BENCHMARK.json.
better=$(awk -v name="\"name\": \"$metric\"" 'index($0, name) { found = 1 }
    found && /"better"/ { gsub(/[",]/, ""); print $2; exit }' "$change/BENCHMARK.json")
if [ -z "$better" ]; then
    echo "no end-to-end metric named $metric in $change/BENCHMARK.json" >&2
    exit 2
fi

for dir in "$parent" "$change"; do
    cargo build --release --offline --quiet --manifest-path "$dir/benchmark/Cargo.toml" \
        --target-dir "$dir/benchmark/target"
done

# One timed run; prints its METRIC (from the last stdout line, a JSON object).
measure() {
    "$1/benchmark/target/release/gqs_benchmark" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" 2>/dev/null \
        | tail -n 1 | grep -o "\"$metric\":{\"value\":[0-9.eE+-]*" | sed 's/.*://'
}

# Median, lower and upper quartile (linear interpolation) of stdin's numbers.
quartiles() {
    sort -g | awk '{ v[NR] = $1 }
        function q(p,   h, i) { h = (NR - 1) * p + 1; i = int(h); return v[i] + (h - i) * (v[i + 1] - v[i]) }
        END { v[NR + 1] = v[NR]; printf "%.3f %.3f %.3f\n", q(0.5), q(0.25), q(0.75) }'
}

p_all="" c_all="" wins=0
printf '%-5s %-7s %20s %20s\n' pair first "parent_$metric" "change_$metric"
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        first=parent p=$(measure "$parent") c=$(measure "$change")
    else
        first=change c=$(measure "$change") p=$(measure "$parent")
    fi
    printf '%-5s %-7s %20s %20s\n' "$i" "$first" "$p" "$c"
    p_all+="$p"$'\n' c_all+="$c"$'\n'
    if awk -v p="$p" -v c="$c" -v b="$better" 'BEGIN { exit !(b == "lower" ? c < p : c > p) }'; then
        wins=$((wins + 1))
    fi
done

read -r p_med p_q1 p_q3 < <(printf '%s' "$p_all" | quartiles)
read -r c_med _ _ < <(printf '%s' "$c_all" | quartiles)
awk -v w="$workload" -v m="$metric" -v pm="$p_med" -v q1="$p_q1" -v q3="$p_q3" -v cm="$c_med" \
    -v wins="$wins" -v n="$pairs" 'BEGIN {
        printf "%s %s: parent median %s, change median %s (%+.1f %%)\n", w, m, pm, cm, (cm / pm - 1) * 100
        printf "parent IQR %.1f %% of its median; change better in %d of %d pairs\n", (q3 - q1) / pm * 100, wins, n
    }'
