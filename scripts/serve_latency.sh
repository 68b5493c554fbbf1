#!/usr/bin/env bash
# Round-trip latency of `nice submit` under concurrent load.
#
#   scripts/serve_latency.sh
#
# Starts one `nice serve --workers 2` and, for 1, 2, 4 and 8 clients, runs
# that many closed-loop clients: each runs `nice submit chain:5:2
# --all-violations --max-transitions 0 --quiet` again as soon as the
# previous one returns, until the level has made 1 000 round trips. A round
# trip is timed from spawning `nice submit` to its exit, so it includes
# process start, connect, queueing behind other clients' jobs and the
# search. A trip fails when `nice submit` exits non-zero or its verdict line
# differs from the first trip's. Prints one row per level: trips, failures,
# median, p99 and throughput. Build first:
# `cargo build --release -p nice-cli -p nice-dist`.
set -euo pipefail

workers=2
trips=1000
scenario=chain:5:2
levels=(1 2 4 8)

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
nice="${CARGO_TARGET_DIR:-$root/target}/release/nice"
[ -x "$nice" ] || { echo "$nice is missing: cargo build --release -p nice-cli -p nice-dist" >&2; exit 2; }

work="$(mktemp -d)"
socket="$work/serve.sock"
"$nice" serve --socket "$socket" --workers "$workers" 2>/dev/null &
server=$!
trap 'kill "$server" 2>/dev/null; wait "$server" 2>/dev/null; rm -rf "$work"' EXIT
for _ in $(seq 100); do [ -S "$socket" ] && break; sleep 0.05; done

submit() {
    "$nice" submit --socket "$socket" "$scenario" --all-violations --max-transitions 0 --quiet \
        | sed 's/ ([0-9.]*s)$//'
}
verdict="$(submit)"

# One closed-loop client: `$2` round trips, one "<start> <end> <ok>" line
# each (seconds).
client() {
    local out=$1 n=$2 start end got ok
    for _ in $(seq "$n"); do
        start=$EPOCHREALTIME
        got="$(submit 2>/dev/null)" && ok=1 || ok=0
        end=$EPOCHREALTIME
        [ "$got" = "$verdict" ] || ok=0
        echo "$start $end $ok" >>"$out"
    done
}

printf '%-8s %6s %8s %12s %9s %9s\n' clients trips failed median_ms p99_ms trips/s
for level in "${levels[@]}"; do
    each=$(((trips + level - 1) / level))
    rm -f "$work"/client-*
    clients=()
    for c in $(seq "$level"); do
        client "$work/client-$c" "$each" &
        clients+=($!)
    done
    wait "${clients[@]}"
    cat "$work"/client-* >"$work/all"
    wall=$(awk 'NR == 1 || $1 < first { first = $1 } $2 > last { last = $2 } END { print last - first }' "$work/all")
    failed=$(awk '$3 == 0' "$work/all" | wc -l)
    awk '{ print ($2 - $1) * 1000 }' "$work/all" | sort -n |
        awk -v level="$level" -v failed="$failed" -v wall="$wall" '
        { ms[NR] = $1 }
        END {
            n = NR
            median = (n % 2) ? ms[(n + 1) / 2] : (ms[n / 2] + ms[n / 2 + 1]) / 2
            p99 = ms[int(n * 0.99 + 0.999999)]
            printf "%-8d %6d %8d %12.1f %9.1f %9.1f\n", level, n, failed, median, p99, n / wall
        }'
done
