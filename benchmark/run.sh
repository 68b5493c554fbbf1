#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is the JSON object
#       BENCHMARK.json's contract describes (this is what the driver calls)
#   benchmark/run.sh [--seed N] [--seconds S] [--out FILE]
#       every workload, untraced then traced; prints every metric by name
#       with its unit, checks every verdict, writes benchmark/out/result.json
#   benchmark/run.sh compare A.json B.json [A2.json B2.json ...]
#       hold side B to the regression bounds, side A being the parent
#
# Builds what it measures first, offline and in release mode: the `nice` and
# `nice-dist-worker` binaries from the root workspace, then this package's
# own binaries. Cargo decides what is stale, so a run never measures an old
# binary.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
# Everything below uses paths relative to the root of the checkout: the
# served workload's socket address has to stay short.
cd "$root"

# One target directory for both workspaces, so the binaries land side by
# side. A relative CARGO_TARGET_DIR is relative to the checkout.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
/*) ;;
*) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

traced=0
prev=""
for arg in "$@"; do
    if [ "$prev" = "--trace" ] && [ "$arg" = "1" ]; then traced=1; fi
    prev="$arg"
done
# Without --workload every workload runs, traced too.
case " $* " in *" --workload "*) ;; *) traced=1 ;; esac
if [ "${1:-}" = "compare" ] || [ "${1:-}" = "expected" ]; then traced=0; fi

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p nice-cli -p nice-dist >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    --bin bench >&2
if [ "$traced" = 1 ]; then
    # The probe reaches below the binding surface and may stop building
    # after a refactor; that must cost the layers, not the end-to-end run.
    if ! cargo build --release --offline --quiet \
        --manifest-path "$here/Cargo.toml" --bin probe >&2; then
        echo "benchmark/run.sh: the probe does not build; per-layer metrics are unavailable" >&2
        rm -f "$target/release/probe"
    fi
fi

exec "$target/release/bench" "$@"
