#!/usr/bin/env bash
# The repo benchmark, one command: build, run, check correctness, print every
# metric by name with its unit. BENCHMARK.json at the repo root is the
# contract; README.md beside this script defines the metrics.
#
#   benchmark/run.sh [--seed N]      all five workloads, untraced + traced
#   benchmark/run.sh --quick         smoke run (depth-4 meshes, < 15 s)
#   benchmark/run.sh --selfcheck     A/A: the full set twice, compared
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                    one run; last stdout line is the result
#
# Exits non-zero when the build fails or any correctness check fails.
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Cargo resolves a relative CARGO_TARGET_DIR against its own working
# directory; pin it to the caller's. Default: share the repo's target/.
case "${CARGO_TARGET_DIR:-}" in
"") CARGO_TARGET_DIR="$HERE/../target" ;;
/*) ;;
*) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac
export CARGO_TARGET_DIR

cargo build --release --offline --quiet --manifest-path "$HERE/Cargo.toml" >&2

# `--trace 1` needs the binary with the counting allocator installed.
bin=tempart-benchmark
prev=
for arg in "$@"; do
    if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then
        bin=tempart-benchmark-traced
    fi
    prev="$arg"
done

TEMPART_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
TEMPART_BENCH_COMMIT="$(git -C "$HERE" rev-parse HEAD 2>/dev/null || echo unknown)"
export TEMPART_BENCH_RUSTC TEMPART_BENCH_COMMIT

exec "$CARGO_TARGET_DIR/release/$bin" --dir "$HERE" "$@"
