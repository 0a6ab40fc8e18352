#!/usr/bin/env bash
# Offline CI entry point, organised as named stages.
#
# The workspace has a ZERO-EXTERNAL-DEPENDENCY policy: every crate depends
# only on the standard library and sibling path crates (see Cargo.toml and
# DESIGN.md). That makes this script runnable on an air-gapped machine with
# nothing but a Rust toolchain — `--offline` is not an optimization here,
# it is an invariant we enforce.
#
# Stages run in a fixed order and each reports its wall-clock time in the
# summary table at the end. To iterate on one gate locally, select stages
# by name (comma-separated):
#
#     CI_ONLY=build,worker-matrix ./ci.sh
#
# Stage names: policy, fmt, clippy, build, experiments (regenerates and
# diffs results/*.txt), test, benchmark-smoke, worker-matrix, paper-scale,
# bench (prints medians, gates only its in-run diffuse < scratch invariant).

set -euo pipefail
cd "$(dirname "$0")"

STAGE_NAMES=()
STAGE_SECS=()

run_stage() {
    local name="$1"
    shift
    if [[ -n "${CI_ONLY:-}" ]]; then
        case ",${CI_ONLY}," in
        *",${name},"*) ;;
        *)
            echo "== ${name}: skipped (CI_ONLY=${CI_ONLY}) =="
            return 0
            ;;
        esac
    fi
    echo "== ${name} =="
    local t0=$SECONDS
    "$@"
    STAGE_NAMES+=("$name")
    STAGE_SECS+=($((SECONDS - t0)))
}

stage_policy() {
    # Every manifest in the workspace, recursively — a crate nested under
    # crates/foo/bar must obey the same policy as a top-level one. Two
    # classes of violation: a known external crate name appearing as a
    # dependency key, and any non-path dependency source (registry, git)
    # slipping into a table.
    mapfile -t MANIFESTS < <(find . -path ./target -prune -o -name Cargo.toml -print | sort)
    if grep -nE '^(rand|proptest|criterion|crossbeam|parking_lot|serde|rayon|libc)\b|crates-io' \
        "${MANIFESTS[@]}"; then
        echo "ERROR: external registry dependency found (see matches above)" >&2
        exit 1
    fi
    if grep -nE '\b(git|registry)\s*=' "${MANIFESTS[@]}"; then
        echo "ERROR: non-path dependency source (git/registry) found (see matches above)" >&2
        exit 1
    fi
    # One function per operation in the execution-side crates: options
    # (tracing, width, network, per-process cores) are arguments of the
    # general entry point. The only suffixed names allowed are the ones the
    # frozen benchmark/ package imports.
    local suffixed
    suffixed=$(grep -rnE 'pub fn [a-z0-9_]*(_traced|_workers|_with_comm|_network|_heterogeneous[a-z0-9_]*)[(<]' \
        crates/flusim/src crates/core/src |
        grep -vE 'pub fn (simulate_traced|simulate_lattice_with_network|simulate_lattice_with_network_traced|race_network)[(<]' ||
        true)
    if [[ -n "$suffixed" ]]; then
        echo "$suffixed"
        echo "ERROR: add an argument to the general entry point, not a suffix" >&2
        exit 1
    fi
    # The partition crate keeps one workspace-taking function per kernel
    # (the plain allocating twins are gone) plus the two parallel entry
    # points; a new `_par` / `_ws` / `_traced` name means a second way to
    # run something that already runs.
    local allowed='coarsen_ws|extract_subgraph_ws|fm_refine_ws|kway_rebalance_ws'
    allowed+='|multilevel_bisection_ws|multilevel_kway_ws|pairwise_kway_refine_ws'
    allowed+='|partition_graph_par|partition_graph_par_traced|rebalance_ws'
    allowed+='|recursive_bisection_ws|repair_contiguity_traced|repartition_ws'
    suffixed=$(grep -rnE 'pub fn [a-z0-9_]*(_par|_ws|_traced)[(<]' crates/partition/src |
        grep -vE "pub fn (${allowed})[(<]" ||
        true)
    if [[ -n "$suffixed" ]]; then
        echo "$suffixed"
        echo "ERROR: new suffixed twin in crates/partition/src (allow-list in ci.sh)" >&2
        exit 1
    fi
    # Performance numbers are kept, compared and gated in benchmark/ alone:
    # the absolute-nanosecond bench gate, its knobs and its committed
    # baselines must not come back (CHANGES.md / EXPERIMENTS.md / ROADMAP.md
    # keep the history and are exempt). The names are spelt in halves so
    # that this file does not match itself.
    local knob='TEMPART_BENCH_' gate
    gate="${knob}BASELINE|${knob}TOLERANCE|${knob}DIR|CI_SKIP_""BENCH|\bBENCH_[a-z<*]"
    if grep -rnE "$gate" ci.sh crates src tests README.md DESIGN.md .claude ||
        compgen -G 'BENCH_?*.json' >/dev/null; then
        echo "ERROR: the bench baseline gate is gone; perf gates live in benchmark/" >&2
        exit 1
    fi
    # One producer for every reproduced number: a new experiment is a row in
    # `EXPERIMENTS` (crates/bench/src/lib.rs), not a binary of its own.
    if [[ "$(ls crates/bench/src/bin)" != experiments.rs ]] ||
        grep -q '^\[\[bin\]\]' crates/bench/Cargo.toml; then
        echo "ERROR: crates/bench has one binary, experiments.rs; add a registry row" >&2
        exit 1
    fi
    echo "ok (${#MANIFESTS[@]} manifests scanned, no suffixed entry points, no bench gate)"
}

stage_fmt() {
    if cargo fmt --version >/dev/null 2>&1; then
        cargo fmt --check
    else
        echo "cargo fmt not installed; skipped"
    fi
}

stage_clippy() {
    if cargo clippy --version >/dev/null 2>&1; then
        cargo clippy --offline --workspace --all-targets -- -D warnings
    else
        echo "cargo clippy not installed; skipped"
    fi
}

stage_build() {
    cargo build --release --offline --workspace --all-targets
}

stage_experiments() {
    # Every `experiments list` row runs. A golden row's stdout must be
    # results/<id>.txt byte for byte (FLUSIM makespans, cuts and imbalances
    # are pure functions of the seed); a measured row prints wall-clock
    # nanoseconds and only has to exit 0. Every line of an EXPERIMENTS.md
    # block fenced as ```results/<id>.txt must be a line of that file.
    cargo build -q --release --offline -p tempart-bench --bin experiments
    local exe=target/release/experiments list id kind what t0 f line
    list=$("$exe" list)
    while read -r id kind what; do
        t0=$SECONDS
        if [[ $kind != golden ]]; then
            "$exe" "$id" >/dev/null
        elif ! "$exe" "$id" | diff -u "results/$id.txt" -; then
            echo "ERROR: results/$id.txt is not what HEAD prints: bit-identity broke, or the" >&2
            echo "change meant it: $exe $id > results/$id.txt, then its EXPERIMENTS.md section" >&2
            exit 1
        fi
        printf '  %-21s %-9s %3ds\n' "$id" "$kind" $((SECONDS - t0))
    done <<<"$list"
    for f in results/*.txt; do
        id=$(basename "$f" .txt)
        if [[ $id != fingerprints_w* ]] && ! grep -q "^$id  *golden " <<<"$list"; then
            echo "ERROR: $f has no golden row in '$exe list'" >&2
            exit 1
        fi
    done
    awk '/^```results\//{f=substr($0,4);next} /^```/{f="";next} f{print f"\t"$0}' EXPERIMENTS.md |
        while IFS=$'\t' read -r f line; do
            if ! grep -Fxq -- "$line" "$f"; then
                echo "ERROR: EXPERIMENTS.md quotes a line $f does not hold: $line" >&2
                exit 1
            fi
        done
    echo "ok (golden files match, EXPERIMENTS.md excerpts are lines of them)"
}

stage_test() {
    echo "-- tier-1 tests (root package)"
    cargo test -q --offline
    echo "-- workspace tests"
    cargo test -q --offline --workspace
    echo "-- doc tests"
    cargo test -q --offline --workspace --doc
}

stage_benchmark_smoke() {
    # benchmark/ is a package of its own (own [workspace], path deps on
    # ../crates/*), so the stages above never compile it. Its tests build the
    # benchmark binaries and run the `--quick` set through the oracle, which
    # makes a crate change that breaks what the benchmark imports
    # (`coarsen::coarsen_ws`, `initial::initial_bisection`,
    # `refine::{rebalance_ws, fm_refine_ws, project}`,
    # `bisect::multilevel_bisection`, `repartition_ws`, ...) red here rather
    # than in the benchmark driver. Shares the root target directory, as
    # benchmark/run.sh does.
    (cd benchmark &&
        CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/../target}" cargo test --release --offline)
}

stage_worker_matrix() {
    # The fork-join pipeline must be a pure function of its inputs: the same
    # fingerprint file — FNV-1a digests of every strategy x mesh part vector
    # and Gantt chart, plus per mesh one portfolio-leaderboard digest (the
    # full ranked 24-combo race), the network-mode rows (`net-uniform` /
    # `net-twolevel` priced Gantt + transfer-ledger digests and the
    # comm-bound `net-portfolio` race), and the incremental repartitioner
    # rows (`repart-plan` / `repart-seq` / `repart-seq16` — the first
    # migration plan, the post-sequence part vector over a pinned 4-step
    # drift sequence, and the same sequence run to 16 steps, where the round
    # cap binds and most rounds work on patched boundary lists) — must come
    # out byte-identical whether the work runs sequentially or forked
    # across 4 workers. Run in separate processes so thread-count-dependent
    # state can't hide inside one test binary (the in-process cross-check
    # at widths 1/2/4 already ran in the suites above, including the
    # portfolio suites property_portfolio and golden_portfolio).
    # The fingerprint file also carries the geometric rows
    # (`cylinder4/sfc-*`, above SFC_RADIX_CUTOFF), so the parallel radix
    # sort's shard merge is diffed across process-level worker counts here
    # too.
    #
    # Stale fingerprints from an earlier script revision (or an aborted
    # run) would make the diff below compare rows this run never emitted,
    # so clear them first: every file the diff sees must come from this
    # run.
    rm -f results/fingerprints_w*.txt
    TEMPART_WORKERS=1 cargo test -q --release --offline --test worker_matrix \
        emit_fingerprints >/dev/null
    TEMPART_WORKERS=2 cargo test -q --release --offline --test worker_matrix \
        emit_fingerprints >/dev/null
    TEMPART_WORKERS=4 cargo test -q --release --offline --test worker_matrix \
        emit_fingerprints >/dev/null
    for w in 2 4; do
        if ! diff -u results/fingerprints_w1.txt "results/fingerprints_w$w.txt"; then
            echo "ERROR: worker matrix diverged — 1-worker and $w-worker fingerprints differ" >&2
            exit 1
        fi
    done
    echo "ok (1-, 2- and 4-worker fingerprints identical)"
}

stage_paper_scale() {
    # Opt-in because it costs minutes and ~1 GB RSS: generates the
    # 12.6M-cell PPRIME_NOZZLE-class cloud (faces-free, calibrated to
    # Table I), partitions it through the parallel radix SFC path, diffs
    # 1-vs-4-worker part vectors at full scale, sorts ≥1M random points
    # against the comparison sort bit for bit, and asserts the whole run
    # stays under the 4 GiB RSS budget. The matching `partition/paper/*`
    # rows print in the bench stage below when the same variable is set.
    if [[ "${TEMPART_PAPER_SCALE:-0}" == "1" ]]; then
        TEMPART_PAPER_SCALE=1 cargo test --release --offline --test paper_scale -- --nocapture
        echo "ok (paper-scale suite green)"
    else
        echo "skipped (set TEMPART_PAPER_SCALE=1 to run the 12.6M-cell suite)"
    fi
}

stage_bench() {
    # The two hot-path suites as a print-only microscope: nothing is stored
    # or compared (the numbers of record are benchmark/'s), so the stage is
    # red only if a suite panics — i.e. on the partitioner suite's in-run
    # A/B invariant, `partition/repart/diffuse` < `partition/repart/scratch`.
    # With TEMPART_PAPER_SCALE=1 the `partition/paper/*` rows run and print
    # too.
    local suite
    for suite in partitioner flusim; do
        TEMPART_BENCH_SAMPLES="${TEMPART_BENCH_SAMPLES:-5}" \
            cargo bench --offline -p tempart-bench --bench "$suite"
    done
}

run_stage policy stage_policy
run_stage fmt stage_fmt
run_stage clippy stage_clippy
run_stage build stage_build
run_stage experiments stage_experiments
run_stage test stage_test
run_stage benchmark-smoke stage_benchmark_smoke
run_stage worker-matrix stage_worker_matrix
run_stage paper-scale stage_paper_scale
run_stage bench stage_bench

echo
echo "== stage timing =="
total=0
for i in "${!STAGE_NAMES[@]}"; do
    printf '  %-14s %4ds\n' "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}"
    total=$((total + STAGE_SECS[i]))
done
printf '  %-14s %4ds\n' total "$total"

echo "CI green."
