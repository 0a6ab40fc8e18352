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
# Stage names: policy, fmt, clippy, build, test, benchmark-smoke,
# worker-matrix, paper-scale, bench.

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
    echo "ok (${#MANIFESTS[@]} manifests scanned, no suffixed entry points)"
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
    # bench rows run in the bench stage below when the same variable is
    # set.
    if [[ "${TEMPART_PAPER_SCALE:-0}" == "1" ]]; then
        TEMPART_PAPER_SCALE=1 cargo test --release --offline --test paper_scale -- --nocapture
        echo "ok (paper-scale suite green)"
    else
        echo "skipped (set TEMPART_PAPER_SCALE=1 to run the 12.6M-cell suite)"
    fi
}

stage_bench() {
    # Short-sample wall-clock runs of the two hot-path suites, compared
    # against the committed BENCH_partitioner.json / BENCH_flusim.json at
    # the repo root; the run exits non-zero if any median regresses by more
    # than TEMPART_BENCH_TOLERANCE (default +15%). Skippable on noisy or
    # throttled machines with CI_SKIP_BENCH=1; re-baseline deliberate
    # changes with TEMPART_BENCH_BASELINE=write and commit the JSON.
    #
    # This gate doubles as the disabled-recorder overhead guard: since the
    # observability layer landed, `partition_graph` and `simulate` route
    # through their `_traced` variants with `Recorder::off()`, so these
    # baselines (at the pre-instrumentation tolerance, deliberately NOT
    # loosened) price the one-relaxed-atomic-branch disabled path into
    # every hot loop they time. The partitioner suite also gates the
    # fork-join rows (`partition/parallel/MC_TL-w{1,2,4}`) — on a
    # single-core runner they bound the fork-join overhead against the
    # sequential baseline — the pairwise k-way refinement
    # (`partition/parallel/kway-w1`), the geometric
    # `partition/sfc/{morton,hilbert}` cost floor and the incremental
    # repartitioner rows (`partition/repart/{diffuse,scratch}`: one
    # diffusion refresh must undercut the from-scratch MC_TL rebuild it
    # replaces).
    # With TEMPART_PAPER_SCALE=1 the partitioner suite additionally emits
    # the `partition/paper/*` rows (12.6M-cell SFC runs + the
    # SFC-vs-multilevel race) and checks them against the committed
    # baseline; on normal runs those rows are simply absent and the gate
    # ignores them. The flusim suite additionally gates the lattice
    # scheduler (`flusim/portfolio/*`): one dynamic combo against the
    # pinned loop, and the full 24-combo race at 1 and 4 workers — pricing
    # the global-ready-heap path and the racing fan-out — and the network
    # model (`flusim/comm/{uniform,two-level,race}`): the priced event
    # loop's NIC-channel bookkeeping and transfer ledger on both topology
    # presets — each run pricing its own edge table up front and deriving
    # `NetStats` in one streaming pass after the loop — plus the comm-bound
    # 24-combo race, which prices the edges once for all combos.
    if [[ "${CI_SKIP_BENCH:-0}" == "1" ]]; then
        echo "skipped (CI_SKIP_BENCH=1)"
        return 0
    fi
    TEMPART_BENCH_SAMPLES="${TEMPART_BENCH_SAMPLES:-5}" TEMPART_BENCH_BASELINE=check \
        cargo bench --offline -p tempart-bench --bench partitioner
    TEMPART_BENCH_SAMPLES="${TEMPART_BENCH_SAMPLES:-5}" TEMPART_BENCH_BASELINE=check \
        cargo bench --offline -p tempart-bench --bench flusim
    echo "-- bench history (trend append)"
    # One NDJSON record per suite (timestamp + per-benchmark medians) so
    # the performance trajectory survives beyond the latest bench_*.json.
    cargo run -q --release --offline -p tempart-bench --bin bench_history
}

run_stage policy stage_policy
run_stage fmt stage_fmt
run_stage clippy stage_clippy
run_stage build stage_build
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
