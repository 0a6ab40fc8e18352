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
# diffs results/*.txt), test, benchmark-smoke, worker-matrix, paper-scale.
# Nothing here times the product: wall-clock numbers come from benchmark/.

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
    # FLUSIM has one scheduler type and one message-size rule: the four
    # classic policies are named lattice points (`DynamicListStrategy::
    # EAGER_FIFO`, ...) and every message is sized by a decomposition's halo
    # table. The retired enum lives on only as the one name benchmark/
    # imports (`Strategy::EagerFifo`, crates/flusim/src/lib.rs).
    local names retired
    names='\bStrategy::(EagerFifo|EagerLifo|CriticalPathFirst|SmallestFirst)\b'
    names+='|\bMessageSizes\b|\bper_object\(|Topology::Matrix'
    retired=$(grep -rnE "$names" crates src tests examples |
        grep -v '^crates/flusim/src/lib.rs:' || true)
    if [[ -n "$retired" ]]; then
        echo "$retired"
        echo "ERROR: use the lattice's named points and halo sizes (see the matches above)" >&2
        exit 1
    fi
    # The partition crate keeps one workspace-taking function per kernel
    # (the plain allocating twins are gone) plus the one parallel entry
    # point; a new `_par` / `_ws` / `_traced` name means a second way to
    # run something that already runs.
    local allowed='coarsen_ws|fm_refine_ws|kway_rebalance_ws|pairwise_kway_refine_ws'
    allowed+='|partition_graph_par_traced|rebalance_ws|repartition_ws'
    suffixed=$(grep -rnE 'pub fn [a-z0-9_]*(_par|_ws|_traced)[(<]' crates/partition/src |
        grep -vE "pub fn (${allowed})[(<]" ||
        true)
    if [[ -n "$suffixed" ]]; then
        echo "$suffixed"
        echo "ERROR: new suffixed twin in crates/partition/src (allow-list in ci.sh)" >&2
        exit 1
    fi
    # The task runtime and the solver have one entry point per operation
    # and no allow-list: tracing is the recorder argument, not a twin.
    suffixed=$(grep -rnE 'pub fn [a-z0-9_]*(_traced|_with[a-z0-9_]*)[(<]' \
        crates/runtime/src crates/solver/src || true)
    if [[ -n "$suffixed" ]]; then
        echo "$suffixed"
        echo "ERROR: add an argument to the general entry point, not a suffix" >&2
        exit 1
    fi
    # State shared by a call's helpers is a struct there, not an argument
    # list: these crates carry no `too_many_arguments` allow.
    if grep -rn 'too_many_arguments' crates/partition/src crates/runtime/src crates/solver/src; then
        echo "ERROR: bundle the arguments into a struct (see the matches above)" >&2
        exit 1
    fi
    # The pipeline reads partition quality off the domain decomposition's
    # face pass: no cell graph is built downstream of a partition, so the
    # non-test part of pipeline.rs never calls `to_graph`.
    local graph_calls
    graph_calls=$(awk '/^#\[cfg\(test\)\]/ { exit } /to_graph\(/ { print FILENAME ":" FNR ": " $0 }' \
        crates/core/src/pipeline.rs)
    if [[ -n "$graph_calls" ]]; then
        echo "$graph_calls"
        echo "ERROR: use DomainDecomposition::quality, not a cell graph, in the pipeline" >&2
        exit 1
    fi
    # Domain classification reads a cell's `(domain, τ)` word off the
    # partition vector and the levels where they lie, and finishes in its
    # one face pass: the non-test part of domains.rs holds no per-cell word
    # array and walks the remote-domain slots in no second pass over the
    # cells (the two-pass build lives on as the oracle in its tests).
    local cell_passes
    cell_passes=$(awk '/^#\[cfg\(test\)\]/ { exit } /words: Vec|remote\.iter\(|slots\.iter\(/ { print FILENAME ":" FNR ": " $0 }' \
        crates/taskgraph/src/domains.rs)
    if [[ -n "$cell_passes" ]]; then
        echo "$cell_passes"
        echo "ERROR: classify in the one face pass; no word array or second cell pass in domains.rs" >&2
        exit 1
    fi
    # The octree is one node array over the base grid: the non-test part of
    # octree.rs holds no hash map of leaf keys (the hash-map oracle lives in
    # its tests), so lookups stay array reads down from a base cell.
    local leaf_maps
    leaf_maps=$(awk '/^#\[cfg\(test\)\]/ { exit } /HashMap|LeafHasher/ { print FILENAME ":" FNR ": " $0 }' \
        crates/mesh/src/octree.rs)
    if [[ -n "$leaf_maps" ]]; then
        echo "$leaf_maps"
        echo "ERROR: the octree is a node array; keep hash maps of leaf keys out of octree.rs" >&2
        exit 1
    fi
    # `Octree::side` answers every face of the face pass; out of line it
    # makes PPRIME_NOZZLE depth-6 generation ~1.3× slower with every test
    # green, so the line above its definition stays `#[inline]`.
    local side_inline
    side_inline=$(awk '/pub\(crate\) fn side\(/ { found = 1; if (prev !~ /^[[:space:]]*#\[inline\][[:space:]]*$/) print FILENAME ":" FNR ": " $0 }
        { prev = $0 } END { if (!found) print FILENAME ": no pub(crate) fn side(" }' \
        crates/mesh/src/octree.rs)
    if [[ -n "$side_inline" ]]; then
        echo "$side_inline"
        echo "ERROR: keep #[inline] on the line above Octree::side in octree.rs" >&2
        exit 1
    fi
    # The face pass reserves the octree's face bound (`Octree::max_faces`,
    # 1.24× the faces emitted at PPRIME_NOZZLE depth 6), not six faces a
    # leaf (1.96×): that capacity was the largest item of generation's
    # live peak.
    local face_reserve
    face_reserve=$(awk '/^#\[cfg\(test\)\]/ { exit } /DIRECTIONS\.len\(\) \*/ { print FILENAME ":" FNR ": " $0 }' \
        crates/mesh/src/mesh.rs)
    if [[ -n "$face_reserve" ]]; then
        echo "$face_reserve"
        echo "ERROR: reserve Octree::max_faces faces, not six a leaf, in mesh.rs" >&2
        exit 1
    fi
    # Task-graph generation and the FLUSIM pipeline price tasks from the
    # domain classification's object counts; only the solver walks object
    # ids. The non-test parts of crates/core/src/ and generate.rs never name
    # the id lists, so the counting build cannot grow them back.
    local id_lists f
    id_lists=$(for f in crates/core/src/*.rs crates/taskgraph/src/generate.rs; do
        awk '/^#\[cfg\(test\)\]/ { exit }
            /ObjectLists|cells_of\(|faces_of\(/ { print FILENAME ":" FNR ": " $0 }' "$f"
    done)
    if [[ -n "$id_lists" ]]; then
        echo "$id_lists"
        echo "ERROR: read DomainDecomposition::{cell,face}_count; object ids are the solver's" >&2
        exit 1
    fi
    # Every strategy's partitioner scratch, the curve's included, is leased
    # from the caller's `Exec` pool (`PartitionWorkspace::sfc`): the non-test
    # parts of crates/core/src/ build no curve workspace of their own, so a
    # warm pool is never bypassed by a fresh, zeroed one.
    local sfc_scratch
    sfc_scratch=$(for f in crates/core/src/*.rs; do
        awk '/^#\[cfg\(test\)\]/ { exit }
            /SfcWorkspace::new\(/ { print FILENAME ":" FNR ": " $0 }' "$f"
    done)
    if [[ -n "$sfc_scratch" ]]; then
        echo "$sfc_scratch"
        echo "ERROR: lease the curve scratch from exec.pool (PartitionWorkspace::sfc)" >&2
        exit 1
    fi
    # A bisection level reads its adjacency once: the non-test part of
    # refine.rs reads edge weights only in `measure_gains` (the level's
    # sweep) and `flip` (one move), so no FM pass, rollback or rebalance
    # index build sweeps the graph again.
    local sweeps
    sweeps=$(awk '/^#\[cfg\(test\)\]/ { exit }
        /^(pub(\(crate\))? )?fn / { fn_line = $0 }
        /edge_weights\(/ && fn_line !~ /fn (measure_gains|flip)\(/ { print FILENAME ":" FNR ": " $0 }' \
        crates/partition/src/refine.rs)
    if [[ -n "$sweeps" ]]; then
        echo "$sweeps"
        echo "ERROR: keep gains exact through flip, not a new sweep of the adjacency" >&2
        exit 1
    fi
    # A priced transfer reads its link off the price table's node vector
    # and its bytes off the table's edge row: the non-test part of sim.rs
    # never calls `Topology::link` (an enum match and two divisions per
    # transfer) or `message_bytes` (a binary search per edge).
    local net_calls
    net_calls=$(awk '/^#\[cfg\(test\)\]/ { exit } /\.link\(|message_bytes\(/ { print FILENAME ":" FNR ": " $0 }' \
        crates/flusim/src/sim.rs)
    if [[ -n "$net_calls" ]]; then
        echo "$net_calls"
        echo "ERROR: price transfers from PricedNetwork, not per call, in the event loop" >&2
        exit 1
    fi
    # The curve partition has one path for every n, the bucket walk of
    # crates/partition/src/geometric.rs: the radix sort's size cutoff and
    # the entry point that forced either side of it stay gone.
    local sfc_paths
    sfc_paths=$(grep -rnE '\bSFC_RADIX_CUTOFF\b|\bsfc_partition_forced\b' crates src tests examples ||
        true)
    if [[ -n "$sfc_paths" ]]; then
        echo "$sfc_paths"
        echo "ERROR: the SFC partition has one path; compare against a test oracle instead" >&2
        exit 1
    fi
    # Performance numbers are taken, kept, compared and gated in benchmark/
    # alone: no `cargo bench` suite, no second timing harness, and none of
    # the old bench knobs or committed baselines may come back (CHANGES.md /
    # EXPERIMENTS.md / ROADMAP.md keep the history and are exempt). The
    # names are spelt in halves so that this file does not match itself.
    local knob='TEMPART_''BENCH_' gate suites
    gate="${knob}|CI_SKIP_""BENCH|\bBENCH_[a-z<*]"
    if grep -rnE "$gate" ci.sh crates src tests README.md DESIGN.md .claude ||
        compgen -G 'BENCH_?*.json' >/dev/null; then
        echo "ERROR: the bench knobs and baselines are gone; perf gates live in benchmark/" >&2
        exit 1
    fi
    suites=$(
        find crates -type d -name benches
        grep -rn '^\[\[bench\]\]' --include=Cargo.toml crates
        grep -rnE 'testkit::''bench|\bBench''er\b' crates src tests
    ) || true
    if [[ -n "$suites" ]]; then
        echo "$suites"
        echo "ERROR: the cargo bench suites and their harness are gone; time it in benchmark/" >&2
        exit 1
    fi
    # One producer for every reproduced number: a new experiment is a row in
    # `EXPERIMENTS` (crates/bench/src/lib.rs), not a binary of its own.
    if [[ "$(ls crates/bench/src/bin)" != experiments.rs ]] ||
        grep -q '^\[\[bin\]\]' crates/bench/Cargo.toml; then
        echo "ERROR: crates/bench has one binary, experiments.rs; add a registry row" >&2
        exit 1
    fi
    echo "ok (${#MANIFESTS[@]} manifests scanned, no suffixed entry points, no bench suite or gate, no pipeline cell graph, no per-transfer link)"
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
    # (`cylinder4/sfc-*`), so the sharded SFC key pass and the bucket walk
    # after it are diffed across process-level worker counts here too.
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
    # Table I), partitions it through the SFC path, diffs 1-vs-4-worker
    # part vectors and the sort-and-walk oracle at full scale, checks ≥1M
    # random points against the same oracle bit for bit, and asserts the
    # whole run stays under the 4 GiB RSS budget. Each SFC call prints its
    # elapsed time beside the RSS report.
    if [[ "${TEMPART_PAPER_SCALE:-0}" == "1" ]]; then
        TEMPART_PAPER_SCALE=1 cargo test --release --offline --test paper_scale -- --nocapture
        echo "ok (paper-scale suite green)"
    else
        echo "skipped (set TEMPART_PAPER_SCALE=1 to run the 12.6M-cell suite)"
    fi
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

echo
echo "== stage timing =="
total=0
for i in "${!STAGE_NAMES[@]}"; do
    printf '  %-14s %4ds\n' "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}"
    total=$((total + STAGE_SECS[i]))
done
printf '  %-14s %4ds\n' total "$total"

echo "CI green."
