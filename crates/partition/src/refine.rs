//! Fiduccia–Mattheyses boundary refinement for bisections.
//!
//! The selection structure is the classic FM **bounded-gain bucket list**
//! ([`GainBuckets`](crate::workspace::GainBuckets)): doubly linked lists
//! indexed by gain, O(1) on every neighbour-gain change, best-feasible
//! extraction by walking buckets downward. All scratch lives in the
//! [`PartitionWorkspace`](crate::PartitionWorkspace); after the workspace is
//! warm, `fm_refine_ws` and `rebalance_ws` perform **zero heap
//! allocations** — enforced by a debug-assert on the testkit counting
//! allocator around the move loops. A level reads its adjacency once
//! (`measure_gains`); every move after that goes through `flip`, which keeps
//! the gains and boundary counts exact (DESIGN.md §8).

use crate::PartitionWorkspace;
use tempart_graph::CsrGraph;

/// What a level's one sweep leaves beside `ws.gain` / `ws.ext`: the cut of
/// the side it measured and the largest incident edge-weight sum (at least
/// 1), which bounds every |gain|.
struct Sweep {
    cut: i64,
    max_gain: i64,
}

/// The level's one adjacency sweep: reports every vertex's exact gain
/// (external minus internal edge weight) and its count of external edges
/// to `each`.
fn measure_gains(graph: &CsrGraph, side: &[u8], mut each: impl FnMut(usize, i64, u32)) -> Sweep {
    let mut cut2 = 0i64;
    let mut max_gain = 1i64;
    for v in 0..graph.nvtx() as u32 {
        let sv = side[v as usize];
        let (mut sum, mut external, mut ext) = (0i64, 0i64, 0u32);
        for (u, w) in graph.neighbors(v).zip(graph.edge_weights(v)) {
            let w = i64::from(w);
            sum += w;
            if side[u as usize] != sv {
                external += w;
                ext += 1;
            }
        }
        each(v as usize, 2 * external - sum, ext);
        cut2 += external;
        max_gain = max_gain.max(sum);
    }
    let cut = cut2 / 2;
    Sweep { cut, max_gain }
}

/// [`measure_gains`] into `ws.gain` / `ws.ext`.
fn measure(graph: &CsrGraph, side: &[u8], ws: &mut PartitionWorkspace) -> Sweep {
    let (gain, ext) = (&mut ws.gain, &mut ws.ext);
    gain.clear();
    gain.reserve(graph.nvtx());
    ext.clear();
    ext.reserve(graph.nvtx());
    measure_gains(graph, side, |_, g, e| {
        gain.push(g);
        ext.push(e);
    })
}

/// Debug oracle: `gain`, `ext` and `cut` equal a fresh [`measure_gains`].
#[cfg(debug_assertions)]
fn assert_exact(graph: &CsrGraph, side: &[u8], gain: &[i64], ext: &[u32], cut: i64) {
    let fresh = measure_gains(graph, side, |v, g, e| {
        assert_eq!((gain[v], ext[v]), (g, e), "stale gain at vertex {v}");
    });
    assert_eq!(cut, fresh.cut, "running cut drifted");
}

/// Moves `v` to the other side and keeps `gain` and `ext` exact: each
/// neighbour's edge to `v` turns internal↔external. `touched(u, gain[u])`
/// runs after each neighbour's update, in adjacency order.
#[inline]
fn flip(
    graph: &CsrGraph,
    side: &mut [u8],
    gain: &mut [i64],
    ext: &mut [u32],
    v: u32,
    mut touched: impl FnMut(u32, i64),
) {
    let to = 1 - side[v as usize];
    side[v as usize] = to;
    let mut ext_v = 0u32;
    for (u, w) in graph.neighbors(v).zip(graph.edge_weights(v)) {
        let (ui, w2) = (u as usize, 2 * i64::from(w));
        if side[ui] == to {
            gain[ui] -= w2;
            ext[ui] -= 1;
        } else {
            gain[ui] += w2;
            ext[ui] += 1;
            ext_v += 1;
        }
        touched(u, gain[ui]);
    }
    gain[v as usize] = -gain[v as usize];
    ext[v as usize] = ext_v;
}

/// One FM refinement driver for a 0/1 bisection.
///
/// Runs up to `max_passes` passes; each pass tentatively moves every vertex
/// at most once in best-gain-first order (hill climbing allowed), then rolls
/// back to the best prefix seen. Moves are only considered *feasible* when
/// they do not worsen the balance beyond `ub` (or beyond the current
/// violation, if the bisection is already out of tolerance — so refinement
/// doubles as a balancing pass).
///
/// Tie-breaks among equal gains follow the bucket order documented at
/// [`GainBuckets`](crate::workspace::GainBuckets) (deterministic for a fixed
/// seed).
pub fn fm_refine_ws(
    graph: &CsrGraph,
    side: &mut [u8],
    frac0: f64,
    ub: f64,
    max_passes: usize,
    ws: &mut PartitionWorkspace,
) -> i64 {
    let sweep = measure(graph, side, ws);
    if graph.nvtx() == 0 {
        return sweep.cut;
    }
    ws.side_weights.remeasure(graph, side, frac0);
    fm_passes(graph, side, ub, max_passes, sweep, ws)
}

/// Refines one level of a multilevel bisection: a rebalance if `side`
/// violates `ub`, then FM, both on the level's one gain sweep —
/// bit-identical to [`rebalance_ws`] followed by [`fm_refine_ws`].
pub(crate) fn refine_level(
    graph: &CsrGraph,
    side: &mut [u8],
    frac0: f64,
    ub: f64,
    max_passes: usize,
    ws: &mut PartitionWorkspace,
) {
    if graph.nvtx() > 0 {
        let (_, sweep) = rebalance(graph, side, frac0, ub, true, ws);
        let sweep = sweep.expect("rebalance sweeps the level for FM");
        fm_passes(graph, side, ub, max_passes, sweep, ws);
    }
}

/// The pass loop of [`fm_refine_ws`]. `sweep` is `side`'s, and `ws.gain`,
/// `ws.ext` and `ws.side_weights` are exact for `side`.
fn fm_passes(
    graph: &CsrGraph,
    side: &mut [u8],
    ub: f64,
    max_passes: usize,
    Sweep { mut cut, max_gain }: Sweep,
    ws: &mut PartitionWorkspace,
) -> i64 {
    let n = graph.nvtx();
    // --- setup: the only region allowed to allocate (cold buffers) ---
    // Opening the span here (before the allocation snapshot) also forces
    // creation of this thread's event sink, so enabled-recorder emissions
    // inside the move loops below stay allocation-free.
    let rec = ws.obs.clone();
    let level = ws.obs_level;
    let _span = rec.span("part.fm", level, cut.max(0) as u64);
    ws.buckets.ensure(n, max_gain);
    ws.locked.clear();
    ws.locked.resize(n, false);
    ws.history.clear();
    ws.history.reserve(n);
    let (gain, ext, weights) = (&mut ws.gain, &mut ws.ext, &mut ws.side_weights);
    let (locked, history, buckets) = (&mut ws.locked, &mut ws.history, &mut ws.buckets);

    // Zero-allocation contract for the pass/move loops, checked against the
    // testkit counting allocator when a test binary installs it.
    #[cfg(debug_assertions)]
    let allocs_at_loop_entry = tempart_testkit::alloc::allocation_count();

    // Per-call counter accumulators (plain integer adds in the hot loops;
    // emitted once after the passes finish).
    let mut obs_passes = 0u64;
    let mut obs_moves = 0u64;
    let mut obs_kept = 0u64;
    let mut obs_seeded = 0u64;

    for _pass in 0..max_passes {
        // Seed the buckets with boundary vertices only (classic FM; tiny
        // instances seed everyone): interior vertices enter when a
        // neighbour's move pulls them in.
        buckets.clear();
        for &v in history.iter() {
            locked[v as usize] = false;
        }
        history.clear();
        for v in 0..n {
            if n < 64 || ext[v] != 0 {
                buckets.insert(v as u32, gain[v]);
            }
        }

        obs_passes += 1;
        obs_seeded += buckets.len() as u64;

        // Applied moves this pass, with running cut for the rollback.
        let mut running = cut;
        let mut best_cut = cut;
        let mut cur_norm = weights.max_norm();
        let mut best_norm = cur_norm;
        let mut best_len = 0usize;
        // Hill-climbing fuel: stop the pass after this many consecutive
        // non-improving moves (bounds the tail without hurting quality).
        let fuel_limit = 64 + n / 16;
        let mut fuel = fuel_limit;

        loop {
            // Best feasible move: walk buckets downward, skipping (but
            // keeping) candidates that would break the balance — they are
            // retried after the next applied move shifts the weights. The
            // scan bound mirrors the old implementation's stash limit.
            // `limit` is at or above every cached norm, as `fits_after` needs.
            let limit = ub.max(cur_norm) + 1e-12;
            let chosen = buckets.pop_best(256, |v| {
                weights.fits_after(graph.vertex_weights(v), side[v as usize] as usize, limit)
            });
            let Some(v) = chosen else {
                // Nothing feasible right now; candidates only become
                // feasible after a move changes the balance, so stop.
                break;
            };

            // Apply the move; re-rank the unlocked neighbours (pulling
            // interior vertices onto the frontier).
            weights.apply(graph.vertex_weights(v), side[v as usize] as usize);
            locked[v as usize] = true;
            running -= gain[v as usize];
            history.push(v);
            flip(graph, side, gain, ext, v, |u, g| {
                if !locked[u as usize] {
                    buckets.update(u, g);
                }
            });

            cur_norm = weights.max_norm();
            let improves = running < best_cut
                || (running == best_cut && cur_norm < best_norm - 1e-12)
                || (best_norm > ub && cur_norm < best_norm - 1e-12);
            if improves {
                best_cut = running;
                best_norm = cur_norm;
                best_len = history.len();
                fuel = fuel_limit;
            } else {
                fuel -= 1;
                if fuel == 0 {
                    break;
                }
            }
        }

        // Roll back to the best prefix.
        for &v in history[best_len..].iter().rev() {
            weights.apply(graph.vertex_weights(v), side[v as usize] as usize);
            flip(graph, side, gain, ext, v, |_, _| {});
        }
        obs_moves += history.len() as u64;
        obs_kept += best_len as u64;
        let improved = best_cut < cut || best_len > 0;
        cut = best_cut;
        #[cfg(debug_assertions)]
        assert_exact(graph, side, gain, ext, cut);
        if !improved || best_len == 0 {
            break;
        }
    }

    #[cfg(debug_assertions)]
    debug_assert_eq!(
        tempart_testkit::alloc::allocation_count(),
        allocs_at_loop_entry,
        "FM inner loop allocated on the heap"
    );
    if rec.enabled() {
        // Per-level FM accounting: moves tried / kept after rollback /
        // passes run / vertices seeded into the gain buckets. Track = the
        // uncoarsening level this refinement ran at.
        rec.counter("part.fm.moves", level, obs_moves);
        rec.counter("part.fm.kept", level, obs_kept);
        rec.counter("part.fm.passes", level, obs_passes);
        rec.counter("part.fm.bucket_seeded", level, obs_seeded);
        rec.hist("part.fm.moves_per_call", obs_moves);
    }
    cut
}

/// Restores balance of a bisection that violates the tolerance.
///
/// While some `(side, constraint)` load exceeds `ub`, the pass moves the
/// best-gain vertex that reduces that worst load (a vertex on the overloaded
/// side with positive weight in the overloaded constraint) to the other
/// side. Candidates live in a gain-bucket index of *every* such carrier,
/// interior ones included (multi-constraint one-hot instances need them),
/// rebuilt per `(side, constraint)` episode and kept current in O(deg).
///
/// Returns the number of moves applied.
pub fn rebalance_ws(
    graph: &CsrGraph,
    side: &mut [u8],
    frac0: f64,
    ub: f64,
    ws: &mut PartitionWorkspace,
) -> usize {
    if graph.nvtx() == 0 {
        return 0;
    }
    rebalance(graph, side, frac0, ub, false, ws).0
}

/// The `part.rebalance` phase of a level: [`rebalance_ws`]'s moves. With
/// `for_fm` the level's gain sweep runs even when `side` is balanced and is
/// returned for [`fm_passes`]; without, a balanced `side` is not swept.
fn rebalance(
    graph: &CsrGraph,
    side: &mut [u8],
    frac0: f64,
    ub: f64,
    for_fm: bool,
    ws: &mut PartitionWorkspace,
) -> (usize, Option<Sweep>) {
    let n = graph.nvtx();
    let rec = ws.obs.clone();
    let level = ws.obs_level;
    let _span = rec.span("part.rebalance", level, 0);
    ws.side_weights.remeasure(graph, side, frac0);
    if !for_fm && ws.side_weights.max_norm() <= ub + 1e-12 {
        rec.counter("part.rebalance.moves", level, 0);
        return (0, None);
    }
    let mut sweep = measure(graph, side, ws);
    ws.buckets.ensure(n, sweep.max_gain);
    let (gain, ext, weights) = (&mut ws.gain, &mut ws.ext, &mut ws.side_weights);
    let buckets = &mut ws.buckets;

    #[cfg(debug_assertions)]
    let allocs_at_loop_entry = tempart_testkit::alloc::allocation_count();

    let mut moves = 0usize;
    // The (side, constraint) the candidate index is currently built for.
    let mut indexed_for: Option<(usize, usize)> = None;
    // Upper bound on useful moves: each strictly reduces the overloaded
    // (side, constraint) weight, so n is a hard cap; in practice a handful
    // suffice after projection, and none when the level is balanced.
    while moves < n {
        let (wsd, wc, wn) = weights.worst();
        if wn <= ub + 1e-12 {
            break;
        }
        if indexed_for != Some((wsd, wc)) {
            // (Re)build the candidate index: every vertex on side `wsd`
            // carrying constraint `wc`, keyed by its gain. Ascending-id
            // insertion keeps this deterministic (see GainBuckets docs).
            buckets.clear();
            for v in 0..n as u32 {
                if side[v as usize] as usize == wsd && graph.vertex_weights(v)[wc] != 0 {
                    buckets.insert(v, gain[v as usize]);
                }
            }
            indexed_for = Some((wsd, wc));
        }
        // Best-gain movable vertex whose departure does not make the *other*
        // side worse than `wn` (otherwise the move just shifts the
        // violation). Infeasible candidates stay indexed — they may become
        // feasible as `wn` drops.
        let chosen = buckets.pop_best(n, |v| {
            weights.max_norm_after(graph.vertex_weights(v), wsd) < wn - 1e-12
        });
        let Some(v) = chosen else { break };
        weights.apply(graph.vertex_weights(v), wsd);
        sweep.cut -= gain[v as usize];
        moves += 1;
        // Every still-indexed neighbour sat on side `wsd` with v, so its
        // edge to v turned external: re-rank it.
        flip(graph, side, gain, ext, v, |u, g| {
            if buckets.contains(u) {
                buckets.update(u, g);
            }
        });
    }

    #[cfg(debug_assertions)]
    {
        debug_assert_eq!(
            tempart_testkit::alloc::allocation_count(),
            allocs_at_loop_entry,
            "rebalance move loop allocated on the heap"
        );
        assert_exact(graph, side, gain, ext, sweep.cut);
    }
    if rec.enabled() {
        rec.counter("part.rebalance.moves", level, moves as u64);
    }
    (moves, Some(sweep))
}

/// Projects a coarse bisection onto the fine graph: every fine vertex takes
/// the side of its coarse image.
pub fn project(fine_to_coarse: &[u32], coarse_side: &[u8]) -> Vec<u8> {
    fine_to_coarse
        .iter()
        .map(|&cv| coarse_side[cv as usize])
        .collect()
}

/// Allocation-free [`project`]: writes into `out` (cleared first).
pub(crate) fn project_into(fine_to_coarse: &[u32], coarse_side: &[u8], out: &mut Vec<u8>) {
    out.clear();
    out.extend(fine_to_coarse.iter().map(|&cv| coarse_side[cv as usize]));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::initial::{bisection_cut, tests::random_graph, SideWeights};
    use tempart_graph::builder::grid_graph;
    use tempart_graph::GraphBuilder;
    use tempart_obs::{Event, Kind, Recorder};
    use tempart_testkit::rng::Rng;

    #[test]
    fn refine_improves_bad_split() {
        // Start from a stripe split of a grid (bad cut) and let FM improve it.
        let g = grid_graph(8, 8);
        let mut side: Vec<u8> = (0..64).map(|v| (v % 2) as u8).collect();
        let before = bisection_cut(&g, &side);
        let after = fm_refine_ws(&g, &mut side, 0.5, 1.05, 10, &mut PartitionWorkspace::new());
        assert!(after < before, "cut {before} -> {after}");
        assert_eq!(after, bisection_cut(&g, &side), "returned cut consistent");
        let n0 = side.iter().filter(|&&s| s == 0).count();
        assert!((26..=38).contains(&n0), "balance kept: {n0}");
    }

    #[test]
    fn refine_keeps_optimal_split() {
        let g = grid_graph(8, 8);
        let mut side: Vec<u8> = (0..64).map(|v| u8::from(v % 8 >= 4)).collect();
        let before = bisection_cut(&g, &side);
        assert_eq!(before, 8);
        let after = fm_refine_ws(&g, &mut side, 0.5, 1.05, 10, &mut PartitionWorkspace::new());
        assert!(after <= before);
    }

    #[test]
    fn refine_restores_balance() {
        // Everything on side 0: refinement must push ~half across even though
        // every initial move raises the (zero) cut... gains are negative but
        // the balance rule lets it escape.
        let g = grid_graph(6, 6);
        let mut side = vec![0u8; 36];
        let _ = fm_refine_ws(&g, &mut side, 0.5, 1.10, 20, &mut PartitionWorkspace::new());
        let n0 = side.iter().filter(|&&s| s == 0).count();
        assert!((13..=23).contains(&n0), "rebalanced: {n0}");
    }

    #[test]
    fn refine_respects_multiconstraint() {
        let g = grid_graph(8, 8);
        let mut vwgt = vec![0u32; 64 * 2];
        for v in 0..64 {
            vwgt[v * 2 + usize::from(v % 8 >= 4)] = 1;
        }
        let g2 = g.with_vertex_weights(vwgt, 2);
        // Horizontal split balances both classes.
        let mut side: Vec<u8> = (0..64).map(|v| u8::from(v / 8 >= 4)).collect();
        let _ = fm_refine_ws(&g2, &mut side, 0.5, 1.1, 10, &mut PartitionWorkspace::new());
        let w = SideWeights::measure(&g2, &side, 0.5);
        assert!(w.max_norm() <= 1.12, "norm {}", w.max_norm());
    }

    #[test]
    fn refine_shared_workspace_is_stateless() {
        // Same input through one warm workspace twice == fresh workspace.
        let g = grid_graph(12, 12);
        let start: Vec<u8> = (0..144).map(|v| (v % 2) as u8).collect();
        let mut ws = PartitionWorkspace::new();
        let mut a = start.clone();
        let ca = fm_refine_ws(&g, &mut a, 0.5, 1.05, 6, &mut ws);
        let mut b = start.clone();
        let cb = fm_refine_ws(&g, &mut b, 0.5, 1.05, 6, &mut ws);
        let mut c = start.clone();
        let cc = fm_refine_ws(&g, &mut c, 0.5, 1.05, 6, &mut PartitionWorkspace::new());
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(ca, cb);
        assert_eq!(ca, cc);
    }

    #[test]
    fn rebalance_fixes_violation_without_full_scans() {
        let g = grid_graph(10, 10);
        let mut side = vec![0u8; 100];
        let moves = rebalance_ws(&g, &mut side, 0.5, 1.10, &mut PartitionWorkspace::new());
        assert!(moves > 0);
        let w = SideWeights::measure(&g, &side, 0.5);
        assert!(w.max_norm() <= 1.10 + 1e-9, "norm {}", w.max_norm());
    }

    #[test]
    fn rebalance_multiconstraint_interior() {
        // One-hot classes in vertical halves (c0: cols 0-3, c1: cols 4-7);
        // the bisection boundary sits between cols 5 and 6, so every c0
        // carrier is *interior* — unreachable by boundary-seeded FM — and
        // c0 is fully on side 0 (norm 2.0) while c1 is balanced. The
        // rebalance candidate index holds all carriers, not just the
        // boundary, so it must fix this.
        let g = grid_graph(8, 8);
        let mut vwgt = vec![0u32; 64 * 2];
        for v in 0..64 {
            vwgt[v * 2 + usize::from(v % 8 >= 4)] = 1;
        }
        let g2 = g.with_vertex_weights(vwgt, 2);
        let mut side: Vec<u8> = (0..64).map(|v| u8::from(v % 8 >= 6)).collect();
        let moves = rebalance_ws(&g2, &mut side, 0.5, 1.25, &mut PartitionWorkspace::new());
        assert!(moves > 0);
        let w = SideWeights::measure(&g2, &side, 0.5);
        assert!(w.max_norm() <= 1.25 + 1e-9, "norm {}", w.max_norm());
    }

    #[test]
    fn project_maps_sides() {
        let side = project(&[0, 0, 1, 2, 2], &[1, 0, 1]);
        assert_eq!(side, vec![1, 1, 0, 1, 1]);
        let mut out = Vec::new();
        project_into(&[0, 0, 1, 2, 2], &[1, 0, 1], &mut out);
        assert_eq!(out, side);
    }

    #[test]
    fn refine_empty_graph() {
        let g = GraphBuilder::new(0, 1).build();
        let mut side: Vec<u8> = Vec::new();
        assert_eq!(
            fm_refine_ws(&g, &mut side, 0.5, 1.05, 3, &mut PartitionWorkspace::new()),
            0
        );
    }

    // --- oracle: the refinement before the one-sweep rewrite -------------
    //
    // `fm_refine_ws` and `rebalance_ws` as they were when every FM pass
    // re-swept the adjacency for its gains and boundary and rebalance swept
    // it for its bucket range and every index build. Changed: the cut and
    // gain bound come from two sweeps instead of one fused one, rebalance
    // uses the one bucket set, and `pop_best`'s closure takes no gain.

    /// Largest |gain| any vertex can reach: the maximum incident
    /// edge-weight sum (at least 1).
    fn gain_bound(graph: &CsrGraph) -> i64 {
        (0..graph.nvtx() as u32)
            .map(|v| graph.edge_weights(v).map(i64::from).sum())
            .fold(1, i64::max)
    }

    fn oracle_fm_refine(
        graph: &CsrGraph,
        side: &mut [u8],
        frac0: f64,
        ub: f64,
        max_passes: usize,
        ws: &mut PartitionWorkspace,
    ) -> i64 {
        let n = graph.nvtx();
        let (mut cut, max_gain) = (bisection_cut(graph, side), gain_bound(graph));
        if n == 0 {
            return cut;
        }
        let rec = ws.obs.clone();
        let level = ws.obs_level;
        let _span = rec.span("part.fm", level, cut.max(0) as u64);
        ws.side_weights.remeasure(graph, side, frac0);
        ws.buckets.ensure(n, max_gain);
        ws.gain.clear();
        ws.gain.resize(n, 0);
        ws.locked.clear();
        ws.locked.resize(n, false);
        ws.history.clear();
        ws.history.reserve(n);
        let gain = &mut ws.gain;
        let locked = &mut ws.locked;
        let history = &mut ws.history;
        let buckets = &mut ws.buckets;
        let weights = &mut ws.side_weights;
        let mut obs_passes = 0u64;
        let mut obs_moves = 0u64;
        let mut obs_kept = 0u64;
        let mut obs_seeded = 0u64;

        for _pass in 0..max_passes {
            buckets.clear();
            locked.fill(false);
            history.clear();
            for v in 0..n as u32 {
                let sv = side[v as usize];
                let mut g = 0i64;
                let mut on_boundary = n < 64;
                for (u, w) in graph.neighbors(v).zip(graph.edge_weights(v)) {
                    if side[u as usize] == sv {
                        g -= i64::from(w);
                    } else {
                        g += i64::from(w);
                        on_boundary = true;
                    }
                }
                gain[v as usize] = g;
                if on_boundary {
                    buckets.insert(v, g);
                }
            }
            obs_passes += 1;
            obs_seeded += buckets.len() as u64;
            let mut running = cut;
            let mut best_cut = cut;
            let mut cur_norm = weights.max_norm();
            let mut best_norm = cur_norm;
            let mut best_len = 0usize;
            let fuel_limit = 64 + n / 16;
            let mut fuel = fuel_limit;
            loop {
                let limit = ub.max(cur_norm) + 1e-12;
                let chosen = buckets.pop_best(256, |v| {
                    weights.max_norm_after(graph.vertex_weights(v), side[v as usize] as usize)
                        <= limit
                });
                let Some(v) = chosen else {
                    break;
                };
                let from = side[v as usize] as usize;
                weights.apply(graph.vertex_weights(v), from);
                side[v as usize] = 1 - side[v as usize];
                locked[v as usize] = true;
                running -= gain[v as usize];
                history.push(v);
                for (u, w) in graph.neighbors(v).zip(graph.edge_weights(v)) {
                    if locked[u as usize] {
                        continue;
                    }
                    if side[u as usize] == side[v as usize] {
                        gain[u as usize] -= 2 * i64::from(w);
                    } else {
                        gain[u as usize] += 2 * i64::from(w);
                    }
                    buckets.update(u, gain[u as usize]);
                }
                gain[v as usize] = -gain[v as usize];
                cur_norm = weights.max_norm();
                let improves = running < best_cut
                    || (running == best_cut && cur_norm < best_norm - 1e-12)
                    || (best_norm > ub && cur_norm < best_norm - 1e-12);
                if improves {
                    best_cut = running;
                    best_norm = cur_norm;
                    best_len = history.len();
                    fuel = fuel_limit;
                } else {
                    fuel -= 1;
                    if fuel == 0 {
                        break;
                    }
                }
            }
            for &v in history[best_len..].iter().rev() {
                let from = side[v as usize] as usize;
                weights.apply(graph.vertex_weights(v), from);
                side[v as usize] = 1 - side[v as usize];
            }
            obs_moves += history.len() as u64;
            obs_kept += best_len as u64;
            let improved = best_cut < cut || best_len > 0;
            cut = best_cut;
            if !improved || best_len == 0 {
                break;
            }
        }
        if rec.enabled() {
            rec.counter("part.fm.moves", level, obs_moves);
            rec.counter("part.fm.kept", level, obs_kept);
            rec.counter("part.fm.passes", level, obs_passes);
            rec.counter("part.fm.bucket_seeded", level, obs_seeded);
            rec.hist("part.fm.moves_per_call", obs_moves);
        }
        cut
    }

    fn oracle_rebalance(
        graph: &CsrGraph,
        side: &mut [u8],
        frac0: f64,
        ub: f64,
        ws: &mut PartitionWorkspace,
    ) -> usize {
        let n = graph.nvtx();
        if n == 0 {
            return 0;
        }
        let rec = ws.obs.clone();
        let level = ws.obs_level;
        let _span = rec.span("part.rebalance", level, 0);
        ws.side_weights.remeasure(graph, side, frac0);
        let moves = if ws.side_weights.max_norm() <= ub + 1e-12 {
            0
        } else {
            oracle_rebalance_moves(graph, side, ub, ws)
        };
        if rec.enabled() {
            rec.counter("part.rebalance.moves", level, moves as u64);
        }
        moves
    }

    fn oracle_rebalance_moves(
        graph: &CsrGraph,
        side: &mut [u8],
        ub: f64,
        ws: &mut PartitionWorkspace,
    ) -> usize {
        let n = graph.nvtx();
        let ncon = graph.ncon();
        ws.buckets.ensure(n, gain_bound(graph));
        ws.gain.clear();
        ws.gain.resize(n, 0);
        let weights = &mut ws.side_weights;
        let buckets = &mut ws.buckets;
        let gain = &mut ws.gain;
        let mut moves = 0usize;
        let mut indexed_for: Option<(usize, usize)> = None;
        while moves < n {
            let (mut wsd, mut wc, mut wn) = (0usize, 0usize, 0.0f64);
            for s in 0..2 {
                for c in 0..ncon {
                    let norm = weights.norm(s, c);
                    if norm > wn {
                        wn = norm;
                        wsd = s;
                        wc = c;
                    }
                }
            }
            if wn <= ub + 1e-12 {
                break;
            }
            if indexed_for != Some((wsd, wc)) {
                buckets.clear();
                for v in 0..n as u32 {
                    if side[v as usize] as usize != wsd {
                        continue;
                    }
                    if graph.vertex_weights(v)[wc] == 0 {
                        continue;
                    }
                    let mut g = 0i64;
                    for (u, w) in graph.neighbors(v).zip(graph.edge_weights(v)) {
                        if side[u as usize] as usize == wsd {
                            g -= i64::from(w);
                        } else {
                            g += i64::from(w);
                        }
                    }
                    gain[v as usize] = g;
                    buckets.insert(v, g);
                }
                indexed_for = Some((wsd, wc));
            }
            let chosen = buckets.pop_best(n, |v| {
                weights.max_norm_after(graph.vertex_weights(v), wsd) < wn - 1e-12
            });
            let Some(v) = chosen else { break };
            weights.apply(graph.vertex_weights(v), wsd);
            side[v as usize] = 1 - side[v as usize];
            moves += 1;
            for (u, w) in graph.neighbors(v).zip(graph.edge_weights(v)) {
                if buckets.contains(u) {
                    gain[u as usize] += 2 * i64::from(w);
                    buckets.update(u, gain[u as usize]);
                }
            }
        }
        moves
    }

    /// An event without its sequence number, clock and timestamp: what two
    /// runs of the same refinement must agree on.
    type Shape = (Kind, &'static str, u32, u64, u64, u64);

    fn shape(e: &Event) -> Shape {
        (e.kind, e.name, e.track, e.val, e.a, e.b)
    }

    /// Runs `f` on `ws` under a fresh enabled recorder; returns its result
    /// and the shapes of the events and histograms it emitted.
    fn traced<T>(
        ws: &mut PartitionWorkspace,
        f: impl FnOnce(&mut PartitionWorkspace) -> T,
    ) -> (T, Vec<Shape>, String) {
        let rec = Recorder::new(1 << 16);
        ws.obs = rec.clone();
        ws.obs_level = 3;
        let out = f(ws);
        ws.obs = Recorder::off().clone();
        let trace = rec.take();
        assert_eq!(trace.dropped, 0);
        let events = trace.events.iter().map(shape).collect();
        (out, events, format!("{:?}", trace.histograms))
    }

    /// Random, all-zero or striped starting sides.
    fn start_side(rng: &mut Rng, n: usize, kind: usize) -> Vec<u8> {
        (0..n)
            .map(|v| match kind {
                0 => u8::from(rng.gen_bool()),
                1 => 0,
                _ => ((v / 3) % 2) as u8,
            })
            .collect()
    }

    #[test]
    fn one_sweep_refinement_matches_the_per_pass_sweep_oracle() {
        let mut rng = Rng::seed_from_u64(0x0F_3E37);
        // One warm workspace for the new path across every instance, a
        // fresh one per oracle call.
        let mut ws = PartitionWorkspace::new();
        let (mut fm_moves, mut rb_moves, mut zero_edges) = (0u64, 0usize, 0usize);
        for n in [1usize, 5, 63, 64, 65, 500, 3000] {
            for frac0 in [0.5, 1.0 / 3.0, 0.9] {
                for ub in [1.001, 1.05, 1.3] {
                    for kind in 0..3 {
                        let ncon = 1 + rng.gen_range(0..4usize);
                        let one_hot = rng.gen_bool();
                        let g = random_graph(&mut rng, n, ncon, one_hot);
                        zero_edges += (0..n as u32)
                            .map(|v| g.edge_weights(v).filter(|&w| w == 0).count())
                            .sum::<usize>();
                        let start = start_side(&mut rng, n, kind);
                        let passes = 1 + rng.gen_range(0..10usize);
                        let at = format!("n {n} ncon {ncon} frac0 {frac0} ub {ub} start {kind}");

                        // rebalance_ws alone.
                        let (mut a, mut b) = (start.clone(), start.clone());
                        let new = traced(&mut ws, |ws| rebalance_ws(&g, &mut a, frac0, ub, ws));
                        let old = traced(&mut PartitionWorkspace::new(), |ws| {
                            oracle_rebalance(&g, &mut b, frac0, ub, ws)
                        });
                        assert_eq!(a, b, "rebalance sides, {at}");
                        assert_eq!(new, old, "rebalance moves and events, {at}");
                        rb_moves += new.0;

                        // fm_refine_ws alone, from the unbalanced start.
                        let (mut a, mut b) = (start.clone(), start.clone());
                        let new = traced(&mut ws, |ws| {
                            fm_refine_ws(&g, &mut a, frac0, ub, passes, ws)
                        });
                        let old = traced(&mut PartitionWorkspace::new(), |ws| {
                            oracle_fm_refine(&g, &mut b, frac0, ub, passes, ws)
                        });
                        assert_eq!(a, b, "FM sides, {at}");
                        assert_eq!(new, old, "FM cut, counters and events, {at}");
                        assert_eq!(new.0, bisection_cut(&g, &a), "FM cut, {at}");
                        fm_moves += new
                            .1
                            .iter()
                            .filter(|e| e.1 == "part.fm.moves")
                            .map(|e| e.3)
                            .sum::<u64>();

                        // The level refinement of a multilevel bisection.
                        let (mut a, mut b) = (start.clone(), start);
                        let new = traced(&mut ws, |ws| {
                            refine_level(&g, &mut a, frac0, ub, passes, ws)
                        });
                        let old = traced(&mut PartitionWorkspace::new(), |ws| {
                            oracle_rebalance(&g, &mut b, frac0, ub, ws);
                            oracle_fm_refine(&g, &mut b, frac0, ub, passes, ws);
                        });
                        assert_eq!(a, b, "level sides, {at}");
                        assert_eq!(new, old, "level events, {at}");
                    }
                }
            }
        }
        // The instances must exercise what the rewrite keeps exact.
        assert!(fm_moves > 10_000, "only {fm_moves} FM moves");
        assert!(rb_moves > 1_000, "only {rb_moves} rebalance moves");
        assert!(zero_edges > 1_000, "only {zero_edges} zero-weight edges");
    }

    #[test]
    fn huge_edge_weights_share_the_end_buckets() {
        // Gains near ±2^33 are far past the bucket cap: the buckets clamp
        // them, while the gains, the cut and the returned side stay exact.
        let mut b = GraphBuilder::new(4, 1);
        for v in 1..4u32 {
            b.add_edge(v - 1, v, 4_000_000_000);
        }
        let g = b.build();
        let mut side = vec![0u8, 1, 0, 1];
        let mut ws = PartitionWorkspace::new();
        let cut = fm_refine_ws(&g, &mut side, 0.5, 1.6, 6, &mut ws);
        assert_eq!(cut, bisection_cut(&g, &side));
        assert_eq!(cut, 4_000_000_000, "{side:?}");
        let mut oracle = vec![0u8, 1, 0, 1];
        oracle_fm_refine(&g, &mut oracle, 0.5, 1.6, 6, &mut PartitionWorkspace::new());
        assert_eq!(side, oracle);
    }
}
