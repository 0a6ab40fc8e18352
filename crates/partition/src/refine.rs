//! Fiduccia–Mattheyses boundary refinement for bisections.
//!
//! The selection structure is the classic FM **bounded-gain bucket list**
//! ([`GainBuckets`](crate::workspace::GainBuckets)): doubly linked lists
//! indexed by gain, O(1) on every neighbour-gain change, best-feasible
//! extraction by walking buckets downward. It replaces the previous
//! lazy-deletion `BinaryHeap`, which flooded itself with stale entries (one
//! per neighbour-gain change) and re-sorted them for nothing. All scratch
//! lives in the [`PartitionWorkspace`](crate::PartitionWorkspace); after the
//! workspace is warm, `fm_refine_ws` and `rebalance_ws` perform **zero heap
//! allocations** — enforced by a debug-assert on the testkit counting
//! allocator around the move loops.

use crate::PartitionWorkspace;
use tempart_graph::CsrGraph;

/// Largest |gain| any vertex can reach: the maximum incident edge-weight sum.
fn max_abs_gain(graph: &CsrGraph) -> i64 {
    let mut m = 1i64;
    for v in 0..graph.nvtx() as u32 {
        m = m.max(graph.edge_weights(v).map(i64::from).sum());
    }
    m
}

/// [`bisection_cut`](crate::initial::bisection_cut) and [`max_abs_gain`] in
/// one sweep over the adjacency.
fn cut_and_max_abs_gain(graph: &CsrGraph, side: &[u8]) -> (i64, i64) {
    let mut cut2 = 0i64;
    let mut m = 1i64;
    for v in 0..graph.nvtx() as u32 {
        let sv = side[v as usize];
        let mut sum = 0i64;
        for (u, w) in graph.neighbors(v).zip(graph.edge_weights(v)) {
            let w = i64::from(w);
            sum += w;
            if side[u as usize] != sv {
                cut2 += w;
            }
        }
        m = m.max(sum);
    }
    (cut2 / 2, m)
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
    let n = graph.nvtx();
    let (mut cut, max_gain) = cut_and_max_abs_gain(graph, side);
    if n == 0 {
        return cut;
    }
    // --- setup: the only region allowed to allocate (cold buffers) ---
    // Opening the span here (before the allocation snapshot) also forces
    // creation of this thread's event sink, so enabled-recorder emissions
    // inside the move loops below stay allocation-free.
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
        // gain[v] = cut reduction if v moves to the other side. Seed the
        // buckets with boundary vertices only (classic FM): interior
        // vertices enter when a neighbour's move pulls them to the frontier.
        buckets.clear();
        locked.fill(false);
        history.clear();
        for v in 0..n as u32 {
            let sv = side[v as usize];
            let mut g = 0i64;
            let mut on_boundary = n < 64; // tiny instances: consider everyone
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
            let limit = ub.max(cur_norm) + 1e-12;
            let chosen = buckets.pop_best(256, |v, _g| {
                weights.max_norm_after(graph.vertex_weights(v), side[v as usize] as usize) <= limit
            });
            let Some(v) = chosen else {
                // Nothing feasible right now; candidates only become
                // feasible after a move changes the balance, so stop.
                break;
            };

            // Apply the move.
            let from = side[v as usize] as usize;
            weights.apply(graph.vertex_weights(v), from);
            side[v as usize] = 1 - side[v as usize];
            locked[v as usize] = true;
            running -= gain[v as usize];
            history.push(v);
            // Update neighbour gains: O(1) per neighbour in the buckets.
            for (u, w) in graph.neighbors(v).zip(graph.edge_weights(v)) {
                if locked[u as usize] {
                    continue;
                }
                // u's relation to v flipped.
                if side[u as usize] == side[v as usize] {
                    gain[u as usize] -= 2 * i64::from(w);
                } else {
                    gain[u as usize] += 2 * i64::from(w);
                }
                // Re-rank u (pulling interior vertices onto the frontier).
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

        // Roll back to the best prefix.
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
/// side. Candidates live in an **overloaded-side gain-bucket index**
/// (`ws.rb_buckets`), built once per `(side, constraint)` violation episode
/// and maintained incrementally, so each applied move costs O(deg) — the
/// previous implementation rescanned all `n` vertices per move. Interior
/// vertices are still reachable (the index holds *every* carrier on the
/// overloaded side, not just the boundary) — the case multi-constraint
/// one-hot instances hit constantly.
///
/// Returns the number of moves applied.
pub fn rebalance_ws(
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
    // Already balanced (the common case after projection): nothing below
    // would move a vertex, so skip building the candidate machinery.
    let moves = if ws.side_weights.max_norm() <= ub + 1e-12 {
        0
    } else {
        rebalance_moves(graph, side, ub, ws)
    };
    if rec.enabled() {
        rec.counter("part.rebalance.moves", level, moves as u64);
    }
    moves
}

/// The move loop of [`rebalance_ws`]; `ws.side_weights` already measures
/// `side`.
fn rebalance_moves(
    graph: &CsrGraph,
    side: &mut [u8],
    ub: f64,
    ws: &mut PartitionWorkspace,
) -> usize {
    let n = graph.nvtx();
    let ncon = graph.ncon();
    ws.rb_buckets.ensure(n, max_abs_gain(graph));
    ws.gain.clear();
    ws.gain.resize(n, 0);
    let weights = &mut ws.side_weights;
    let buckets = &mut ws.rb_buckets;
    let gain = &mut ws.gain;

    #[cfg(debug_assertions)]
    let allocs_at_loop_entry = tempart_testkit::alloc::allocation_count();

    let mut moves = 0usize;
    // The (side, constraint) the candidate index is currently built for.
    let mut indexed_for: Option<(usize, usize)> = None;
    // Upper bound on useful moves: each strictly reduces the overloaded
    // (side, constraint) weight, so n is a hard cap; in practice a handful
    // suffice after projection.
    while moves < n {
        // Find the worst (side, constraint).
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
            // (Re)build the candidate index: every vertex on side `wsd`
            // carrying constraint `wc`, keyed by cut gain. Ascending-id
            // insertion keeps this deterministic (see GainBuckets docs).
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
        // Best-gain movable vertex whose departure does not make the *other*
        // side worse than `wn` (otherwise the move just shifts the
        // violation). Infeasible candidates stay indexed — they may become
        // feasible as `wn` drops.
        let chosen = buckets.pop_best(n, |v, _g| {
            weights.max_norm_after(graph.vertex_weights(v), wsd) < wn - 1e-12
        });
        let Some(v) = chosen else { break };
        weights.apply(graph.vertex_weights(v), wsd);
        side[v as usize] = 1 - side[v as usize];
        moves += 1;
        // O(deg) incremental maintenance: every still-indexed neighbour sat
        // on side `wsd` with v, so its edge to v flipped internal→external.
        for (u, w) in graph.neighbors(v).zip(graph.edge_weights(v)) {
            if buckets.contains(u) {
                gain[u as usize] += 2 * i64::from(w);
                buckets.update(u, gain[u as usize]);
            }
        }
    }

    #[cfg(debug_assertions)]
    debug_assert_eq!(
        tempart_testkit::alloc::allocation_count(),
        allocs_at_loop_entry,
        "rebalance move loop allocated on the heap"
    );
    moves
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
    use crate::initial::{bisection_cut, SideWeights};
    use tempart_graph::builder::grid_graph;
    use tempart_graph::GraphBuilder;

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
}
