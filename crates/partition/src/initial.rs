//! Initial bisection of the coarsest graph: greedy graph growing (GGGP).

use tempart_graph::CsrGraph;
use tempart_testkit::rng::Rng;

/// Per-side, per-constraint weight bookkeeping for a bisection.
///
/// The normalised loads are cached: `norms[s][c]` always equals
/// [`norm_of`]`(w[s][c], target(s, c))` — a pure function of `w` and the
/// targets — so balance checks read them instead of re-dividing. Mutate the
/// weights through [`Self::remeasure`] / [`Self::apply`] only.
#[derive(Debug, Clone, Default)]
pub struct SideWeights {
    /// `w[side][c]`.
    pub w: [Vec<i64>; 2],
    /// Target weight of side 0 per constraint (side 1 gets the rest).
    pub target0: Vec<f64>,
    /// Totals per constraint.
    pub total: Vec<i64>,
    /// Cached `norm(side, c)`.
    norms: [Vec<f64>; 2],
}

/// Normalised load of weight `w` against target `t` (1.0 = on target).
#[inline]
fn norm_of(w: i64, t: f64) -> f64 {
    if t <= 0.0 {
        // An empty constraint cannot be imbalanced.
        if w == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        w as f64 / t
    }
}

impl SideWeights {
    /// Initialises from a 0/1 assignment.
    pub fn measure(graph: &CsrGraph, side: &[u8], frac0: f64) -> Self {
        let mut s = Self::default();
        s.remeasure(graph, side, frac0);
        s
    }

    /// Re-initialises in place from a 0/1 assignment, reusing the existing
    /// buffers — allocation-free once `ncon` capacity exists (the workspace
    /// path; every hot caller goes through this).
    pub fn remeasure(&mut self, graph: &CsrGraph, side: &[u8], frac0: f64) {
        let ncon = graph.ncon();
        for s in &mut self.w {
            s.clear();
            s.resize(ncon, 0);
        }
        self.total.clear();
        self.total.resize(ncon, 0);
        for (v, &sv) in side.iter().enumerate() {
            let s = sv as usize;
            let vw = graph.vertex_weights(v as u32);
            for (c, &w) in vw.iter().enumerate().take(ncon) {
                self.w[s][c] += i64::from(w);
            }
        }
        self.target0.clear();
        for c in 0..ncon {
            let t = self.w[0][c] + self.w[1][c];
            self.total[c] = t;
            self.target0.push(t as f64 * frac0);
        }
        for s in 0..2 {
            self.norms[s].clear();
            for c in 0..ncon {
                let norm = norm_of(self.w[s][c], self.target(s, c));
                self.norms[s].push(norm);
            }
        }
    }

    /// Target weight of `side` for constraint `c`.
    #[inline]
    pub fn target(&self, s: usize, c: usize) -> f64 {
        if s == 0 {
            self.target0[c]
        } else {
            self.total[c] as f64 - self.target0[c]
        }
    }

    /// Normalised load of `side` for constraint `c` (1.0 = on target).
    #[inline]
    pub fn norm(&self, s: usize, c: usize) -> f64 {
        self.norms[s][c]
    }

    /// Worst normalised load over both sides and all constraints.
    pub fn max_norm(&self) -> f64 {
        let mut m = 0.0f64;
        for norms in &self.norms {
            for &norm in norms {
                m = m.max(norm);
            }
        }
        m
    }

    /// Applies the move of a vertex with weights `vw` from `from` to the
    /// other side. Only constraints the vertex carries are touched.
    pub fn apply(&mut self, vw: &[u32], from: usize) {
        let to = 1 - from;
        for (c, &x) in vw.iter().enumerate() {
            if x == 0 {
                continue;
            }
            self.w[from][c] -= i64::from(x);
            self.w[to][c] += i64::from(x);
            self.norms[from][c] = norm_of(self.w[from][c], self.target(from, c));
            self.norms[to][c] = norm_of(self.w[to][c], self.target(to, c));
        }
    }

    /// Worst normalised load if a vertex with weights `vw` moved from `from`:
    /// cached norms for the constraints it does not carry, the same
    /// [`norm_of`] expression [`Self::apply`] would store for the ones it
    /// does — bit-equal to apply → [`Self::max_norm`] → un-apply.
    pub fn max_norm_after(&self, vw: &[u32], from: usize) -> f64 {
        debug_assert_eq!(vw.len(), self.total.len());
        let to = 1 - from;
        let mut m = 0.0f64;
        for (c, &x) in vw.iter().enumerate() {
            let (nf, nt) = if x == 0 {
                (self.norms[from][c], self.norms[to][c])
            } else {
                let x = i64::from(x);
                (
                    norm_of(self.w[from][c] - x, self.target(from, c)),
                    norm_of(self.w[to][c] + x, self.target(to, c)),
                )
            };
            m = m.max(nf).max(nt);
        }
        m
    }
}

/// Result of one bisection attempt.
#[derive(Debug, Clone)]
pub struct Bisection {
    /// 0/1 side per vertex.
    pub side: Vec<u8>,
    /// Edge cut of the bisection.
    pub cut: i64,
    /// Worst normalised side load (1.0 = perfectly on target).
    pub max_norm: f64,
}

/// Computes the cut of a 0/1 assignment.
pub fn bisection_cut(graph: &CsrGraph, side: &[u8]) -> i64 {
    let mut cut = 0i64;
    for v in 0..graph.nvtx() as u32 {
        for (u, w) in graph.neighbors(v).zip(graph.edge_weights(v)) {
            if side[v as usize] != side[u as usize] {
                cut += i64::from(w);
            }
        }
    }
    cut / 2
}

/// Sentinel for "not in the frontier heap".
const ABSENT: u32 = u32::MAX;

/// GGGP frontier: an indexed binary max-heap over vertices ordered by
/// `(gain, vertex id)`, one slot per vertex. The order is total, so the pop
/// sequence does not depend on the heap's internal layout. Keys live in the
/// caller's `gain` array; a vertex whose gain rose is re-ranked with
/// [`Self::push_or_raise`].
#[derive(Debug, Default)]
pub(crate) struct GrowHeap {
    /// Heap-ordered vertex ids.
    heap: Vec<u32>,
    /// Position of each vertex in `heap` ([`ABSENT`] = not queued).
    pos: Vec<u32>,
}

impl GrowHeap {
    /// Empties the heap and sizes it for `n` vertices.
    fn reset(&mut self, n: usize) {
        self.heap.clear();
        self.heap.reserve(n);
        self.pos.clear();
        self.pos.resize(n, ABSENT);
    }

    #[inline]
    fn contains(&self, v: u32) -> bool {
        self.pos[v as usize] != ABSENT
    }

    /// Queues `v`, or restores the heap order after `gain[v]` increased.
    fn push_or_raise(&mut self, v: u32, gain: &[i64]) {
        let mut i = match self.pos[v as usize] {
            ABSENT => {
                self.heap.push(v);
                self.heap.len() - 1
            }
            p => p as usize,
        };
        let key = (gain[v as usize], v);
        while i > 0 {
            let parent = (i - 1) / 2;
            let pv = self.heap[parent];
            if (gain[pv as usize], pv) >= key {
                break;
            }
            self.heap[i] = pv;
            self.pos[pv as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }

    /// Removes and returns the vertex with the largest `(gain, id)`.
    fn pop(&mut self, gain: &[i64]) -> Option<u32> {
        let top = *self.heap.first()?;
        self.pos[top as usize] = ABSENT;
        let last = self.heap.pop().expect("non-empty: first() succeeded");
        let len = self.heap.len();
        if len > 0 {
            // Sift `last` down from the root.
            let key = (gain[last as usize], last);
            let mut i = 0usize;
            loop {
                let mut child = 2 * i + 1;
                if child >= len {
                    break;
                }
                let mut cv = self.heap[child];
                if child + 1 < len {
                    let rv = self.heap[child + 1];
                    if (gain[rv as usize], rv) > (gain[cv as usize], cv) {
                        child += 1;
                        cv = rv;
                    }
                }
                if key >= (gain[cv as usize], cv) {
                    break;
                }
                self.heap[i] = cv;
                self.pos[cv as usize] = i as u32;
                i = child;
            }
            self.heap[i] = last;
            self.pos[last as usize] = i as u32;
        }
        Some(top)
    }
}

/// Grows side 0 greedily from a random seed until every constraint reaches
/// its target: writes the attempt into `side` (resized to `nvtx`) and returns
/// `(cut, max_norm)`. Allocation-free once the workspace and `side` have warm
/// capacity.
///
/// When the frontier contains no *admissible* vertex (every candidate would
/// overshoot a constraint target), growth restarts from a fresh admissible
/// seed — this is what makes multi-constraint one-hot instances solvable and
/// is also why MC_TL domains may come out disconnected, as the paper notes.
///
/// Kept out of line: it has one non-test caller, and whether the compiler
/// folds it into `initial_bisection_into` should not decide the machine code
/// of the initial-partition phase (or hide growth from a profile).
#[inline(never)]
pub(crate) fn grow_bisection_ws(
    graph: &CsrGraph,
    frac0: f64,
    rng: &mut Rng,
    ws: &mut crate::PartitionWorkspace,
    side: &mut Vec<u8>,
) -> (i64, f64) {
    let n = graph.nvtx();
    let ncon = graph.ncon();
    // side[v] == 0 doubles as the "already grown into side 0" flag.
    side.clear();
    side.resize(n, 1);
    let weights = &mut ws.side_weights;
    weights.remeasure(graph, side, frac0);

    // gain[v] = (edge weight to side 0) - (edge weight to side 1); grow picks
    // the admissible frontier vertex with the largest gain.
    let heap = &mut ws.grow_heap;
    heap.reset(n);
    let gain = &mut ws.gain;
    gain.clear();
    gain.extend((0..n as u32).map(|v| -graph.edge_weights(v).map(i64::from).sum::<i64>()));

    let admissible = |weights: &SideWeights, vw: &[u32]| -> bool {
        (0..ncon).all(|c| vw[c] == 0 || (weights.w[0][c] as f64) < weights.target(0, c))
    };
    let done = |weights: &SideWeights| -> bool {
        (0..ncon).all(|c| weights.w[0][c] as f64 >= weights.target(0, c) || weights.total[c] == 0)
    };

    let mut moved = 0usize;
    while !done(weights) && moved < n {
        // Pop until an admissible frontier vertex is found. An inadmissible
        // one is dropped for good: `w[0][c]` only rises within one growth, so
        // it can never become admissible again; re-seeding handles leftovers.
        let mut pick: Option<u32> = None;
        while let Some(v) = heap.pop(gain) {
            if admissible(weights, graph.vertex_weights(v)) {
                pick = Some(v);
                break;
            }
        }
        // Frontier exhausted: seed a new region at a random admissible vertex.
        let v = match pick {
            Some(v) => v,
            None => {
                let start = rng.gen_range(0..n);
                let found = (0..n).map(|i| ((start + i) % n) as u32).find(|&v| {
                    side[v as usize] == 1 && admissible(weights, graph.vertex_weights(v))
                });
                match found {
                    Some(v) => v,
                    None => break, // nothing admissible anywhere: stop
                }
            }
        };
        side[v as usize] = 0;
        weights.apply(graph.vertex_weights(v), 1);
        moved += 1;
        for (u, w) in graph.neighbors(v).zip(graph.edge_weights(v)) {
            if side[u as usize] == 0 {
                continue;
            }
            gain[u as usize] += 2 * i64::from(w);
            // A queued vertex is always re-ranked, admissible or not — its
            // key changed, and leaving it in place would break the heap
            // order. A vertex inadmissible at push time is not queued at all
            // (it could only ever be popped and dropped).
            if heap.contains(u) || admissible(weights, graph.vertex_weights(u)) {
                heap.push_or_raise(u, gain);
            }
        }
    }

    (bisection_cut(graph, side), weights.max_norm())
}

/// Runs `tries` growth attempts and keeps the best: balanced attempts beat
/// unbalanced ones; among equals, smaller cut wins.
pub fn initial_bisection(
    graph: &CsrGraph,
    frac0: f64,
    tries: usize,
    ub: f64,
    rng: &mut Rng,
) -> Bisection {
    let mut ws = crate::PartitionWorkspace::new();
    let mut best = Vec::new();
    let (cut, max_norm) = initial_bisection_into(graph, frac0, tries, ub, rng, &mut ws, &mut best);
    Bisection {
        side: best,
        cut,
        max_norm,
    }
}

/// Workspace-backed [`initial_bisection`]: writes the winning attempt into
/// `best` and returns its `(cut, max_norm)`. Identical selection logic, no
/// per-try allocation once warm.
pub(crate) fn initial_bisection_into(
    graph: &CsrGraph,
    frac0: f64,
    tries: usize,
    ub: f64,
    rng: &mut Rng,
    ws: &mut crate::PartitionWorkspace,
    best: &mut Vec<u8>,
) -> (i64, f64) {
    let mut cur = std::mem::take(&mut ws.grow_side);
    let mut best_cut = 0i64;
    let mut best_norm = f64::INFINITY;
    let mut have_best = false;
    for _ in 0..tries.max(1) {
        let (cut, norm) = grow_bisection_ws(graph, frac0, rng, ws, &mut cur);
        let better = if !have_best {
            true
        } else {
            let b_ok = norm <= ub;
            let c_ok = best_norm <= ub;
            match (b_ok, c_ok) {
                (true, false) => true,
                (false, true) => false,
                (true, true) => cut < best_cut,
                (false, false) => norm < best_norm || (norm == best_norm && cut < best_cut),
            }
        };
        if better {
            std::mem::swap(best, &mut cur);
            best_cut = cut;
            best_norm = norm;
            have_best = true;
        }
    }
    ws.grow_side = cur;
    (best_cut, best_norm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempart_graph::builder::grid_graph;

    #[test]
    fn grow_splits_grid_evenly() {
        let g = grid_graph(10, 10);
        let mut rng = Rng::seed_from_u64(1);
        let b = initial_bisection(&g, 0.5, 8, 1.05, &mut rng);
        assert!(b.max_norm <= 1.1, "norm {}", b.max_norm);
        let n0 = b.side.iter().filter(|&&s| s == 0).count();
        assert!((40..=60).contains(&n0), "side0 {n0}");
        assert!(b.cut > 0);
    }

    #[test]
    fn asymmetric_fraction() {
        let g = grid_graph(12, 12);
        let mut rng = Rng::seed_from_u64(2);
        let b = initial_bisection(&g, 1.0 / 3.0, 8, 1.1, &mut rng);
        let n0 = b.side.iter().filter(|&&s| s == 0).count();
        // Expect roughly 48 of 144 vertices on side 0.
        assert!((38..=58).contains(&n0), "side0 {n0}");
    }

    #[test]
    fn one_hot_classes_fill_both() {
        // Segregated 2-class grid: growing must reach both halves.
        let g = grid_graph(8, 8);
        let mut vwgt = vec![0u32; 64 * 2];
        for v in 0..64 {
            vwgt[v * 2 + usize::from(v % 8 >= 4)] = 1;
        }
        let g2 = g.with_vertex_weights(vwgt, 2);
        let mut rng = Rng::seed_from_u64(3);
        let b = initial_bisection(&g2, 0.5, 8, 1.2, &mut rng);
        assert!(b.max_norm <= 1.35, "norm {}", b.max_norm);
    }

    #[test]
    fn cut_helper_matches_metric() {
        let g = grid_graph(6, 6);
        let side: Vec<u8> = (0..36).map(|v| u8::from(v % 6 >= 3)).collect();
        let part: Vec<u32> = side.iter().map(|&s| u32::from(s)).collect();
        assert_eq!(bisection_cut(&g, &side), tempart_graph::edge_cut(&g, &part));
    }

    /// Random graph with `ncon` constraints: one-hot vertex weights when
    /// `one_hot`, else mixed vectors (zeros allowed); edge weights in 0..4,
    /// so zero-weight edges occur. Constraint `ncon - 1` is left empty
    /// (zero total) on every third instance.
    fn random_graph(rng: &mut Rng, n: usize, ncon: usize, one_hot: bool) -> CsrGraph {
        let mut b = tempart_graph::GraphBuilder::new(n, ncon);
        let live = if ncon > 1 && rng.gen_range(0..3usize) == 0 {
            ncon - 1
        } else {
            ncon
        };
        for v in 0..n as u32 {
            let mut w = vec![0u32; ncon];
            if one_hot {
                w[rng.gen_range(0..live)] = rng.gen_range(1..4u32);
            } else {
                for x in w.iter_mut().take(live) {
                    *x = rng.gen_range(0..4u32);
                }
            }
            b.set_vertex_weights(v, &w);
        }
        for v in 1..n as u32 {
            // A spanning path plus random chords.
            b.add_edge(v - 1, v, rng.gen_range(0..4u32));
            for _ in 0..2 {
                let u = rng.gen_range(0..n) as u32;
                if u != v && u + 1 != v {
                    b.add_edge(u, v, rng.gen_range(0..4u32));
                }
            }
        }
        b.build()
    }

    /// From-scratch oracle for the cached norms: the pre-cache `norm`.
    fn norm_from_scratch(sw: &SideWeights, w: &[Vec<i64>; 2], s: usize, c: usize) -> f64 {
        let t = sw.target(s, c);
        if t <= 0.0 {
            if w[s][c] == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            w[s][c] as f64 / t
        }
    }

    /// Pre-cache `max_norm`: side-major, then constraint.
    fn max_norm_from_scratch(sw: &SideWeights, w: &[Vec<i64>; 2]) -> f64 {
        let mut m = 0.0f64;
        for s in 0..2 {
            for c in 0..sw.total.len() {
                m = m.max(norm_from_scratch(sw, w, s, c));
            }
        }
        m
    }

    #[test]
    fn cached_norms_equal_from_scratch_recomputation() {
        let mut rng = Rng::seed_from_u64(0xC0FFEE);
        for round in 0..200 {
            let ncon = 1 + round % 6;
            let n = rng.gen_range(4..40usize);
            let g = random_graph(&mut rng, n, ncon, round % 2 == 0);
            let frac0 = [0.0, 1.0 / 3.0, 0.5, 1.0][rng.gen_range(0..4usize)];
            let mut side: Vec<u8> = (0..n).map(|_| u8::from(rng.gen_bool())).collect();
            let mut sw = SideWeights::measure(&g, &side, frac0);
            for _ in 0..3 * n {
                let v = rng.gen_range(0..n);
                let vw = g.vertex_weights(v as u32);
                let from = side[v] as usize;
                // Oracle for max_norm_after: apply on a copy of the raw
                // weights (every component, zero or not), rescan, discard.
                let mut w = sw.w.clone();
                for (c, &x) in vw.iter().enumerate() {
                    w[from][c] -= i64::from(x);
                    w[1 - from][c] += i64::from(x);
                }
                assert_eq!(
                    sw.max_norm_after(vw, from).to_bits(),
                    max_norm_from_scratch(&sw, &w).to_bits(),
                    "max_norm_after, ncon {ncon} frac0 {frac0}"
                );
                if rng.gen_bool() {
                    sw.apply(vw, from);
                    side[v] = 1 - side[v];
                    assert_eq!(sw.w, w);
                }
                for s in 0..2 {
                    for c in 0..ncon {
                        assert_eq!(
                            sw.norm(s, c).to_bits(),
                            norm_from_scratch(&sw, &sw.w, s, c).to_bits(),
                            "norm({s}, {c})"
                        );
                    }
                }
                assert_eq!(
                    sw.max_norm().to_bits(),
                    max_norm_from_scratch(&sw, &sw.w).to_bits()
                );
            }
            // The incrementally maintained state equals a fresh measurement.
            let fresh = SideWeights::measure(&g, &side, frac0);
            assert_eq!(sw.w, fresh.w);
            assert_eq!(sw.max_norm().to_bits(), fresh.max_norm().to_bits());
        }
    }

    /// The pre-rewrite GGGP — a lazy-deletion `BinaryHeap<(gain, vertex)>`
    /// that pushes on every gain change and filters stale entries on pop —
    /// kept as the oracle for the indexed heap. Also returns how often a
    /// vertex with a live heap entry was re-pushed while inadmissible.
    fn grow_reference(graph: &CsrGraph, frac0: f64, rng: &mut Rng) -> (Vec<u8>, i64, f64, usize) {
        let n = graph.nvtx();
        let ncon = graph.ncon();
        let mut side = vec![1u8; n];
        let mut weights = SideWeights::measure(graph, &side, frac0);
        let mut in0 = vec![false; n];
        // True while v's current-gain entry has been pushed and not popped.
        let mut live = vec![false; n];
        let mut heap = std::collections::BinaryHeap::<(i64, u32)>::new();
        let mut gain: Vec<i64> = (0..n as u32)
            .map(|v| -graph.edge_weights(v).map(i64::from).sum::<i64>())
            .collect();
        let admissible = |weights: &SideWeights, vw: &[u32]| -> bool {
            (0..ncon).all(|c| vw[c] == 0 || (weights.w[0][c] as f64) < weights.target(0, c))
        };
        let done = |weights: &SideWeights| -> bool {
            (0..ncon)
                .all(|c| weights.w[0][c] as f64 >= weights.target(0, c) || weights.total[c] == 0)
        };
        let mut rekeyed_inadmissible = 0usize;
        let mut moved = 0usize;
        while !done(&weights) && moved < n {
            let mut pick: Option<u32> = None;
            while let Some((g, v)) = heap.pop() {
                if in0[v as usize] || g != gain[v as usize] {
                    continue; // stale entry
                }
                live[v as usize] = false;
                if admissible(&weights, graph.vertex_weights(v)) {
                    pick = Some(v);
                    break;
                }
            }
            let v = match pick {
                Some(v) => v,
                None => {
                    let start = rng.gen_range(0..n);
                    let found = (0..n).map(|i| ((start + i) % n) as u32).find(|&v| {
                        !in0[v as usize] && admissible(&weights, graph.vertex_weights(v))
                    });
                    match found {
                        Some(v) => v,
                        None => break,
                    }
                }
            };
            in0[v as usize] = true;
            side[v as usize] = 0;
            weights.apply(graph.vertex_weights(v), 1);
            moved += 1;
            for (u, w) in graph.neighbors(v).zip(graph.edge_weights(v)) {
                if !in0[u as usize] {
                    if live[u as usize] && w > 0 && !admissible(&weights, graph.vertex_weights(u)) {
                        rekeyed_inadmissible += 1;
                    }
                    gain[u as usize] += 2 * i64::from(w);
                    heap.push((gain[u as usize], u));
                    live[u as usize] = true;
                }
            }
        }
        let cut = bisection_cut(graph, &side);
        (side, cut, weights.max_norm(), rekeyed_inadmissible)
    }

    #[test]
    fn indexed_heap_growth_matches_lazy_heap_reference() {
        let mut gen = Rng::seed_from_u64(0x6667_7067);
        let mut ws = crate::PartitionWorkspace::new();
        let mut side = Vec::new();
        let mut rekeyed_inadmissible = 0usize;
        for round in 0..300 {
            let ncon = 1 + round % 4;
            let n = gen.gen_range(2..150usize);
            let g = random_graph(&mut gen, n, ncon, round % 3 != 0);
            let frac0 = [1.0 / 3.0, 0.5, 0.7][gen.gen_range(0..3usize)];
            let seed = gen.next_u64();
            let mut rng_new = Rng::seed_from_u64(seed);
            let mut rng_ref = Rng::seed_from_u64(seed);
            // Several growths per instance through one warm workspace.
            for _ in 0..3 {
                let (cut, norm) = grow_bisection_ws(&g, frac0, &mut rng_new, &mut ws, &mut side);
                let (ref_side, ref_cut, ref_norm, rekeyed) =
                    grow_reference(&g, frac0, &mut rng_ref);
                assert_eq!(side, ref_side, "round {round}: n {n} ncon {ncon}");
                assert_eq!(cut, ref_cut);
                assert_eq!(norm.to_bits(), ref_norm.to_bits());
                rekeyed_inadmissible += rekeyed;
            }
            assert_eq!(rng_new.next_u64(), rng_ref.next_u64(), "same rng draws");
        }
        // The pitfall case — a queued vertex whose gain rises while it is
        // inadmissible — must actually be exercised by the suite.
        assert!(rekeyed_inadmissible > 100, "only {rekeyed_inadmissible}");
    }

    #[test]
    fn side_weights_norms() {
        let g = grid_graph(4, 1);
        let side = vec![0u8, 0, 1, 1];
        let w = SideWeights::measure(&g, &side, 0.5);
        assert!((w.max_norm() - 1.0).abs() < 1e-12);
        let skew = SideWeights::measure(&g, &[0, 0, 0, 1], 0.5);
        assert!((skew.max_norm() - 1.5).abs() < 1e-12);
    }
}
