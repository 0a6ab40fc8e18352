//! Pairwise k-way refinement over an edge-coloured part graph: the pinned
//! colour-class schedule.
//!
//! Direct k-way refinement here works on **part pairs**: build the part
//! adjacency graph of the current partition, greedily edge-colour it in a
//! fixed order ([`colour_pairs`]), and give every pair one bounded two-way
//! FM pass, in ascending colour and ascending pair index within a colour.
//! A pair's pass only moves vertices between its own two parts and only
//! touches their two weight rows, so a pair's work is proportional to its
//! boundary, and pairs of one colour (which share no part) cannot see each
//! other's moves.
//!
//! # The schedule defines the result
//!
//! Pair list, colouring and candidate lists are pure functions of the
//! partition at the start of a round, and the pair order within a round is
//! fixed — so the refined partition is a pure function of
//! `(graph, part, config)`, and the colouring is part of that function:
//! another pair order would be another partition. [`crate::repart`] realizes
//! its diffusion flows over the same schedule. The schedule runs on the
//! calling thread at every worker count (DESIGN.md §12 records the
//! measurement behind that).
//!
//! [`kway_rebalance_ws`] restores k-way balance over the same part-weight
//! tables ([`part_tables`]).

use crate::{PartitionConfig, PartitionWorkspace};
use tempart_graph::{CsrGraph, PartId};

/// Bounded number of sweeps one pair runs over its candidate list per
/// round. Two sweeps let first-sweep moves unlock second-sweep gains while
/// keeping each pair's work proportional to its boundary.
const PAIR_SWEEPS: usize = 2;

/// Rejects a caller-supplied part vector that is not one id below `k` per
/// vertex of `graph` — the entry check of every function that refines or
/// repartitions an existing partition.
///
/// # Panics
///
/// Panics on a length mismatch or an out-of-range id, naming the vertex.
pub(crate) fn check_part_vector(graph: &CsrGraph, part: &[PartId], k: usize) {
    assert_eq!(
        part.len(),
        graph.nvtx(),
        "part vector has {} entries for a graph of {} vertices",
        part.len(),
        graph.nvtx()
    );
    if let Some((v, &p)) = part.iter().enumerate().find(|&(_, &p)| p as usize >= k) {
        panic!("part[{v}] = {p} is not a part id below nparts = {k}");
    }
}

/// Fills the per-constraint totals (`ws.kw_tot`), part weights (`ws.kw_pw`,
/// `p * ncon + c`) and part populations (`ws.kw_psize`) of a checked part
/// vector — the tables the pair passes of this module and of
/// [`crate::repart`] keep up to date.
pub(crate) fn part_tables(
    graph: &CsrGraph,
    part: &[PartId],
    k: usize,
    ws: &mut PartitionWorkspace,
) {
    let ncon = graph.ncon();
    ws.kw_tot.clear();
    ws.kw_tot.resize(ncon, 0);
    ws.kw_pw.clear();
    ws.kw_pw.resize(k * ncon, 0);
    ws.kw_psize.clear();
    ws.kw_psize.resize(k, 0);
    for (v, &p) in part.iter().enumerate() {
        let p = p as usize;
        ws.kw_psize[p] += 1;
        let vw = graph.vertex_weights(v as u32);
        for (c, &w) in vw.iter().enumerate().take(ncon) {
            ws.kw_tot[c] += i64::from(w);
            ws.kw_pw[p * ncon + c] += i64::from(w);
        }
    }
}

/// Greedily edge-colours the part adjacency graph whose edges are `pairs`
/// (sorted ascending, `p < q` each), assigning every pair the smallest
/// colour not yet used at either endpoint, in pair order. Writes one colour
/// per pair into `colours` and returns the number of colours used; `used`
/// is scratch (the part degrees, then one colour bitset per part).
///
/// Pairs sharing a colour are guaranteed part-disjoint, and the greedy bound
/// caps the colour count at `2·Δ − 1` for part-graph degree `Δ`.
/// Deterministic: a pure function of the pair list.
pub fn colour_pairs(
    pairs: &[(u32, u32)],
    k: usize,
    used: &mut Vec<u64>,
    colours: &mut Vec<u32>,
) -> usize {
    colours.clear();
    colours.resize(pairs.len(), 0);
    if pairs.is_empty() {
        return 0;
    }
    used.clear();
    used.resize(k, 0);
    for &(p, q) in pairs {
        used[p as usize] += 1;
        used[q as usize] += 1;
    }
    let maxdeg = used.iter().copied().max().unwrap_or(0) as usize;
    // When colouring (p, q), at most deg(p)-1 + deg(q)-1 colours are taken,
    // so a free colour always exists below 2·maxdeg.
    let words = (2 * maxdeg).div_ceil(64).max(1);
    used.clear();
    used.resize(k * words, 0);
    let mut ncolours = 0usize;
    for (i, &(p, q)) in pairs.iter().enumerate() {
        let (po, qo) = (p as usize * words, q as usize * words);
        let mut colour = None;
        for w in 0..words {
            let free = !(used[po + w] | used[qo + w]);
            if free != 0 {
                colour = Some(w * 64 + free.trailing_zeros() as usize);
                break;
            }
        }
        let c = colour.expect("greedy bound guarantees a free colour below 2*maxdeg");
        used[po + c / 64] |= 1 << (c % 64);
        used[qo + c / 64] |= 1 << (c % 64);
        colours[i] = c as u32;
        ncolours = ncolours.max(c + 1);
    }
    ncolours
}

/// Lists the pair indices in schedule order — ascending colour, ascending
/// pair index within a colour — into `order` (a stable counting sort of
/// the pairs by colour; `cursor` is its scratch).
pub(crate) fn schedule_order(
    colours: &[u32],
    ncolours: usize,
    cursor: &mut Vec<usize>,
    order: &mut Vec<u32>,
) {
    cursor.clear();
    cursor.resize(ncolours + 1, 0);
    for &c in colours {
        cursor[c as usize + 1] += 1;
    }
    for c in 0..ncolours {
        cursor[c + 1] += cursor[c];
    }
    order.clear();
    order.resize(colours.len(), 0);
    for (i, &c) in colours.iter().enumerate() {
        order[cursor[c as usize]] = i as u32;
        cursor[c as usize] += 1;
    }
}

/// One boundary incidence `(b, v)`: vertex `v` has a neighbour in the
/// foreign part `b`. Its pair key is [`key_of`] — `part[v]` and `b`,
/// ordered — so an entry stays valid exactly as long as `v` and its
/// neighbours stay put.
pub(crate) type Entry = (PartId, u32);

/// The `(p, q)`, `p < q`, an entry is listed under.
#[inline]
fn key_of(part: &[PartId], (b, v): Entry) -> (u32, u32) {
    let a = part[v as usize];
    (a.min(b), a.max(b))
}

/// The boundary part pairs of a partition with their candidate vertices, in
/// CSR form: every unordered `(p, q)`, `p < q`, joined by at least one edge
/// — the edge list of the part adjacency graph, ascending, in the fixed
/// order the colouring consumes — and per pair the vertices that sit on its
/// boundary, each vertex listed once per *distinct* adjacent foreign part,
/// under the pair keyed by its own part.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Candidates {
    /// The boundary pairs, ascending.
    pub(crate) pairs: Vec<(u32, u32)>,
    /// `list[off[pi]..off[pi + 1]]` are pair `pi`'s candidates.
    off: Vec<usize>,
    /// Candidate entries, pair by pair, ascending vertex within a pair.
    list: Vec<Entry>,
}

impl Candidates {
    /// The entries on pair `pi`'s boundary, vertices ascending.
    #[inline]
    pub(crate) fn of(&self, pi: usize) -> &[Entry] {
        &self.list[self.off[pi]..self.off[pi + 1]]
    }

    /// Appends the next entry in (pair key, vertex) order; a new key opens
    /// the next pair.
    #[inline]
    fn push(&mut self, key: (u32, u32), e: Entry) {
        if self.pairs.last() != Some(&key) {
            self.pairs.push(key);
            self.off.push(self.list.len());
        }
        self.list.push(e);
    }

    /// Replaces `self` by the ordered merge of `old` minus its `dirty`
    /// vertices with `fresh` (sorted by (pair key, vertex), entries of dirty
    /// vertices only, so the two streams share no entry). A pair left
    /// without entries is not emitted; a key only `fresh` carries opens a
    /// new pair. A *clean* old pair — no dirty entry, no fresh entry under
    /// its key — is copied whole; only touched pairs merge entry by entry.
    fn merge(&mut self, part: &[PartId], old: &Candidates, dirty: &[bool], fresh: &[Entry]) {
        self.pairs.clear();
        self.off.clear();
        self.list.clear();
        let mut fresh = fresh.iter().map(|&e| (key_of(part, e), e)).peekable();
        for (pi, &key) in old.pairs.iter().enumerate() {
            while let Some((k, f)) = fresh.next_if(|&(k, _)| k < key) {
                self.push(k, f);
            }
            let entries = old.of(pi);
            let touched = fresh.peek().is_some_and(|&(k, _)| k == key)
                || entries.iter().any(|e| dirty[e.1 as usize]);
            if !touched {
                self.pairs.push(key);
                self.off.push(self.list.len());
                self.list.extend_from_slice(entries);
                continue;
            }
            for &e in entries {
                if dirty[e.1 as usize] {
                    continue;
                }
                while let Some((k, f)) = fresh.next_if(|&(k, f)| (k, f.1) < (key, e.1)) {
                    self.push(k, f);
                }
                self.push(key, e);
            }
        }
        for (k, f) in fresh {
            self.push(k, f);
        }
        self.off.push(self.list.len());
    }
}

/// Per-part scratch of [`sorted_entries`].
#[derive(Debug, Default)]
struct EntryScratch {
    /// Bucket cursors of the counting sort.
    count: Vec<usize>,
    /// "Already listed for the current vertex" flag per part ...
    seen: Vec<bool>,
    /// ... and the parts to reset after the vertex.
    touched: Vec<PartId>,
}

/// The entry generator both the whole-graph build and the patch run: writes
/// the boundary entries of `verts` (ascending) under `part` into `out`,
/// sorted by (pair key, vertex) — one entry per vertex and distinct adjacent
/// foreign part. Entries leave the sweep in ascending `v`, so a stable
/// counting sort by `q`, then by `p`, orders them: no comparison sort, no
/// search. `tmp` is the sort's second buffer.
fn sorted_entries(
    graph: &CsrGraph,
    part: &[PartId],
    k: usize,
    verts: impl Iterator<Item = u32>,
    scratch: &mut EntryScratch,
    out: &mut Vec<Entry>,
    tmp: &mut Vec<Entry>,
) {
    let EntryScratch {
        count,
        seen,
        touched,
    } = scratch;
    seen.clear();
    seen.resize(k, false);
    out.clear();
    for v in verts {
        let pv = part[v as usize];
        for u in graph.neighbors(v) {
            let pu = part[u as usize];
            if pu != pv && !seen[pu as usize] {
                seen[pu as usize] = true;
                touched.push(pu);
                out.push((pu, v));
            }
        }
        for t in touched.drain(..) {
            seen[t as usize] = false;
        }
    }
    // Both passes overwrite every slot, so stale content is as good as zeros.
    tmp.resize(out.len(), (0, 0));
    scatter_by(out, tmp, k, count, |&e| key_of(part, e).1);
    scatter_by(tmp, out, k, count, |&e| key_of(part, e).0);
}

/// One stable counting-sort pass: `src` into `dst` by `digit(entry) < k`.
fn scatter_by(
    src: &[Entry],
    dst: &mut [Entry],
    k: usize,
    count: &mut Vec<usize>,
    digit: impl Fn(&Entry) -> u32,
) {
    count.clear();
    count.resize(k + 1, 0);
    for e in src {
        count[digit(e) as usize + 1] += 1;
    }
    for d in 0..k {
        count[d + 1] += count[d];
    }
    for e in src {
        let at = &mut count[digit(e) as usize];
        dst[*at] = *e;
        *at += 1;
    }
}

/// The boundary lists of a partition that is being refined by vertex moves:
/// built once from the whole graph, then **patched** around the moved cells.
///
/// An entry of vertex `v` depends only on `part[v]` and the parts of `v`'s
/// neighbours, so after a batch of moves only the moved cells and their
/// neighbours (the dirty set) can own different entries. [`patch`]
/// regenerates exactly those from the current `part` and merges them, in
/// one ordered pass, with the old lists minus the dirty cells (a pair they
/// do not touch is copied whole) — the result
/// is what [`build`] would produce for the same `part`, which debug builds
/// assert after every patch.
///
/// Lives in the workspace (`PartitionWorkspace::boundary`): capacity
/// carries across calls, state does not ([`build`] starts every call).
///
/// [`build`]: Boundary::build
/// [`patch`]: Boundary::patch
#[derive(Debug, Default)]
pub(crate) struct Boundary {
    /// The lists of the partition last built or patched for.
    pub(crate) cands: Candidates,
    /// The merge target of a patch (then swapped with `cands`); its entry
    /// list doubles as the build's sort buffer.
    spare: Candidates,
    scratch: EntryScratch,
    /// The dirty cells' regenerated entries, and their sort buffer.
    fresh: Vec<Entry>,
    tmp: Vec<Entry>,
    /// The log of cells moved since the last build or patch (whoever moves
    /// a cell appends it; a cell may repeat).
    pub(crate) moved: Vec<u32>,
    /// Per-vertex dirty flag (moved cells and their neighbours) ...
    dirty: Vec<bool>,
    /// ... and the flagged vertices, ascending.
    dirty_list: Vec<u32>,
}

impl Boundary {
    /// Builds the lists of `part` from the whole graph and empties the
    /// moved log.
    pub(crate) fn build(&mut self, graph: &CsrGraph, part: &[PartId], k: usize) {
        self.moved.clear();
        sorted_entries(
            graph,
            part,
            k,
            0..graph.nvtx() as u32,
            &mut self.scratch,
            &mut self.spare.list,
            &mut self.cands.list,
        );
        self.cands
            .merge(part, &Candidates::default(), &[], &self.spare.list);
    }

    /// Brings the lists up to date with `part` after the logged moves, at
    /// the cost of the dirty cells' adjacency plus one pass over the lists.
    pub(crate) fn patch(&mut self, graph: &CsrGraph, part: &[PartId], k: usize) {
        self.dirty.resize(graph.nvtx(), false);
        for v in self.moved.drain(..) {
            for u in std::iter::once(v).chain(graph.neighbors(v)) {
                if !self.dirty[u as usize] {
                    self.dirty[u as usize] = true;
                    self.dirty_list.push(u);
                }
            }
        }
        self.dirty_list.sort_unstable();
        sorted_entries(
            graph,
            part,
            k,
            self.dirty_list.iter().copied(),
            &mut self.scratch,
            &mut self.fresh,
            &mut self.tmp,
        );
        self.spare
            .merge(part, &self.cands, &self.dirty, &self.fresh);
        std::mem::swap(&mut self.cands, &mut self.spare);
        for v in self.dirty_list.drain(..) {
            self.dirty[v as usize] = false;
        }
        // The proof obligation of the patch, armed in every debug build:
        // the patched lists are the whole-graph build of the same `part`.
        #[cfg(debug_assertions)]
        {
            sorted_entries(
                graph,
                part,
                k,
                0..graph.nvtx() as u32,
                &mut self.scratch,
                &mut self.fresh,
                &mut self.tmp,
            );
            self.spare
                .merge(part, &Candidates::default(), &[], &self.fresh);
            debug_assert!(
                self.cands == self.spare,
                "patched boundary lists differ from the whole-graph build"
            );
        }
    }
}

/// What one pair's pass owns for its duration: the pair and the two parts'
/// load rows and populations.
struct PairLoads<'a> {
    p: u32,
    q: u32,
    pw_p: &'a mut [i64],
    pw_q: &'a mut [i64],
    size_p: i64,
    size_q: i64,
}

/// One pair's bounded two-way FM pass: visits `cands` in list order (up to
/// [`PAIR_SWEEPS`] times, stopping early after a move-free sweep) and moves
/// a vertex to the pair's other side when the cut gain is strictly positive,
/// the target side keeps every constraint within its allowance and the
/// source side keeps at least one vertex. Returns the number of moves
/// applied.
///
/// Zero-allocation: the loop touches only the caller's slices (enforced by
/// the armed `debug_assert` below, exercised by
/// `crates/partition/tests/zero_alloc.rs`).
fn refine_pair(
    graph: &CsrGraph,
    part: &mut [PartId],
    cands: &[Entry],
    pair: &mut PairLoads,
    allowance: &[f64],
) -> u64 {
    let &mut PairLoads {
        p,
        q,
        ref mut size_p,
        ref mut size_q,
        ..
    } = pair;
    let (pw_p, pw_q) = (&mut *pair.pw_p, &mut *pair.pw_q);
    let ncon = graph.ncon();
    let mut moves = 0u64;
    #[cfg(debug_assertions)]
    let allocs_at_entry = tempart_testkit::alloc::allocation_count();
    for _sweep in 0..PAIR_SWEEPS {
        let mut sweep_moves = 0u64;
        for &(_, v) in cands {
            let own = part[v as usize];
            if own != p && own != q {
                // An earlier colour class already moved it off this pair.
                continue;
            }
            let (pw_own, pw_other, size_own, size_other, other) = if own == p {
                (&mut *pw_p, &mut *pw_q, &mut *size_p, &mut *size_q, q)
            } else {
                (&mut *pw_q, &mut *pw_p, &mut *size_q, &mut *size_p, p)
            };
            if *size_own <= 1 {
                continue;
            }
            let mut conn_own = 0i64;
            let mut conn_other = 0i64;
            for (u, w) in graph.neighbors(v).zip(graph.edge_weights(v)) {
                let pu = part[u as usize];
                if pu == own {
                    conn_own += i64::from(w);
                } else if pu == other {
                    conn_other += i64::from(w);
                }
            }
            let gain = conn_other - conn_own;
            if gain <= 0 {
                continue;
            }
            let vw = graph.vertex_weights(v);
            let fits = (0..ncon).all(|c| {
                vw[c] == 0 || (pw_other[c] + i64::from(vw[c])) as f64 <= allowance[c].max(1.0)
            });
            if !fits {
                continue;
            }
            for c in 0..ncon {
                pw_own[c] -= i64::from(vw[c]);
                pw_other[c] += i64::from(vw[c]);
            }
            *size_own -= 1;
            *size_other += 1;
            part[v as usize] = other;
            sweep_moves += 1;
        }
        moves += sweep_moves;
        if sweep_moves == 0 {
            break;
        }
    }
    #[cfg(debug_assertions)]
    debug_assert_eq!(
        tempart_testkit::alloc::allocation_count(),
        allocs_at_entry,
        "pairwise FM pass allocated on the heap"
    );
    moves
}

/// Pairwise k-way refinement of `part` in place, on the pinned schedule.
///
/// Per round (up to `config.refine_passes`, stopping after a move-free
/// round): build the boundary pair and candidate lists ([`Boundary`]),
/// edge-colour the pairs ([`colour_pairs`]), then run every pair's bounded
/// two-way pass in ascending colour / ascending pair order. Emits one
/// `part.kway` span and the `part.kway.{pairs,colours,moves}` counters into
/// `ws.obs`. Returns total moves applied.
///
/// # Panics
///
/// Panics if `part` is not one id below `config.nparts` per vertex of
/// `graph`.
pub fn pairwise_kway_refine_ws(
    graph: &CsrGraph,
    part: &mut [PartId],
    config: &PartitionConfig,
    ws: &mut PartitionWorkspace,
) -> usize {
    let n = graph.nvtx();
    let k = config.nparts;
    let ncon = graph.ncon();
    check_part_vector(graph, part, k);
    if n == 0 || k <= 1 {
        return 0;
    }
    let rec = ws.obs.clone();
    let _span = rec.span("part.kway", 0, k as u64);

    part_tables(graph, part, k, ws);
    ws.kw_allow.clear();
    {
        let totals = &ws.kw_tot;
        ws.kw_allow
            .extend((0..ncon).map(|c| totals[c] as f64 / k as f64 * config.ub(c)));
    }

    let mut boundary = std::mem::take(&mut ws.boundary);

    let mut total_moves = 0u64;
    let mut total_pairs = 0u64;
    let mut peak_colours = 0u64;
    for _round in 0..config.refine_passes.max(1) {
        boundary.build(graph, part, k);
        let cands = &boundary.cands;
        if cands.pairs.is_empty() {
            break;
        }
        let ncolours = colour_pairs(&cands.pairs, k, &mut ws.kw_used, &mut ws.kw_colours);
        schedule_order(
            &ws.kw_colours,
            ncolours,
            &mut ws.kw_cursor,
            &mut ws.kw_order,
        );
        total_pairs += cands.pairs.len() as u64;
        peak_colours = peak_colours.max(ncolours as u64);

        let mut round_moves = 0u64;
        for &pi in &ws.kw_order {
            let pi = pi as usize;
            let (p, q) = cands.pairs[pi];
            let (pp, qq) = (p as usize, q as usize);
            let (lo, hi) = ws.kw_pw.split_at_mut(qq * ncon);
            let mut pair = PairLoads {
                p,
                q,
                pw_p: &mut lo[pp * ncon..(pp + 1) * ncon],
                pw_q: &mut hi[..ncon],
                size_p: ws.kw_psize[pp] as i64,
                size_q: ws.kw_psize[qq] as i64,
            };
            round_moves += refine_pair(graph, part, cands.of(pi), &mut pair, &ws.kw_allow);
            ws.kw_psize[pp] = pair.size_p as usize;
            ws.kw_psize[qq] = pair.size_q as usize;
        }
        total_moves += round_moves;
        if round_moves == 0 {
            break;
        }
    }

    ws.boundary = boundary;
    if rec.enabled() {
        rec.counter("part.kway.pairs", 0, total_pairs);
        rec.counter("part.kway.colours", 0, peak_colours);
        rec.counter("part.kway.moves", 0, total_moves);
    }
    total_moves as usize
}

/// K-way balance restoration: while some `(part, constraint)` load exceeds
/// its allowance, move the best-gain vertex carrying that constraint out of
/// the overloaded part into its best-connected part with headroom. The
/// k-way analogue of `refine::rebalance` — without it, k-way partitions of
/// one-hot multi-constraint graphs can stay arbitrarily imbalanced (greedy
/// refinement only ever takes positive-gain moves).
///
/// Returns the number of moves applied.
///
/// # Panics
///
/// Panics if `part` is not one id below `config.nparts` per vertex of
/// `graph`.
pub fn kway_rebalance_ws(
    graph: &CsrGraph,
    part: &mut [PartId],
    config: &PartitionConfig,
    ws: &mut PartitionWorkspace,
) -> usize {
    let n = graph.nvtx();
    let k = config.nparts;
    let ncon = graph.ncon();
    check_part_vector(graph, part, k);
    if n == 0 || k <= 1 {
        return 0;
    }
    part_tables(graph, part, k, ws);
    let (totals, pw, allowance) = (&ws.kw_tot, &mut ws.kw_pw, &mut ws.kw_allow);
    allowance.clear();
    allowance.extend((0..ncon).map(|c| (totals[c] as f64 / k as f64 * config.ub(c)).max(1.0)));

    let mut moves = 0usize;
    while moves < n {
        // Worst (part, constraint) violation.
        let mut worst: Option<(f64, usize, usize)> = None; // (ratio, part, con)
        for p in 0..k {
            for c in 0..ncon {
                if totals[c] == 0 {
                    continue;
                }
                let ratio = pw[p * ncon + c] as f64 / allowance[c];
                if ratio > 1.0 && worst.is_none_or(|(r, _, _)| ratio > r) {
                    worst = Some((ratio, p, c));
                }
            }
        }
        let Some((_, wp, wc)) = worst else { break };
        // Best-gain movable vertex: in part `wp`, carrying `wc`, going to a
        // connected part with headroom for all its constraints; if the
        // overloaded part has no usable boundary (e.g. everything crammed
        // into one part), fall back to the least-loaded part that fits.
        let mut best: Option<(i64, u32, usize)> = None; // (gain, vertex, target)
        let mut fallback: Option<(i64, u32)> = None; // (-internal, vertex)
        for v in 0..n as u32 {
            if part[v as usize] as usize != wp {
                continue;
            }
            let vw = graph.vertex_weights(v);
            if vw[wc] == 0 {
                continue;
            }
            // Connection per candidate part.
            let mut internal = 0i64;
            let mut best_target: Option<(i64, usize)> = None;
            for (u, w) in graph.neighbors(v).zip(graph.edge_weights(v)) {
                let pu = part[u as usize] as usize;
                if pu == wp {
                    internal += i64::from(w);
                } else {
                    let fits = (0..ncon).all(|c| {
                        vw[c] == 0 || (pw[pu * ncon + c] + i64::from(vw[c])) as f64 <= allowance[c]
                    });
                    if fits && best_target.is_none_or(|(bw, _)| i64::from(w) > bw) {
                        best_target = Some((i64::from(w), pu));
                    }
                }
            }
            if let Some((conn, target)) = best_target {
                let gain = conn - internal;
                if best.is_none_or(|(bg, _, _)| gain > bg) {
                    best = Some((gain, v, target));
                }
            } else if fallback.is_none_or(|(bi, _)| -internal > bi) {
                fallback = Some((-internal, v));
            }
        }
        let chosen = best.map(|(_, v, t)| (v, t)).or_else(|| {
            let (_, v) = fallback?;
            let vw = graph.vertex_weights(v);
            // Least-loaded (on wc) part that fits every constraint.
            (0..k)
                .filter(|&p| p != wp)
                .filter(|&p| {
                    (0..ncon).all(|c| {
                        vw[c] == 0 || (pw[p * ncon + c] + i64::from(vw[c])) as f64 <= allowance[c]
                    })
                })
                .min_by_key(|&p| pw[p * ncon + wc])
                .map(|p| (v, p))
        });
        let Some((v, target)) = chosen else { break };
        let vw = graph.vertex_weights(v);
        for c in 0..ncon {
            pw[wp * ncon + c] -= i64::from(vw[c]);
            pw[target * ncon + c] += i64::from(vw[c]);
        }
        part[v as usize] = target as PartId;
        moves += 1;
    }
    moves
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempart_graph::builder::grid_graph;
    use tempart_graph::{edge_cut, max_imbalance};
    use tempart_testkit::rng::Rng;

    fn scattered(n: u64, k: u64) -> Vec<PartId> {
        (0..n)
            .map(|v| ((v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % k) as PartId)
            .collect()
    }

    fn refine(g: &CsrGraph, part: &mut [PartId], cfg: &PartitionConfig) -> usize {
        pairwise_kway_refine_ws(g, part, cfg, &mut PartitionWorkspace::new())
    }

    #[test]
    fn colouring_is_valid_and_deterministic() {
        // Part graph of a scattered 4-part partition on a grid: every pair
        // of parts is adjacent (K4 needs >= 3 colours).
        let g = grid_graph(16, 16);
        let part = scattered(256, 4);
        let mut boundary = Boundary::default();
        boundary.build(&g, &part, 4);
        let pairs = &boundary.cands.pairs;
        assert!(!pairs.is_empty());
        let (mut used, mut colours) = (Vec::new(), Vec::new());
        let nc = colour_pairs(pairs, 4, &mut used, &mut colours);
        assert!(nc >= 1);
        // Validity: no part appears twice within one colour class.
        for c in 0..nc as u32 {
            let mut seen = [false; 4];
            for (i, &(p, q)) in pairs.iter().enumerate() {
                if colours[i] != c {
                    continue;
                }
                assert!(!seen[p as usize], "part {p} twice in colour {c}");
                assert!(!seen[q as usize], "part {q} twice in colour {c}");
                seen[p as usize] = true;
                seen[q as usize] = true;
            }
        }
        // Determinism: a second run reproduces the assignment bit for bit.
        let mut colours2 = Vec::new();
        assert_eq!(colour_pairs(pairs, 4, &mut used, &mut colours2), nc);
        assert_eq!(colours, colours2);
        // The schedule lists every pair once, colours ascending, pair
        // indices ascending within a colour.
        let (mut cursor, mut order) = (Vec::new(), Vec::new());
        schedule_order(&colours, nc, &mut cursor, &mut order);
        let keys: Vec<(u32, u32)> = order.iter().map(|&pi| (colours[pi as usize], pi)).collect();
        assert_eq!(keys.len(), pairs.len());
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
    }

    /// Lists holding `entries` (unique `(b, v)`, `b != part[v]`) under
    /// `part`, in (pair key, vertex) order.
    fn lists(part: &[PartId], mut entries: Vec<Entry>) -> Candidates {
        entries.sort_by_key(|&e| (key_of(part, e), e.1));
        let mut out = Candidates::default();
        for e in entries {
            out.push(key_of(part, e), e);
        }
        out.off.push(out.list.len());
        out
    }

    /// The merge entry by entry, for every pair: the reference the
    /// clean-pair copy of [`Candidates::merge`] must reproduce.
    fn merge_by_entry(
        part: &[PartId],
        old: &Candidates,
        dirty: &[bool],
        fresh: &[Entry],
    ) -> Candidates {
        let mut out = Candidates::default();
        let mut fresh = fresh.iter().map(|&e| (key_of(part, e), e)).peekable();
        for (pi, &key) in old.pairs.iter().enumerate() {
            for &e in old.of(pi) {
                if dirty[e.1 as usize] {
                    continue;
                }
                while let Some((k, f)) = fresh.next_if(|&(k, f)| (k, f.1) < (key, e.1)) {
                    out.push(k, f);
                }
                out.push(key, e);
            }
        }
        for (k, f) in fresh {
            out.push(k, f);
        }
        out.off.push(out.list.len());
        out
    }

    fn merged(part: &[PartId], old: &Candidates, dirty: &[bool], fresh: &[Entry]) -> Candidates {
        let mut fresh = fresh.to_vec();
        fresh.sort_by_key(|&e| (key_of(part, e), e.1));
        let mut out = Candidates::default();
        out.merge(part, old, dirty, &fresh);
        assert_eq!(out, merge_by_entry(part, old, dirty, &fresh));
        out
    }

    #[test]
    fn clean_pair_copy_merges_like_the_entry_by_entry_merge() {
        // Ten vertices; `part` is the partition after the moves, `old` the
        // lists before them, `dirty` the vertices whose entries the merge
        // replaces by `fresh`.
        let part: Vec<PartId> = vec![0, 0, 1, 1, 2, 2, 3, 3, 0, 1];
        let flags = |vs: &[u32]| -> Vec<bool> { (0..10).map(|v| vs.contains(&v)).collect() };
        let old = lists(
            &part,
            vec![
                (1, 0),
                (1, 1),
                (0, 2),
                (0, 9),
                (2, 3),
                (1, 4),
                (1, 5),
                (2, 9),
            ],
        );
        assert_eq!(old.pairs, [(0, 1), (1, 2)]);
        assert_eq!(old.of(0), [(1, 0), (1, 1), (0, 2), (0, 9)]);

        // A pair whose entries are all dirty, and nothing fresh: it drops
        // (vertex 9 also leaves the pair before it).
        let out = merged(&part, &old, &flags(&[3, 4, 5, 9]), &[]);
        assert_eq!(out.pairs, [(0, 1)]);
        assert_eq!(out.list, [(1, 0), (1, 1), (0, 2)]);
        // ... and re-filled by fresh entries of the same cells, it stays.
        let out = merged(
            &part,
            &old,
            &flags(&[3, 4, 5, 9]),
            &[(0, 9), (2, 9), (1, 5)],
        );
        assert_eq!(out.pairs, [(0, 1), (1, 2)]);
        assert_eq!((out.of(0), out.of(1)), (old.of(0), &[(1, 5), (2, 9)][..]));

        // A fresh-only pair opened between two clean pairs: (0, 3) sorts
        // between (0, 1) and (1, 2), whose lists are copied whole.
        let out = merged(&part, &old, &flags(&[7]), &[(0, 7)]);
        assert_eq!(out.pairs, [(0, 1), (0, 3), (1, 2)]);
        assert_eq!((out.of(0), out.of(2)), (old.of(0), old.of(1)));
        assert_eq!(out.of(1), [(0, 7)]);

        // A fresh entry landing inside an otherwise clean pair: vertex 8
        // had no entry, and slots in between vertices 2 and 9.
        let out = merged(&part, &old, &flags(&[8]), &[(1, 8)]);
        assert_eq!(out.pairs, [(0, 1), (1, 2)]);
        assert_eq!(out.of(0), [(1, 0), (1, 1), (0, 2), (1, 8), (0, 9)]);
        assert_eq!(out.of(1), old.of(1));

        // Empty old lists (the whole-graph build's merge), with and without
        // fresh entries, in either empty form.
        let fresh = [(2, 3), (0, 2), (1, 0), (0, 7)];
        for empty in [Candidates::default(), lists(&part, Vec::new())] {
            assert_eq!(
                merged(&part, &empty, &[], &fresh),
                lists(&part, fresh.to_vec())
            );
            assert_eq!(merged(&part, &empty, &[], &[]), lists(&part, Vec::new()));
        }

        // Random lists, dirty sets and moves of the dirty vertices.
        fn entries(part: &[PartId], vs: impl Iterator<Item = u32>, rng: &mut Rng) -> Vec<Entry> {
            let mut out = Vec::new();
            for v in vs {
                for b in 0..6 {
                    if b != part[v as usize] && rng.gen_range(0..4) == 0 {
                        out.push((b, v));
                    }
                }
            }
            out
        }
        let mut rng = Rng::seed_from_u64(0x3E_26E);
        for _ in 0..200 {
            let n = rng.gen_range(1..40u32);
            let mut part: Vec<PartId> = (0..n).map(|_| rng.gen_range(0..6)).collect();
            let old = lists(&part, entries(&part, 0..n, &mut rng));
            let dirty: Vec<bool> = (0..n).map(|_| rng.gen_range(0..5) == 0).collect();
            for v in (0..n as usize).filter(|&v| dirty[v]) {
                part[v] = rng.gen_range(0..6);
            }
            let fresh = entries(&part, (0..n).filter(|&v| dirty[v as usize]), &mut rng);
            merged(&part, &old, &dirty, &fresh);
        }
    }

    #[test]
    fn pairwise_refinement_reduces_cut() {
        let g = grid_graph(16, 16);
        let mut part = scattered(256, 4);
        let before = edge_cut(&g, &part);
        let cfg = PartitionConfig::new(4).with_ub(1.15);
        let moves = refine(&g, &mut part, &cfg);
        let after = edge_cut(&g, &part);
        assert!(moves > 0);
        assert!(after < before, "cut {before} -> {after}");
        assert!(max_imbalance(&g, &part, 4) <= 1.4);
    }

    #[test]
    fn shared_workspace_matches_fresh() {
        let g = grid_graph(16, 16);
        let cfg = PartitionConfig::new(4).with_ub(1.15);
        let start = scattered(256, 4);
        let mut ws = PartitionWorkspace::new();
        let mut a = start.clone();
        pairwise_kway_refine_ws(&g, &mut a, &cfg, &mut ws);
        let mut b = start.clone();
        pairwise_kway_refine_ws(&g, &mut b, &cfg, &mut ws);
        let mut c = start.clone();
        refine(&g, &mut c, &cfg);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn kway_rebalance_fixes_violations() {
        // Cram everything into part 0 of 4: rebalance must spread it out.
        let g = grid_graph(8, 8);
        let mut part = vec![0 as PartId; 64];
        let cfg = PartitionConfig::new(4).with_ub(1.20);
        let moves = kway_rebalance_ws(&g, &mut part, &cfg, &mut PartitionWorkspace::new());
        assert!(moves > 0);
        let imb = max_imbalance(&g, &part, 4);
        assert!(imb <= 1.25, "imbalance {imb} after rebalance");
    }

    #[test]
    fn noop_on_single_part() {
        let g = grid_graph(4, 4);
        let mut part = vec![0 as PartId; 16];
        assert_eq!(refine(&g, &mut part, &PartitionConfig::new(1)), 0);
    }

    #[test]
    #[should_panic(expected = "part vector has 15 entries for a graph of 16 vertices")]
    fn short_part_vector_rejected() {
        let g = grid_graph(4, 4);
        refine(&g, &mut [0; 15], &PartitionConfig::new(2));
    }

    #[test]
    #[should_panic(expected = "part[5] = 2 is not a part id below nparts = 2")]
    fn out_of_range_part_id_rejected() {
        let g = grid_graph(4, 4);
        let mut part = vec![0 as PartId; 16];
        part[5] = 2;
        refine(&g, &mut part, &PartitionConfig::new(2));
    }
}
