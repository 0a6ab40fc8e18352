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

use crate::kway::total_weights_into;
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
    total_weights_into(graph, &mut ws.kw_tot);
    ws.kw_pw.clear();
    ws.kw_pw.resize(k * ncon, 0);
    ws.kw_psize.clear();
    ws.kw_psize.resize(k, 0);
    for (v, &p) in part.iter().enumerate() {
        let p = p as usize;
        ws.kw_psize[p] += 1;
        let vw = graph.vertex_weights(v as u32);
        for (c, &w) in vw.iter().enumerate().take(ncon) {
            ws.kw_pw[p * ncon + c] += i64::from(w);
        }
    }
}

/// Collects the boundary part pairs of the current partition: every
/// unordered `(p, q)` with `p < q` joined by at least one edge, sorted
/// ascending and deduplicated — the edge list of the part adjacency graph
/// in the fixed order the colouring consumes.
pub(crate) fn collect_pairs(graph: &CsrGraph, part: &[PartId], pairs: &mut Vec<(u32, u32)>) {
    pairs.clear();
    for v in 0..graph.nvtx() as u32 {
        let pv = part[v as usize];
        for u in graph.neighbors(v) {
            let pu = part[u as usize];
            // The reverse edge contributes the (pv > pu) orientation.
            if pu > pv {
                pairs.push((pv, pu));
            }
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
}

/// Greedily edge-colours the part adjacency graph whose edges are `pairs`
/// (sorted ascending, `p < q` each), assigning every pair the smallest
/// colour not yet used at either endpoint, in pair order. Writes one colour
/// per pair into `colours` and returns the number of colours used.
///
/// Pairs sharing a colour are guaranteed part-disjoint, and the greedy bound
/// caps the colour count at `2·Δ − 1` for part-graph degree `Δ`.
/// Deterministic: a pure function of the pair list.
pub fn colour_pairs(pairs: &[(u32, u32)], k: usize, colours: &mut Vec<u32>) -> usize {
    colours.clear();
    colours.resize(pairs.len(), 0);
    if pairs.is_empty() {
        return 0;
    }
    let mut deg = vec![0u32; k];
    for &(p, q) in pairs {
        deg[p as usize] += 1;
        deg[q as usize] += 1;
    }
    let maxdeg = deg.iter().copied().max().unwrap_or(0) as usize;
    // When colouring (p, q), at most deg(p)-1 + deg(q)-1 colours are taken,
    // so a free colour always exists below 2·maxdeg.
    let words = (2 * maxdeg).div_ceil(64).max(1);
    let mut used = vec![0u64; k * words];
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

/// The per-pair boundary candidates of one round, in CSR form over the
/// round's pair list.
pub(crate) struct Candidates {
    /// Fill cursors of the build (scratch).
    pub(crate) cnt: Vec<usize>,
    /// `list[off[pi]..off[pi + 1]]` are pair `pi`'s candidates.
    pub(crate) off: Vec<usize>,
    /// Candidate vertices, pair by pair, ascending within a pair.
    pub(crate) list: Vec<u32>,
}

impl Candidates {
    /// The vertices on pair `pi`'s boundary, ascending.
    #[inline]
    pub(crate) fn of(&self, pi: usize) -> &[u32] {
        &self.list[self.off[pi]..self.off[pi + 1]]
    }
}

/// Builds the per-pair candidate lists: for every pair index `pi`,
/// `out.of(pi)` lists (ascending) the vertices that sit on that pair's
/// boundary — each vertex listed once per *distinct* adjacent foreign part,
/// under the pair keyed by its own part. `conn` / `touched` are per-part
/// scratch.
pub(crate) fn build_candidates(
    graph: &CsrGraph,
    part: &[PartId],
    pairs: &[(u32, u32)],
    k: usize,
    conn: &mut Vec<i64>,
    touched: &mut Vec<usize>,
    out: &mut Candidates,
) {
    let Candidates {
        cnt,
        off: cand_off,
        list: cand,
    } = out;
    conn.clear();
    conn.resize(k, 0);
    touched.clear();
    cnt.clear();
    cnt.resize(pairs.len(), 0);
    let n = graph.nvtx() as u32;
    for v in 0..n {
        let pv = part[v as usize];
        for u in graph.neighbors(v) {
            let pu = part[u as usize];
            if pu != pv && conn[pu as usize] == 0 {
                conn[pu as usize] = 1;
                touched.push(pu as usize);
                let key = if pv < pu { (pv, pu) } else { (pu, pv) };
                let pi = pairs.binary_search(&key).expect("boundary pair collected");
                cnt[pi] += 1;
            }
        }
        for &t in touched.iter() {
            conn[t] = 0;
        }
        touched.clear();
    }
    cand_off.clear();
    cand_off.push(0);
    let mut total = 0usize;
    for (pi, c) in cnt.iter_mut().enumerate() {
        total += *c;
        cand_off.push(total);
        // Reuse as the fill cursor.
        *c = cand_off[pi];
    }
    cand.clear();
    cand.resize(total, 0);
    for v in 0..n {
        let pv = part[v as usize];
        for u in graph.neighbors(v) {
            let pu = part[u as usize];
            if pu != pv && conn[pu as usize] == 0 {
                conn[pu as usize] = 1;
                touched.push(pu as usize);
                let key = if pv < pu { (pv, pu) } else { (pu, pv) };
                let pi = pairs.binary_search(&key).expect("boundary pair collected");
                cand[cnt[pi]] = v;
                cnt[pi] += 1;
            }
        }
        for &t in touched.iter() {
            conn[t] = 0;
        }
        touched.clear();
    }
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
#[allow(clippy::too_many_arguments)]
fn refine_pair(
    graph: &CsrGraph,
    part: &mut [PartId],
    cands: &[u32],
    p: u32,
    q: u32,
    pw_p: &mut [i64],
    pw_q: &mut [i64],
    size_p: &mut i64,
    size_q: &mut i64,
    allowance: &[f64],
) -> u64 {
    let ncon = graph.ncon();
    let mut moves = 0u64;
    #[cfg(debug_assertions)]
    let allocs_at_entry = tempart_testkit::alloc::allocation_count();
    for _sweep in 0..PAIR_SWEEPS {
        let mut sweep_moves = 0u64;
        for &v in cands {
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
/// round): collect the boundary part pairs, edge-colour them
/// ([`colour_pairs`]), then run every pair's bounded two-way pass in
/// ascending colour / ascending pair order. Emits one `part.kway` span and
/// the `part.kway.{pairs,colours,moves}` counters into `ws.obs`. Returns
/// total moves applied.
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

    let mut pairs = std::mem::take(&mut ws.pairs);
    let mut colours = ws.take_u32();
    let mut order = ws.take_u32();
    let list = ws.take_u32();
    let mut cursor = ws.take_usize();
    let mut cands = Candidates {
        cnt: ws.take_usize(),
        off: ws.take_usize(),
        list,
    };

    let mut total_moves = 0u64;
    let mut total_pairs = 0u64;
    let mut peak_colours = 0u64;
    for _round in 0..config.refine_passes.max(1) {
        collect_pairs(graph, part, &mut pairs);
        if pairs.is_empty() {
            break;
        }
        let ncolours = colour_pairs(&pairs, k, &mut colours);
        schedule_order(&colours, ncolours, &mut cursor, &mut order);
        build_candidates(
            graph,
            part,
            &pairs,
            k,
            &mut ws.kw_conn,
            &mut ws.kw_touched,
            &mut cands,
        );
        total_pairs += pairs.len() as u64;
        peak_colours = peak_colours.max(ncolours as u64);

        let mut round_moves = 0u64;
        for &pi in &order {
            let pi = pi as usize;
            let (p, q) = pairs[pi];
            let (pp, qq) = (p as usize, q as usize);
            let (lo, hi) = ws.kw_pw.split_at_mut(qq * ncon);
            let pw_p = &mut lo[pp * ncon..(pp + 1) * ncon];
            let pw_q = &mut hi[..ncon];
            let mut sp = ws.kw_psize[pp] as i64;
            let mut sq = ws.kw_psize[qq] as i64;
            round_moves += refine_pair(
                graph,
                part,
                cands.of(pi),
                p,
                q,
                pw_p,
                pw_q,
                &mut sp,
                &mut sq,
                &ws.kw_allow,
            );
            ws.kw_psize[pp] = sp as usize;
            ws.kw_psize[qq] = sq as usize;
        }
        total_moves += round_moves;
        if round_moves == 0 {
            break;
        }
    }

    ws.pairs = pairs;
    ws.give_u32(colours);
    ws.give_u32(order);
    ws.give_u32(cands.list);
    ws.give_usize(cursor);
    ws.give_usize(cands.cnt);
    ws.give_usize(cands.off);
    if rec.enabled() {
        rec.counter("part.kway.pairs", 0, total_pairs);
        rec.counter("part.kway.colours", 0, peak_colours);
        rec.counter("part.kway.moves", 0, total_moves);
    }
    total_moves as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempart_graph::builder::grid_graph;
    use tempart_graph::{edge_cut, max_imbalance};

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
        let mut pairs = Vec::new();
        collect_pairs(&g, &part, &mut pairs);
        assert!(!pairs.is_empty());
        let mut colours = Vec::new();
        let nc = colour_pairs(&pairs, 4, &mut colours);
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
        assert_eq!(colour_pairs(&pairs, 4, &mut colours2), nc);
        assert_eq!(colours, colours2);
        // The schedule lists every pair once, colours ascending, pair
        // indices ascending within a colour.
        let (mut cursor, mut order) = (Vec::new(), Vec::new());
        schedule_order(&colours, nc, &mut cursor, &mut order);
        let keys: Vec<(u32, u32)> = order.iter().map(|&pi| (colours[pi as usize], pi)).collect();
        assert_eq!(keys.len(), pairs.len());
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
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
