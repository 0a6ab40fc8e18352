//! Incremental repartitioning by diffusion on the part adjacency graph.
//!
//! The paper's setting is not one-shot: temporal levels drift as the flow
//! evolves, and production FLUSEPA repartitions periodically rather than
//! from scratch. Rebuilding the whole multilevel partition discards the
//! previous placement and migrates most of the mesh; the incremental
//! repartitioner here instead takes the **previous part vector** plus the
//! **drifted per-cell weights** and restores balance by moving as little as
//! possible:
//!
//! 1. **Diffusion solve** ([`diffusion_plan`]): per out-of-tolerance
//!    constraint, a fixed number of Jacobi diffusion sweeps on the part
//!    adjacency graph turns the per-part load deviations into signed
//!    per-pair **flow targets** (how much weight should cross each part
//!    boundary). A per-constraint *deadband* zeroes the flows of any
//!    constraint already within its allowance — so an undrifted mesh yields
//!    an empty plan and **zero moves**.
//! 2. **Move realization**: flows are realized by boundary-cell moves over
//!    the pinned colour-class schedule of [`crate::par_kway`] — collect the
//!    boundary pairs, edge-colour them, and run one bounded transfer per
//!    pair ([`GainBuckets`]-ordered: among cells whose move reduces the
//!    pair's remaining flow, the smallest cut damage goes first). Cells move
//!    only while the move shrinks the remaining flow and the receiving side
//!    stays within its per-constraint allowance, so per part and constraint
//!    the load never exceeds `max(previous load, allowance)`.
//! 3. **Rounds**: moving the boundary exposes new boundary cells, so the
//!    solve + realization repeats (up to [`RepartConfig::realize_rounds`])
//!    until the plan is empty or a round moves nothing
//!    ([`RepartStats::stop`] says which, and [`RepartStats::over_allowance`]
//!    what is left). What is **kept** across the rounds of a call: the part
//!    tables, the allowance, and the boundary pair and candidate lists
//!    (`par_kway::Boundary`), built from the whole graph once, before round
//!    0. What is **patched**: those lists, before every later round, around
//!    the cells the previous round moved — so a round costs what it moved,
//!    not a sweep of the mesh. The dirty-set argument: an entry `(pair, v)`
//!    of the lists depends only on `part[v]` and the parts of `v`'s
//!    neighbours; a round changes `part` only at the cells its transfers
//!    log; so only *moved ∪ neighbours of moved* can own different entries,
//!    and regenerating exactly those reproduces the whole-graph build
//!    (asserted after every patch in debug builds). The patch merges
//!    entry by entry only the pairs those entries touch; every other pair's
//!    list is copied whole.
//!
//! What else a round reads is what its plan asks for. The sub-cell
//! promotion ([`diffusion_flows`]) is the only reader of realizability
//! ("does this pair's boundary hold a cell of constraint `c` on this
//! side?") and of the part → pair incidence: [`OnDemand`] builds the
//! incidence (one pass over the pairs) on a round's first question, so an
//! over-allowance part visits its own pairs rather than all of them, and
//! answers each realizability question with an early-exit scan of one
//! pair's candidates, memoized for the round.
//!
//! # Realization and determinism
//!
//! Pair lists, colours, candidate lists and the diffusion solve are pure
//! functions of the round-start partition (the lists by patching, see
//! above), and the pairs of a round run in one fixed order (ascending
//! colour, ascending pair index), each owning its two part-load rows and
//! its flow row — so the refreshed partition is a pure function of
//! `(graph, part, config)`, whatever the worker count of the surrounding
//! pipeline. The migration budget is applied by **scaling the flow plan
//! between rounds**, never by a counter inside a pair's transfer.
//!
//! `tests/property_repart.rs` (workspace root) enforces the ceiling,
//! truthful-stop, zero-drift, budget, warm-workspace and width-invariance
//! properties and pins a 16-step sequence;
//! `ci.sh worker-matrix` diffs `repart-*` fingerprint rows across process
//! worker counts.

use crate::par_kway::{
    check_part_vector, colour_pairs, part_tables, schedule_order, Boundary, Candidates, Entry,
};
use crate::workspace::GainBuckets;
use crate::PartitionWorkspace;
use tempart_graph::{CsrGraph, PartId};

/// Jacobi sweeps of the diffusion solve per round. The solve runs on the
/// *part* graph (k vertices), so a generous pass count is cheap; more passes
/// spread flow further from the overload before the realization starts
/// moving cells.
const DIFFUSION_PASSES: usize = 48;

/// Configuration of the incremental repartitioner.
#[derive(Debug, Clone)]
pub struct RepartConfig {
    /// Number of parts the part vector uses.
    pub nparts: usize,
    /// Allowed imbalance of every constraint: a receiving part stays under
    /// `ub` times the constraint's average part load (at least 1.0).
    pub ub: f64,
    /// Maximum solve + realization rounds. Each round can only move cells
    /// that currently sit on a part boundary, so deep load imbalances need
    /// several rounds for the flow to tunnel through intermediate parts.
    pub realize_rounds: usize,
    /// Optional migration budget in [`migration volume`] units (first
    /// constraint weight, minimum 1 per cell — the pricing of
    /// [`tempart_graph::migration_volume`]). Applied by scaling each
    /// round's flow plan down to the remaining budget; the realized volume
    /// can overshoot by at most one cell weight per active pair.
    ///
    /// [`migration volume`]: tempart_graph::migration_volume
    pub migration_budget: Option<u64>,
}

impl RepartConfig {
    /// Defaults for `nparts` parts: the multi-constraint tolerance the
    /// from-scratch MC_TL pipeline uses (1.10), up to 32 realization
    /// rounds, no budget.
    pub fn new(nparts: usize) -> Self {
        Self {
            nparts,
            ub: 1.10,
            realize_rounds: 32,
            migration_budget: None,
        }
    }

    /// Overrides the imbalance tolerance for all constraints.
    pub fn with_ub(mut self, ub: f64) -> Self {
        self.ub = ub;
        self
    }

    /// Sets the migration budget (see [`RepartConfig::migration_budget`]).
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.migration_budget = Some(budget);
        self
    }

    /// The entry checks of [`repartition_ws`] and [`diffusion_plan`].
    fn validate(&self) {
        assert!(self.nparts >= 1, "nparts must be at least 1");
        assert!(self.ub >= 1.0, "imbalance tolerances must be >= 1.0");
    }
}

/// Why a [`repartition_ws`] call stopped running rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepartStop {
    /// The next round's plan was empty: every constraint sits in its
    /// deadband, the remaining surplus has no realizable flow, or the
    /// migration budget scaled the plan to zero.
    #[default]
    PlanEmpty,
    /// A round had a plan but could not move a single cell.
    Stalled,
    /// [`RepartConfig::realize_rounds`] rounds ran, each moved cells, and
    /// some part is still above an allowance
    /// ([`RepartStats::over_allowance`] is non-zero): the call degraded.
    RoundCap,
}

/// What one [`repartition_ws`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepartStats {
    /// Number of cell moves applied (a cell moved twice counts twice, so
    /// this bounds the net migration volume from above for unit weights).
    pub cells_moved: u64,
    /// Total moved weight in migration-volume units
    /// (`max(vertex_weight[0], 1)` per move).
    pub volume_moved: u64,
    /// Solve + realization rounds that ran (0 when the first plan was
    /// already empty — the zero-drift case).
    pub rounds: u32,
    /// L1 norm of the first round's quantized (and budget-scaled) flow
    /// plan, in weight units.
    pub planned_flow: u64,
    /// How the call ended.
    pub stop: RepartStop,
    /// The worst load left above its allowance at return, over parts and
    /// constraints, in whole weight units (how much must still leave that
    /// part); zero when every part is within every allowance.
    pub over_allowance: u64,
}

/// The per-constraint allowance `total[c] · (1/k) · ub` — the ceiling a
/// receiving part must stay under, the same for every part: one row of
/// `ncon` entries.
///
/// The ceiling is floored at one weight unit: a constraint whose target
/// share is sub-cell (fewer cells than parts) would otherwise forbid every
/// receiver, leaving donors above the ceiling unable to shed. Anything
/// larger than a one-unit floor is counterproductive — it legitimizes a
/// `target + 1` park that a from-scratch partition of the same tiny
/// constraint would beat.
fn build_allowance(tot: &[i64], k: usize, ub: f64, out: &mut Vec<f64>) {
    let frac = 1.0 / k as f64;
    out.clear();
    out.extend(tot.iter().map(|&t| (t as f64 * frac * ub).max(1.0)));
}

/// The two questions the sub-cell promotion of [`diffusion_flows`] asks
/// about a round's pairs. [`OnDemand`] answers them for the solver; the
/// tests answer them from whole-boundary oracles and compare the plans.
trait PairIndex {
    /// The indices of the pairs incident to part `p`, ascending.
    fn incident(&mut self, p: usize) -> &[u32];
    /// Whether pair `e`'s boundary holds a cell on `side` (1: the pair's
    /// `p` side, 2: its `q` side) that carries weight in constraint `c` —
    /// i.e. whether the pair can move `c` away from that side.
    fn realizable(&mut self, e: usize, c: usize, side: u8) -> bool;
}

/// The buffers of [`OnDemand`], on loan from a workspace for one call.
#[derive(Debug, Default)]
struct PromotionScratch {
    /// Per (pair, constraint): bit `side` holds the answer, bit `side << 2`
    /// says it was asked this round.
    memo: Vec<u8>,
    /// Part → incident-pair CSR: `inc[off[p]..off[p + 1]]`.
    off: Vec<usize>,
    inc: Vec<u32>,
}

/// [`PairIndex`] over one round's boundary lists, paying only for what
/// promotion asks: one pass over the pairs for the incident CSR on the
/// round's first question (in ascending pair index, so a part visits its
/// pairs in the order an all-pairs scan would) and, per question, an
/// early-exit scan of one pair's candidates, memoized for the round.
struct OnDemand<'a> {
    graph: &'a CsrGraph,
    part: &'a [PartId],
    cands: &'a Candidates,
    k: usize,
    scratch: &'a mut PromotionScratch,
    ready: bool,
}

impl OnDemand<'_> {
    /// Clears the memo and builds the incident CSR, once per round.
    fn prepare(&mut self) {
        if self.ready {
            return;
        }
        self.ready = true;
        let pairs = &self.cands.pairs;
        let PromotionScratch { memo, off, inc } = &mut *self.scratch;
        memo.clear();
        memo.resize(pairs.len() * self.graph.ncon(), 0);
        off.clear();
        off.resize(self.k + 1, 0);
        for &(p, q) in pairs {
            off[p as usize + 1] += 1;
            off[q as usize + 1] += 1;
        }
        for p in 0..self.k {
            off[p + 1] += off[p];
        }
        inc.resize(2 * pairs.len(), 0);
        for (e, &(p, q)) in pairs.iter().enumerate() {
            for x in [p as usize, q as usize] {
                inc[off[x]] = e as u32;
                off[x] += 1;
            }
        }
        // Each `off[p]` now holds the end of `p`'s run, the start of
        // `p + 1`'s: shift the offsets back by one part.
        off.rotate_right(1);
        off[0] = 0;
    }
}

impl PairIndex for OnDemand<'_> {
    fn incident(&mut self, p: usize) -> &[u32] {
        self.prepare();
        let PromotionScratch { off, inc, .. } = &*self.scratch;
        &inc[off[p]..off[p + 1]]
    }

    fn realizable(&mut self, e: usize, c: usize, side: u8) -> bool {
        self.prepare();
        let (graph, part) = (self.graph, self.part);
        let slot = &mut self.scratch.memo[e * graph.ncon() + c];
        let asked = side << 2;
        if *slot & asked == 0 {
            let p = self.cands.pairs[e].0;
            let hit = self.cands.of(e).iter().any(|&(_, v)| {
                (part[v as usize] == p) == (side == 1) && graph.vertex_weights(v)[c] > 0
            });
            *slot |= if hit { asked | side } else { asked };
        }
        *slot & side != 0
    }
}

/// The diffusion solve's buffers: the quantized flow targets it writes and
/// its scratch.
#[derive(Debug, Default)]
struct Solve {
    flow: Vec<i64>,
    x: Vec<f64>,
    facc: Vec<f64>,
    fstep: Vec<f64>,
}

/// The diffusion solve of one round over the boundary `pairs`: writes one
/// quantized flow target per (pair, constraint) into `solve.flow`
/// (`pairs.len() * ncon`, positive = weight should move `p → q` for the
/// pair `(p, q)` with `p < q`). Constraints whose every part already sits
/// within its allowance (the deadband) and constraints with zero total
/// weight contribute no flow. Returns `true` if any flow target is
/// non-zero.
///
/// Deterministic: a fixed number of Jacobi sweeps (flows of one sweep are
/// computed from the same load snapshot, then applied) in pair-list order,
/// with the classic stable step `λ = 1 / (maxdeg + 1)` of the part graph.
///
/// `index` answers the sub-cell flow promotion's questions — which pairs
/// touch a part, and whether a pair's boundary can move a constraint away
/// from a side — so promotion only plans flow a boundary move can carry.
fn diffusion_flows(
    solve: &mut Solve,
    pairs: &[(u32, u32)],
    allow: &[f64],
    pw: &[i64],
    tot: &[i64],
    config: &RepartConfig,
    index: &mut impl PairIndex,
) -> bool {
    let (k, ncon) = (config.nparts, tot.len());
    let Solve {
        flow,
        x,
        facc,
        fstep,
    } = solve;
    flow.clear();
    flow.resize(pairs.len() * ncon, 0);
    if pairs.is_empty() {
        return false;
    }
    // Part-graph degrees → the stable diffusion step size.
    x.clear();
    x.resize(k, 0.0);
    for &(p, q) in pairs {
        x[p as usize] += 1.0;
        x[q as usize] += 1.0;
    }
    let maxdeg = x.iter().fold(0.0f64, |a, &b| a.max(b));
    let lambda = 1.0 / (maxdeg + 1.0);
    let mut any = false;
    for c in 0..ncon {
        if tot[c] == 0 {
            continue;
        }
        // Deadband: a constraint already within its allowance everywhere
        // needs no flow — this is what makes zero drift produce zero moves.
        if (0..k).all(|p| pw[p * ncon + c] as f64 <= allow[c]) {
            continue;
        }
        let mean = tot[c] as f64 * (1.0 / k as f64);
        for p in 0..k {
            x[p] = pw[p * ncon + c] as f64 - mean;
        }
        facc.clear();
        facc.resize(pairs.len(), 0.0);
        for _ in 0..DIFFUSION_PASSES {
            fstep.clear();
            fstep.extend(
                pairs
                    .iter()
                    .map(|&(p, q)| lambda * (x[p as usize] - x[q as usize])),
            );
            for (e, &(p, q)) in pairs.iter().enumerate() {
                let f = fstep[e];
                facc[e] += f;
                x[p as usize] -= f;
                x[q as usize] += f;
            }
        }
        for (e, &f) in facc.iter().enumerate() {
            let q = f.round() as i64;
            if q != 0 {
                flow[e * ncon + c] = q;
                any = true;
            }
        }
        // Promotion: a part above its allowance whose surplus is sub-cell
        // (common for the paper's smallest temporal level, a few dozen
        // cells) sees all its flows round to zero — the solve would report
        // "nothing to do" while the constraint is still out of tolerance.
        // Give every such part one **realizable** outward flow of ±1, among
        // pairs whose boundary actually holds a cell of this constraint on
        // the part's side. Preferred receiver: the steepest *downhill*
        // neighbour, at least two units lighter — that move strictly
        // shrinks `Σ load²`, so it cannot ping-pong and surplus cascades
        // hop by hop toward under-loaded parts the donor does not touch.
        // On a flat plateau (every neighbour exactly one unit lighter) the
        // unit instead takes a *lateral* hop along the direction of the
        // accumulated continuous flow: `facc` is the fractional transport
        // plan, so its sign points across the plateau toward the genuine
        // deficit, and once the unit lands there the recomputed field keeps
        // pointing it onward rather than back. Deterministic: parts
        // ascending, each part's pairs ascending, first maximum wins.
        for p in 0..k {
            if pw[p * ncon + c] as f64 <= allow[c] {
                continue;
            }
            let mut has_out = false;
            let mut down: Option<(usize, i64)> = None;
            let mut lateral: Option<(usize, f64)> = None;
            for i in 0..index.incident(p).len() {
                let e = index.incident(p)[i] as usize;
                let (a, b) = pairs[e];
                let (other, outflow, outacc, side) = if a as usize == p {
                    (b as usize, flow[e * ncon + c] > 0, facc[e], 1u8)
                } else {
                    (a as usize, flow[e * ncon + c] < 0, -facc[e], 2u8)
                };
                if !index.realizable(e, c, side) {
                    continue;
                }
                let gap = pw[p * ncon + c] - pw[other * ncon + c];
                if gap < 1 {
                    continue;
                }
                if outflow {
                    has_out = true;
                    break;
                }
                if gap >= 2 {
                    if down.is_none_or(|(_, bg)| gap > bg) {
                        down = Some((e, gap));
                    }
                } else if outacc > 0.0 && lateral.is_none_or(|(_, bf)| outacc > bf) {
                    lateral = Some((e, outacc));
                }
            }
            if !has_out {
                if let Some((e, _)) = down.or(lateral.map(|(e, _)| (e, 0))) {
                    flow[e * ncon + c] = if pairs[e].0 as usize == p { 1 } else { -1 };
                    any = true;
                }
            }
        }
    }
    any
}

/// Scales the flow plan down so its L1 norm fits `remaining` budget units
/// (truncating toward zero — never overshoots). Returns the resulting L1
/// norm. Runs between rounds only: the budget never reaches into a pair's
/// transfer loop.
fn scale_flows(flow: &mut [i64], remaining: u64) -> u64 {
    let planned: u64 = flow.iter().map(|f| f.unsigned_abs()).sum();
    if planned <= remaining {
        return planned;
    }
    let s = remaining as f64 / planned as f64;
    for f in flow.iter_mut() {
        *f = (*f as f64 * s).trunc() as i64;
    }
    flow.iter().map(|f| f.unsigned_abs()).sum()
}

/// How much moving a cell of weights `vw` in direction `s` (+1 = `p → q`,
/// −1 = `q → p`) shrinks the pair's remaining L1 flow residual. Positive
/// means the move serves the plan. Constraints with zero remaining flow are
/// neutral — they are in their deadband (or already drained), and the
/// receiving side's allowance check alone guards them; counting them would
/// veto every move of a cell that carries any weight in a balanced
/// constraint.
#[inline]
fn flow_benefit(flow: &[i64], vw: &[u32], s: i64) -> i64 {
    let mut b = 0i64;
    for (c, &w) in vw.iter().enumerate() {
        if flow[c] == 0 {
            continue;
        }
        let w = i64::from(w) * s;
        b += flow[c].abs() - (flow[c] - w).abs();
    }
    b
}

/// What one pair's transfer owns for its duration: the pair, its flow row,
/// the two parts' load rows and populations, the allowance row, and the
/// round's moved-cell log.
struct PairState<'a> {
    p: u32,
    q: u32,
    flow: &'a mut [i64],
    pw_p: &'a mut [i64],
    pw_q: &'a mut [i64],
    size_p: i64,
    size_q: i64,
    allow: &'a [f64],
    moved: &'a mut Vec<u32>,
}

/// One pair's flow realization: candidates whose move direction reduces the
/// remaining flow enter the gain buckets keyed by **cut gain** (so the
/// cheapest cut damage moves first, LIFO tie-break documented at
/// [`GainBuckets`]); moves apply while they still shrink the flow, keep the
/// receiving side within its allowance (or strictly downhill for the
/// flow-bearing constraint) and leave the source non-empty.
/// Feasibility only shrinks as the transfer proceeds (flows decrease, the
/// receiver fills up), so popped-but-infeasible candidates are discarded.
/// Every applied move is appended to `pair.moved`. Returns `(cells moved,
/// volume moved)`.
fn transfer_pair(
    graph: &CsrGraph,
    part: &mut [PartId],
    cands: &[Entry],
    pair: &mut PairState,
    buckets: &mut GainBuckets,
) -> (u64, u64) {
    let &mut PairState {
        p,
        q,
        ref mut size_p,
        ref mut size_q,
        allow,
        ..
    } = pair;
    let (flow, pw_p, pw_q) = (&mut *pair.flow, &mut *pair.pw_p, &mut *pair.pw_q);
    if flow.iter().all(|&f| f == 0) {
        return (0, 0);
    }
    let ncon = graph.ncon();
    // Pass 1: the gain bound. A cut gain w.r.t. the pair can never leave
    // ±(total incident edge weight), even as neighbours move, so the
    // largest such sum over the beneficial candidates bounds every bucket
    // index this transfer will ever use.
    let mut gmax = 1i64;
    let mut have = false;
    for &(_, v) in cands {
        let own = part[v as usize];
        if own != p && own != q {
            continue;
        }
        let s = if own == p { 1 } else { -1 };
        if flow_benefit(flow, graph.vertex_weights(v), s) <= 0 {
            continue;
        }
        let d: i64 = graph.edge_weights(v).map(i64::from).sum();
        gmax = gmax.max(d);
        have = true;
    }
    if !have {
        return (0, 0);
    }
    buckets.ensure(graph.nvtx(), gmax);
    for &(_, v) in cands {
        let own = part[v as usize];
        if own != p && own != q {
            continue;
        }
        let s = if own == p { 1 } else { -1 };
        if flow_benefit(flow, graph.vertex_weights(v), s) <= 0 {
            continue;
        }
        let other = if own == p { q } else { p };
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
        buckets.insert(v, conn_other - conn_own);
    }
    let mut cells = 0u64;
    let mut volume = 0u64;
    while let Some(v) = buckets.pop_best(usize::MAX, |_| true) {
        let own = part[v as usize];
        debug_assert!(own == p || own == q, "bucketed cell left the pair");
        let (s, pw_own, pw_other, size_own, size_other, other) = if own == p {
            (1i64, &mut *pw_p, &mut *pw_q, &mut *size_p, &mut *size_q, q)
        } else {
            (-1i64, &mut *pw_q, &mut *pw_p, &mut *size_q, &mut *size_p, p)
        };
        if *size_own <= 1 {
            continue;
        }
        let vw = graph.vertex_weights(v);
        if flow_benefit(flow, vw, s) <= 0 {
            continue;
        }
        // A receiving side normally stays within its allowance; for the
        // constraint the flow is pushing, a move that leaves the receiver
        // no heavier than the sender was is also legal — downhill exchanges
        // shrink `Σ load²` and lateral (equal-ending) hops relay a surplus
        // unit across balanced plateau parts toward distant under-loaded
        // ones; the solve only plans laterals along the continuous flow
        // direction, which is what stops them from oscillating.
        let fits = (0..ncon).all(|c| {
            let w = i64::from(vw[c]);
            if w == 0 {
                return true;
            }
            let recv = pw_other[c] + w;
            (recv as f64) <= allow[c].max(1.0) || (s * flow[c] > 0 && recv <= pw_own[c])
        });
        if !fits {
            continue;
        }
        for c in 0..ncon {
            let w = i64::from(vw[c]);
            flow[c] -= s * w;
            pw_own[c] -= w;
            pw_other[c] += w;
        }
        *size_own -= 1;
        *size_other += 1;
        part[v as usize] = other;
        pair.moved.push(v);
        cells += 1;
        volume += u64::from(vw[0].max(1));
        // Refresh the cut gains of still-bucketed neighbours — their
        // connectivity to the pair's sides just changed by w(u, v).
        for u in graph.neighbors(v) {
            if !buckets.contains(u) {
                continue;
            }
            let uo = part[u as usize];
            let uother = if uo == p { q } else { p };
            let mut conn_own = 0i64;
            let mut conn_other = 0i64;
            for (t, w) in graph.neighbors(u).zip(graph.edge_weights(u)) {
                let pt = part[t as usize];
                if pt == uo {
                    conn_own += i64::from(w);
                } else if pt == uother {
                    conn_other += i64::from(w);
                }
            }
            buckets.update(u, conn_other - conn_own);
        }
    }
    (cells, volume)
}

/// The state of one call's round plans, in buffers on loan from a
/// workspace: the allowance table, the boundary pair and candidate lists
/// (built once, then patched round by round), and per round the
/// promotion's index, the flow targets, and the solve's scratch. Between
/// calls the workspace keeps it (as `ws.plan`, its boundary in
/// `ws.boundary`, which the pairwise k-way passes share).
#[derive(Debug, Default)]
pub(crate) struct RoundPlan {
    allow: Vec<f64>,
    boundary: Boundary,
    promotion: PromotionScratch,
    solve: Solve,
}

impl RoundPlan {
    /// Loads the part tables of the (checked) `part` into `ws`, borrows the
    /// plan buffers from it and builds the boundary lists of `part` — the
    /// one whole-graph build of the call.
    fn begin(
        graph: &CsrGraph,
        part: &[PartId],
        config: &RepartConfig,
        ws: &mut PartitionWorkspace,
    ) -> Self {
        let k = config.nparts;
        part_tables(graph, part, k, ws);
        let mut plan = std::mem::take(&mut ws.plan);
        build_allowance(&ws.kw_tot, k, config.ub, &mut plan.allow);
        plan.boundary = std::mem::take(&mut ws.boundary);
        plan.boundary.build(graph, part, k);
        plan
    }

    /// Plans one round from the current `part` and the part loads in `ws`:
    /// boundary lists patched around the cells the previous round moved →
    /// diffusion solve (asking [`OnDemand`] for what promotion needs), then
    /// the flows scaled to what `spent` volume units leave of the migration
    /// budget. Returns the plan's L1 norm; zero means nothing (more) to
    /// realize.
    fn next(
        &mut self,
        graph: &CsrGraph,
        part: &[PartId],
        config: &RepartConfig,
        ws: &PartitionWorkspace,
        spent: u64,
    ) -> u64 {
        let k = config.nparts;
        if !self.boundary.moved.is_empty() {
            self.boundary.patch(graph, part, k);
        }
        let cands = &self.boundary.cands;
        if cands.pairs.is_empty() {
            self.solve.flow.clear();
            return 0;
        }
        let mut index = OnDemand {
            graph,
            part,
            cands,
            k,
            scratch: &mut self.promotion,
            ready: false,
        };
        let (pw, tot) = (&ws.kw_pw, &ws.kw_tot);
        if !diffusion_flows(
            &mut self.solve,
            &cands.pairs,
            &self.allow,
            pw,
            tot,
            config,
            &mut index,
        ) {
            return 0;
        }
        let flow = &mut self.solve.flow;
        match config.migration_budget {
            Some(b) => scale_flows(flow, b.saturating_sub(spent)),
            None => flow.iter().map(|f| f.unsigned_abs()).sum(),
        }
    }

    /// Returns the buffers to `ws` for the next call.
    fn end(mut self, ws: &mut PartitionWorkspace) {
        ws.boundary = std::mem::take(&mut self.boundary);
        ws.plan = self;
    }
}

/// The diffusion plan the first round of [`repartition_ws`] would realize:
/// the boundary pair list of `part` plus one quantized, budget-scaled flow
/// target per (pair, constraint) (`pairs.len() * ncon`, positive = `p → q`).
/// A pure function of `(graph, part, config)` — the worker-matrix
/// fingerprints digest it to pin the migration plan across process worker
/// counts. An empty / all-zero flow vector is the zero-drift case.
///
/// # Panics
///
/// Panics on invalid configuration, or if `part` is not one id below
/// `config.nparts` per vertex of `graph`.
pub fn diffusion_plan(
    graph: &CsrGraph,
    part: &[PartId],
    config: &RepartConfig,
) -> (Vec<(u32, u32)>, Vec<i64>) {
    config.validate();
    check_part_vector(graph, part, config.nparts);
    let mut ws = PartitionWorkspace::new();
    let mut plan = RoundPlan::begin(graph, part, config, &mut ws);
    plan.next(graph, part, config, &ws, 0);
    (plan.boundary.cands.pairs, plan.solve.flow)
}

/// Incremental repartitioning with caller-provided scratch: diffuses the
/// load of `graph`'s (drifted) vertex weights along the part adjacency
/// graph of `part` and realizes the flows by boundary-cell moves on the
/// pinned schedule, updating `part` in place. Emits one `part.repart` span
/// and the `part.repart.{moves,volume,rounds,pairs,flow}` counters into
/// `ws.obs`.
///
/// The workspace carries capacity, not state — warm reuse across calls
/// returns bit-identical results to a fresh workspace.
///
/// # Panics
///
/// Panics on invalid configuration, or if `part` is not one id below
/// `config.nparts` per vertex of `graph`.
pub fn repartition_ws(
    graph: &CsrGraph,
    part: &mut [PartId],
    config: &RepartConfig,
    ws: &mut PartitionWorkspace,
) -> RepartStats {
    config.validate();
    let k = config.nparts;
    check_part_vector(graph, part, k);
    let ncon = graph.ncon();
    let mut stats = RepartStats::default();
    if graph.nvtx() == 0 || k <= 1 {
        return stats;
    }
    let rec = ws.obs.clone();
    let _span = rec.span("part.repart", 0, k as u64);

    let mut plan = RoundPlan::begin(graph, part, config, ws);

    let mut total_pairs = 0u64;
    stats.stop = RepartStop::RoundCap;
    for _round in 0..config.realize_rounds.max(1) {
        let planned = plan.next(graph, part, config, ws, stats.volume_moved);
        if planned == 0 {
            stats.stop = RepartStop::PlanEmpty;
            break;
        }
        if stats.rounds == 0 {
            stats.planned_flow = planned;
        }
        let RoundPlan {
            boundary: Boundary { cands, moved, .. },
            allow,
            solve: Solve { flow, .. },
            ..
        } = &mut plan;
        let ncolours = colour_pairs(&cands.pairs, k, &mut ws.kw_used, &mut ws.kw_colours);
        schedule_order(
            &ws.kw_colours,
            ncolours,
            &mut ws.kw_cursor,
            &mut ws.kw_order,
        );
        total_pairs += cands.pairs.len() as u64;

        let mut round_cells = 0u64;
        for &pi in &ws.kw_order {
            let pi = pi as usize;
            let (p, q) = cands.pairs[pi];
            let (pp, qq) = (p as usize, q as usize);
            let (lo, hi) = ws.kw_pw.split_at_mut(qq * ncon);
            let mut pair = PairState {
                p,
                q,
                flow: &mut flow[pi * ncon..(pi + 1) * ncon],
                pw_p: &mut lo[pp * ncon..(pp + 1) * ncon],
                pw_q: &mut hi[..ncon],
                size_p: ws.kw_psize[pp] as i64,
                size_q: ws.kw_psize[qq] as i64,
                allow,
                moved,
            };
            let (cells, vol) = transfer_pair(graph, part, cands.of(pi), &mut pair, &mut ws.buckets);
            ws.kw_psize[pp] = pair.size_p as usize;
            ws.kw_psize[qq] = pair.size_q as usize;
            round_cells += cells;
            stats.cells_moved += cells;
            stats.volume_moved += vol;
        }
        stats.rounds += 1;
        if round_cells == 0 {
            stats.stop = RepartStop::Stalled;
            break;
        }
    }
    // What is left above an allowance; a capped call that got every part
    // within its allowance in its last round would have found its next
    // plan empty.
    stats.over_allowance = ws
        .kw_pw
        .chunks(plan.allow.len().max(1))
        .flat_map(|loads| loads.iter().zip(&plan.allow))
        .filter(|&(&load, &allow)| load as f64 > allow)
        .map(|(&load, &allow)| (load - allow.floor() as i64) as u64)
        .max()
        .unwrap_or(0);
    if stats.stop == RepartStop::RoundCap && stats.over_allowance == 0 {
        stats.stop = RepartStop::PlanEmpty;
    }

    plan.end(ws);
    if rec.enabled() {
        rec.counter("part.repart.moves", 0, stats.cells_moved);
        rec.counter("part.repart.volume", 0, stats.volume_moved);
        rec.counter("part.repart.rounds", 0, u64::from(stats.rounds));
        rec.counter("part.repart.pairs", 0, total_pairs);
        rec.counter("part.repart.flow", 0, stats.planned_flow);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{partition_graph, PartitionConfig};
    use tempart_graph::builder::{grid_graph, GraphBuilder};
    use tempart_graph::{constraint_imbalances, max_imbalance, migration_volume};
    use tempart_obs::Recorder;
    use tempart_testkit::rng::Rng;

    fn repartition(g: &CsrGraph, part: &mut [PartId], cfg: &RepartConfig) -> RepartStats {
        repartition_ws(g, part, cfg, &mut PartitionWorkspace::new())
    }

    /// A deliberately skewed 4-part strip partition of an `n × n` grid:
    /// parts get 40% / 30% / 20% / 10% of the columns.
    fn skewed_strips(n: usize) -> Vec<PartId> {
        let cuts = [n * 4 / 10, n * 7 / 10, n * 9 / 10];
        let mut part = Vec::with_capacity(n * n);
        for r in 0..n {
            let _ = r;
            for c in 0..n {
                let p = cuts.iter().filter(|&&x| c >= x).count() as PartId;
                part.push(p);
            }
        }
        part
    }

    #[test]
    fn balanced_partition_moves_nothing() {
        let g = grid_graph(16, 16);
        let cfg = RepartConfig::new(4).with_ub(1.05);
        let mut part = partition_graph(&g, &PartitionConfig::new(4));
        let before = part.clone();
        let stats = repartition(&g, &mut part, &cfg);
        assert_eq!(stats, RepartStats::default());
        assert_eq!(part, before, "zero drift must leave the partition alone");
        let (_, flow) = diffusion_plan(&g, &before, &cfg);
        assert!(flow.iter().all(|&f| f == 0), "plan must be empty");
    }

    #[test]
    fn skewed_strips_rebalance_with_bounded_migration() {
        let g = grid_graph(20, 20);
        let mut part = skewed_strips(20);
        let before = part.clone();
        let imb0 = max_imbalance(&g, &part, 4);
        assert!(imb0 > 1.5, "start must be imbalanced, got {imb0}");
        let cfg = RepartConfig::new(4).with_ub(1.05);
        let stats = repartition(&g, &mut part, &cfg);
        let imb1 = max_imbalance(&g, &part, 4);
        assert!(stats.cells_moved > 0);
        assert!(imb1 < imb0, "imbalance {imb0} -> {imb1}");
        assert!(
            imb1 <= 1.10,
            "diffusion should land within slack, got {imb1}"
        );
        // Volume accounting: unit weights, so the stats volume bounds the
        // net migration volume from above.
        let net = migration_volume(&g, &before, &part);
        assert!(net as u64 <= stats.volume_moved);
    }

    #[test]
    fn ceiling_is_monotone_per_part() {
        // No part may end above max(its previous load, its allowance).
        let g = grid_graph(20, 20);
        let mut part = skewed_strips(20);
        let cfg = RepartConfig::new(4).with_ub(1.05);
        let pre = tempart_graph::part_weights(&g, &part, 4);
        repartition(&g, &mut part, &cfg);
        let post = tempart_graph::part_weights(&g, &part, 4);
        let allowance = 400.0 / 4.0 * 1.05;
        for p in 0..4 {
            let ceiling = (pre[p][0] as f64).max(allowance);
            assert!(
                post[p][0] as f64 <= ceiling + 1e-9,
                "part {p}: {} -> {} above ceiling {ceiling}",
                pre[p][0],
                post[p][0]
            );
        }
    }

    #[test]
    fn budget_caps_volume_and_zero_budget_freezes() {
        let g = grid_graph(20, 20);
        let start = skewed_strips(20);
        let mut frozen = start.clone();
        let stats0 = repartition(&g, &mut frozen, &RepartConfig::new(4).with_budget(0));
        assert_eq!(stats0.cells_moved, 0);
        assert_eq!(frozen, start);
        // Unit weights: budget bounds the realized volume exactly.
        for budget in [10u64, 40, 120] {
            let mut part = start.clone();
            let stats = repartition(&g, &mut part, &RepartConfig::new(4).with_budget(budget));
            assert!(
                stats.volume_moved <= budget,
                "budget {budget} exceeded: {}",
                stats.volume_moved
            );
        }
        // Larger budgets reach at-least-as-good balance.
        let mut small = start.clone();
        let mut large = start.clone();
        repartition(&g, &mut small, &RepartConfig::new(4).with_budget(20));
        repartition(&g, &mut large, &RepartConfig::new(4).with_budget(400));
        assert!(max_imbalance(&g, &large, 4) <= max_imbalance(&g, &small, 4) + 1e-9);
    }

    #[test]
    fn multiconstraint_deadband_is_per_constraint() {
        // Two constraints; only the second is imbalanced. The plan must
        // carry flow only in the second constraint's slots.
        let n = 16usize;
        let g = grid_graph(n, n);
        let mut vwgt = vec![0u32; n * n * 2];
        for v in 0..n * n {
            vwgt[v * 2] = 1;
            // Constraint 1 lives in the left 10 columns, reaching across
            // the part boundary at column 8.
            vwgt[v * 2 + 1] = u32::from(v % n < 10);
        }
        let g2 = g.with_vertex_weights(vwgt, 2);
        // Halves: constraint 0 perfectly split, constraint 1 all in part 0.
        let part: Vec<PartId> = (0..n * n).map(|v| PartId::from(v % n >= 8)).collect();
        let cfg = RepartConfig::new(2).with_ub(1.10);
        let (pairs, flow) = diffusion_plan(&g2, &part, &cfg);
        assert!(!pairs.is_empty());
        let c0: i64 = flow.iter().step_by(2).map(|f| f.abs()).sum();
        let c1: i64 = flow.iter().skip(1).step_by(2).map(|f| f.abs()).sum();
        assert_eq!(c0, 0, "balanced constraint must stay in the deadband");
        assert!(c1 > 0, "imbalanced constraint must carry flow");
        let mut moved = part.clone();
        let stats = repartition(&g2, &mut moved, &cfg);
        assert!(stats.cells_moved > 0);
        let imb = constraint_imbalances(&g2, &moved, 2);
        let imb_before = constraint_imbalances(&g2, &part, 2);
        assert!(imb[1] < imb_before[1], "{} -> {}", imb_before[1], imb[1]);
    }

    #[test]
    fn warm_workspace_matches_fresh() {
        let g = grid_graph(20, 20);
        let cfg = RepartConfig::new(4).with_ub(1.05);
        let start = skewed_strips(20);
        let mut ws = PartitionWorkspace::new();
        let mut a = start.clone();
        let sa = repartition_ws(&g, &mut a, &cfg, &mut ws);
        let mut b = start.clone();
        let sb = repartition_ws(&g, &mut b, &cfg, &mut ws);
        let mut c = start.clone();
        let sc = repartition(&g, &mut c, &cfg);
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(sa, sb);
        assert_eq!(sa, sc);
    }

    #[test]
    fn traced_run_emits_repart_counters() {
        let g = grid_graph(20, 20);
        let mut part = skewed_strips(20);
        let rec = Recorder::new(1 << 12);
        let mut ws = PartitionWorkspace::new();
        ws.obs = rec.clone();
        let stats = repartition_ws(&g, &mut part, &RepartConfig::new(4), &mut ws);
        let trace = rec.take();
        assert_eq!(trace.dropped, 0);
        assert!(trace.events.iter().any(|e| e.name == "part.repart"));
        assert_eq!(
            trace.last_counter("part.repart.moves"),
            Some(stats.cells_moved)
        );
        assert_eq!(
            trace.last_counter("part.repart.rounds"),
            Some(u64::from(stats.rounds))
        );
    }

    #[test]
    fn noop_on_single_part() {
        let g = grid_graph(4, 4);
        let mut part = vec![0 as PartId; 16];
        let cfg = RepartConfig::new(1);
        assert_eq!(repartition(&g, &mut part, &cfg), RepartStats::default());
    }

    /// A `24 × 24` grid split into 4 under a column-graded weighting and
    /// handed back with the grading running along the rows instead.
    fn drifted(ncon: usize) -> (CsrGraph, Vec<PartId>) {
        let n = 24usize;
        let g = grid_graph(n, n);
        let weights = |by_row: bool| {
            let mut w = vec![0u32; n * n * ncon];
            for v in 0..n * n {
                let x = if by_row { v / n } else { v % n };
                if ncon == 1 {
                    w[v] = 1 + (x * 4 / n) as u32;
                } else {
                    w[v * ncon + x * ncon / n] = 1;
                }
            }
            w
        };
        let g0 = g.with_vertex_weights(weights(false), ncon);
        let part = partition_graph(&g0, &PartitionConfig::new(4).with_ub(1.05));
        (g.with_vertex_weights(weights(true), ncon), part)
    }

    #[test]
    fn diffusion_plan_is_the_first_round_of_repartition() {
        for ncon in [1usize, 3] {
            let (g, part) = drifted(ncon);
            let mut boundary = std::collections::BTreeSet::new();
            for v in 0..g.nvtx() as u32 {
                for u in g.neighbors(v) {
                    let (pv, pu) = (part[v as usize], part[u as usize]);
                    if pv < pu {
                        boundary.insert((pv, pu));
                    }
                }
            }
            let l1 = |flow: &[i64]| flow.iter().map(|f| f.unsigned_abs()).sum::<u64>();
            let unbounded = l1(&diffusion_plan(&g, &part, &RepartConfig::new(4).with_ub(1.05)).1);
            assert!(unbounded > 8, "ncon={ncon}: drift must plan flow");
            for budget in [None, Some(unbounded / 2)] {
                let mut cfg = RepartConfig::new(4).with_ub(1.05);
                cfg.migration_budget = budget;
                let (pairs, flow) = diffusion_plan(&g, &part, &cfg);
                assert!(pairs.iter().copied().eq(boundary.iter().copied()));
                assert_eq!(flow.len(), pairs.len() * ncon);
                let planned = l1(&flow);
                assert!(planned > 0 && planned <= budget.unwrap_or(u64::MAX));
                // The full run reports the plan of its first round ...
                let stats = repartition(&g, &mut part.clone(), &cfg);
                assert_eq!(stats.planned_flow, planned, "ncon={ncon} budget={budget:?}");
                // ... over the same pair list (one round: the pair counter
                // is that round's).
                cfg.realize_rounds = 1;
                let rec = Recorder::new(1 << 10);
                let mut ws = PartitionWorkspace::new();
                ws.obs = rec.clone();
                let one = repartition_ws(&g, &mut part.clone(), &cfg, &mut ws);
                assert_eq!(one.planned_flow, planned);
                assert_eq!(
                    rec.take().last_counter("part.repart.pairs"),
                    Some(pairs.len() as u64)
                );
            }
        }
    }

    /// The boundary lists by definition: every `(p, q, v)` such that `v`
    /// has a neighbour across the part pair `p < q`, sorted.
    fn lists_by_definition(g: &CsrGraph, part: &[PartId]) -> Vec<(u32, u32, u32)> {
        let mut set = std::collections::BTreeSet::new();
        for v in 0..g.nvtx() as u32 {
            for u in g.neighbors(v) {
                let (a, b) = (part[v as usize], part[u as usize]);
                if a != b {
                    set.insert((a.min(b), a.max(b), v));
                }
            }
        }
        set.into_iter().collect()
    }

    /// A graph of the case: a graded grid (even cases) or a sparse random
    /// graph with isolated vertices (odd cases), under random `ncon`-ary
    /// weights — which the lists must not depend on.
    fn case_graph(case: u64, ncon: usize, rng: &mut Rng) -> CsrGraph {
        let g = if case.is_multiple_of(2) {
            grid_graph(rng.gen_range(5usize..22), rng.gen_range(5usize..22))
        } else {
            let n = rng.gen_range(40usize..260);
            let mut b = GraphBuilder::new(n, 1);
            for _ in 0..rng.gen_range(n / 2..2 * n) {
                let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
                if u != v {
                    b.add_edge(u, v, rng.gen_range(1u32..4));
                }
            }
            b.build()
        };
        let vwgt = (0..g.nvtx() * ncon)
            .map(|_| rng.gen_range(0u32..5))
            .collect();
        g.with_vertex_weights(vwgt, ncon)
    }

    /// Patched ≡ rebuilt, after each of 10 successive move batches per
    /// case: random moves, plus the four shapes a patch can get wrong — a
    /// pair whose boundary empties, a pair that did not exist, a vertex
    /// moved twice in one batch, a part's entire boundary moved at once.
    /// Release-profile test runs have no armed oracle in
    /// [`Boundary::patch`]; this test is their proof.
    #[test]
    fn patched_boundary_lists_equal_the_rebuilt_ones() {
        let (mut emptied, mut created, mut twice, mut whole) = (0, 0, 0, 0);
        for case in 0..36u64 {
            let mut rng = Rng::seed_from_u64(0xB0DA_0000 + case);
            let k = [2usize, 7, 64][case as usize % 3];
            let ncon = [1usize, 3, 4][case as usize / 3 % 3];
            let g = case_graph(case, ncon, &mut rng);
            let n = g.nvtx() as u32;
            let mut part: Vec<PartId> = (0..n).map(|_| rng.gen_range(0..k as u32)).collect();
            let mut boundary = Boundary::default();
            boundary.build(&g, &part, k);
            for batch in 0..10 {
                let before = boundary.cands.pairs.clone();
                let pick = before.get(rng.gen_range(0..before.len().max(1))).copied();
                let mut mv = |part: &mut [PartId], v: u32, to: PartId| {
                    part[v as usize] = to;
                    boundary.moved.push(v);
                };
                let mut expect_gone = None;
                let mut expect_new = None;
                match (batch % 5, pick) {
                    // Part p dissolves into q: the pair's boundary empties.
                    (1, Some((p, q))) => {
                        for v in (0..n)
                            .filter(|&v| part[v as usize] == p)
                            .collect::<Vec<_>>()
                        {
                            mv(&mut part, v, q);
                        }
                        expect_gone = Some((p, q));
                    }
                    // A vertex next to part p hops into a part that p did
                    // not touch: a key the old lists do not carry.
                    (2, Some((p, _))) => {
                        let fresh_q = (0..k as u32)
                            .find(|&x| x != p && !before.contains(&(p.min(x), p.max(x))));
                        let hop = (0..n).find(|&v| {
                            part[v as usize] != p && g.neighbors(v).any(|u| part[u as usize] == p)
                        });
                        if let (Some(x), Some(v)) = (fresh_q, hop) {
                            mv(&mut part, v, x);
                            expect_new = Some((p.min(x), p.max(x)));
                        }
                    }
                    // One vertex moved twice (the second move may undo the
                    // first), among other moves.
                    (3, _) => {
                        let v = rng.gen_range(0..n);
                        mv(&mut part, v, rng.gen_range(0..k as u32));
                        mv(&mut part, rng.gen_range(0..n), rng.gen_range(0..k as u32));
                        mv(&mut part, v, rng.gen_range(0..k as u32));
                        twice += 1;
                    }
                    // The entire boundary of part p crosses over.
                    (4, Some((p, _))) => {
                        let crossing: Vec<(u32, PartId)> = (0..n)
                            .filter(|&v| part[v as usize] == p)
                            .filter_map(|v| {
                                let to = g.neighbors(v).map(|u| part[u as usize]).find(|&x| x != p);
                                to.map(|to| (v, to))
                            })
                            .collect();
                        for (v, to) in crossing {
                            mv(&mut part, v, to);
                        }
                        whole += 1;
                    }
                    _ => {
                        for _ in 0..rng.gen_range(1..12) {
                            mv(&mut part, rng.gen_range(0..n), rng.gen_range(0..k as u32));
                        }
                    }
                }
                boundary.patch(&g, &part, k);

                let mut rebuilt = Boundary::default();
                rebuilt.build(&g, &part, k);
                assert!(
                    boundary.cands == rebuilt.cands,
                    "case {case} batch {batch}: patched lists differ from rebuilt"
                );
                let cands = &boundary.cands;
                let mut flat = Vec::new();
                for (pi, &(p, q)) in cands.pairs.iter().enumerate() {
                    for &(b, v) in cands.of(pi) {
                        let a = part[v as usize];
                        assert_eq!((a.min(b), a.max(b)), (p, q), "entry under a foreign key");
                        flat.push((p, q, v));
                    }
                }
                assert_eq!(
                    flat,
                    lists_by_definition(&g, &part),
                    "case {case} batch {batch}"
                );
                if let Some(key) = expect_gone {
                    assert!(!cands.pairs.contains(&key));
                    emptied += 1;
                }
                if let Some(key) = expect_new {
                    assert!(cands.pairs.contains(&key));
                    created += 1;
                }
            }
        }
        // Every shape occurred, not just compiled.
        assert!(emptied >= 8 && created >= 8 && twice >= 8 && whole >= 8);
    }

    /// The realizability oracle: one pass over every candidate entry. Bit 0
    /// of `(pair, c)` is set when some candidate on the pair's `p` side
    /// carries weight in `c` (a `p → q` move of `c` is possible), bit 1 for
    /// the `q` side.
    fn realizable_mask(graph: &CsrGraph, part: &[PartId], cands: &Candidates, out: &mut Vec<u8>) {
        let ncon = graph.ncon();
        out.clear();
        out.resize(cands.pairs.len() * ncon, 0);
        for (pi, &(p, _)) in cands.pairs.iter().enumerate() {
            for &(_, v) in cands.of(pi) {
                let side = if part[v as usize] == p { 1u8 } else { 2u8 };
                for (c, &w) in graph.vertex_weights(v).iter().enumerate() {
                    if w > 0 {
                        out[pi * ncon + c] |= side;
                    }
                }
            }
        }
    }

    /// [`PairIndex`] from the oracles: the mask, and the all-pairs scan for
    /// a part's incident pairs. Counts the realizability questions asked.
    struct Oracle {
        pairs: Vec<(u32, u32)>,
        mask: Vec<u8>,
        ncon: usize,
        scan: Vec<u32>,
        asked: u64,
    }

    impl PairIndex for Oracle {
        fn incident(&mut self, p: usize) -> &[u32] {
            self.scan.clear();
            for (e, &(a, b)) in self.pairs.iter().enumerate() {
                if a as usize == p || b as usize == p {
                    self.scan.push(e as u32);
                }
            }
            &self.scan
        }

        fn realizable(&mut self, e: usize, c: usize, side: u8) -> bool {
            self.asked += 1;
            self.mask[e * self.ncon + c] & side != 0
        }
    }

    /// A grid partitioned under unit weights, then given one-hot weights in
    /// which the constraints above 0 are rare — about one or two cells per
    /// part, scattered — so their surpluses are sub-cell and promotion runs,
    /// and many pairs have no such cell on one side.
    fn one_hot_case(case: u64, rng: &mut Rng) -> (CsrGraph, Vec<PartId>, usize) {
        let k = [4usize, 8, 13, 16][case as usize % 4];
        let ncon = [2usize, 3, 4][case as usize / 4 % 3];
        let g = grid_graph(rng.gen_range(12usize..28), rng.gen_range(12usize..28));
        let part = partition_graph(&g, &PartitionConfig::new(k));
        let n = g.nvtx();
        let mut vwgt = vec![0u32; n * ncon];
        for v in 0..n {
            let c = if rng.gen_range(0..n) < 3 * k / 2 * (ncon - 1) {
                rng.gen_range(1..ncon)
            } else {
                0
            };
            vwgt[v * ncon + c] = 1;
        }
        (g.with_vertex_weights(vwgt, ncon), part, k)
    }

    /// On-demand realizability and the incident-pair walk against their
    /// whole-boundary oracles: every answer, asked in random order and
    /// again from the memo, is the mask bit; every part's incident pairs
    /// are the all-pairs scan's; and the plan built with the oracles is
    /// [`diffusion_plan`]'s.
    #[test]
    fn on_demand_promotion_index_matches_the_oracles() {
        let mut asked = 0;
        for case in 0..24u64 {
            let mut rng = Rng::seed_from_u64(0x0DD5_0000 + case);
            let (g, part, k) = one_hot_case(case, &mut rng);
            let ncon = g.ncon();
            let cfg = RepartConfig::new(k);
            let mut ws = PartitionWorkspace::new();
            let mut plan = RoundPlan::begin(&g, &part, &cfg, &mut ws);
            let cands = &plan.boundary.cands;
            let mut mask = Vec::new();
            realizable_mask(&g, &part, cands, &mut mask);
            let mut oracle = Oracle {
                pairs: cands.pairs.clone(),
                mask,
                ncon,
                scan: Vec::new(),
                asked: 0,
            };
            let mut on_demand = OnDemand {
                graph: &g,
                part: &part,
                cands,
                k,
                scratch: &mut plan.promotion,
                ready: false,
            };
            for p in 0..k {
                assert_eq!(
                    on_demand.incident(p),
                    oracle.incident(p),
                    "case {case} part {p}"
                );
            }
            let slots = oracle.mask.len();
            let mut ask = |e: usize, c: usize, side: u8| {
                let want = oracle.mask[e * ncon + c] & side != 0;
                let got = on_demand.realizable(e, c, side);
                assert_eq!(got, want, "case {case} pair {e} constraint {c} side {side}");
            };
            for _ in 0..2 * slots {
                let (e, c) = (rng.gen_range(0..slots / ncon), rng.gen_range(0..ncon));
                ask(e, c, rng.gen_range(1u8..3));
            }
            for e in 0..slots / ncon {
                for c in 0..ncon {
                    ask(e, c, 1);
                    ask(e, c, 2);
                }
            }
            let (pw, tot) = (&ws.kw_pw, &ws.kw_tot);
            diffusion_flows(
                &mut plan.solve,
                &cands.pairs,
                &plan.allow,
                pw,
                tot,
                &cfg,
                &mut oracle,
            );
            let (pairs, flow) = diffusion_plan(&g, &part, &cfg);
            assert_eq!(pairs, oracle.pairs);
            assert_eq!(flow, plan.solve.flow, "case {case}");
            asked += oracle.asked;
        }
        // Promotion ran, not just compiled.
        assert!(asked >= 200, "promotion asked only {asked} questions");
    }

    #[test]
    #[should_panic(expected = "part vector has 15 entries for a graph of 16 vertices")]
    fn repartition_rejects_short_part_vector() {
        repartition(&grid_graph(4, 4), &mut [0; 15], &RepartConfig::new(2));
    }

    #[test]
    #[should_panic(expected = "part[5] = 2 is not a part id below nparts = 2")]
    fn repartition_rejects_out_of_range_part_id() {
        let mut part = vec![0 as PartId; 16];
        part[5] = 2;
        repartition(&grid_graph(4, 4), &mut part, &RepartConfig::new(2));
    }

    #[test]
    #[should_panic(expected = "part vector has 15 entries for a graph of 16 vertices")]
    fn diffusion_plan_rejects_short_part_vector() {
        diffusion_plan(&grid_graph(4, 4), &[0; 15], &RepartConfig::new(2));
    }

    #[test]
    #[should_panic(expected = "part[5] = 2 is not a part id below nparts = 2")]
    fn diffusion_plan_rejects_out_of_range_part_id() {
        let mut part = vec![0 as PartId; 16];
        part[5] = 2;
        diffusion_plan(&grid_graph(4, 4), &part, &RepartConfig::new(2));
    }

    #[test]
    #[should_panic(expected = "nparts must be at least 1")]
    fn repartition_rejects_zero_parts() {
        repartition(&grid_graph(4, 4), &mut [0; 16], &RepartConfig::new(0));
    }

    #[test]
    #[should_panic(expected = "imbalance tolerances must be >= 1.0")]
    fn repartition_rejects_a_tolerance_below_one() {
        let cfg = RepartConfig::new(2).with_ub(0.99);
        repartition(&grid_graph(4, 4), &mut [0; 16], &cfg);
    }

    #[test]
    #[should_panic(expected = "nparts must be at least 1")]
    fn diffusion_plan_rejects_zero_parts() {
        diffusion_plan(&grid_graph(4, 4), &[0; 16], &RepartConfig::new(0));
    }

    #[test]
    #[should_panic(expected = "imbalance tolerances must be >= 1.0")]
    fn diffusion_plan_rejects_a_tolerance_below_one() {
        let cfg = RepartConfig::new(2).with_ub(0.99);
        diffusion_plan(&grid_graph(4, 4), &[0; 16], &cfg);
    }
}
