//! Deterministic network model: per-process-pair links, halo-derived
//! message sizes and NIC-channel transfer scheduling.
//!
//! The paper's FLUSIM deliberately models zero communication; this module
//! makes the edge cut of a decomposition cost something. A cross-process
//! dependency edge becomes an inbound *transfer* on the destination
//! process: it occupies one NIC channel for
//! `latency + bytes × cost_per_byte` cost units (store-and-forward, not
//! pipelined), overlaps freely with unrelated compute on the same process,
//! and gates only the waiting task's readiness.
//!
//! There is one message-size rule: the bytes two *domains* exchange are
//! their shared interface faces times a per-face payload ([`HaloBytes`]).
//! A topology preset carries no sizes of its own; the decomposition that
//! produced the task graph supplies them ([`NetworkModel::with_halo`]), and
//! [`NetworkModel::validate`] refuses a model whose table belongs to
//! another decomposition.
//!
//! Everything is a pure function of its inputs — no clocks, no randomness —
//! so network-mode simulations stay bit-identical at every worker count.

use tempart_taskgraph::{DomainDecomposition, TaskGraph, TaskId};

/// `channels` value meaning a process can receive any number of transfers
/// concurrently — no inbound NIC contention.
pub const UNBOUNDED_CHANNELS: usize = usize::MAX;

/// One directed link: a fixed wire latency plus a per-byte serialization
/// cost (the inverse bandwidth).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// Fixed per-message delay, in cost units.
    pub latency: u64,
    /// Cost per transferred byte, in cost units — the inverse bandwidth
    /// (`0` = infinite bandwidth).
    pub cost_per_byte: u64,
}

impl Link {
    /// A link that costs nothing.
    pub const FREE: Link = Link {
        latency: 0,
        cost_per_byte: 0,
    };

    /// Store-and-forward duration of one `bytes`-sized message. Plain `u64`
    /// arithmetic: [`NetworkModel::validate`] bounds every duration of a
    /// simulation up front, so the event loop pays no checked operation
    /// per transfer.
    pub fn duration(&self, bytes: u64) -> u64 {
        self.latency + bytes * self.cost_per_byte
    }
}

/// Which link each ordered process pair uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Topology {
    /// Every pair of distinct processes uses the same link.
    Uniform(Link),
    /// Processes are packed onto nodes of `procs_per_node` consecutive
    /// ranks: pairs on the same node use `intra`, pairs on different nodes
    /// use `inter`.
    TwoLevel {
        /// Consecutive ranks per node (≥ 1).
        procs_per_node: usize,
        /// Link between processes on the same node.
        intra: Link,
        /// Link between processes on different nodes.
        inter: Link,
    },
}

impl Topology {
    /// The link a message from `src` to `dst` travels over.
    pub fn link(&self, src: usize, dst: usize) -> Link {
        match self {
            Topology::Uniform(l) => *l,
            Topology::TwoLevel {
                procs_per_node,
                intra,
                inter,
            } => {
                if src / procs_per_node == dst / procs_per_node {
                    *intra
                } else {
                    *inter
                }
            }
        }
    }

    /// Component-wise maximum over every link of the topology — an upper
    /// bound on the duration any pair can charge for a message.
    fn worst_link(&self) -> Link {
        let links: &[Link] = match self {
            Topology::Uniform(l) => std::slice::from_ref(l),
            Topology::TwoLevel { intra, inter, .. } => &[*intra, *inter],
        };
        links.iter().fold(Link::FREE, |w, l| Link {
            latency: w.latency.max(l.latency),
            cost_per_byte: w.cost_per_byte.max(l.cost_per_byte),
        })
    }
}

/// Per-domain-pair message sizes derived from the halo edge cut of a
/// [`DomainDecomposition`] (CSR over the sorted neighbour lists): the bytes
/// between two *domains* are their shared interface faces times a per-face
/// payload. A cross-process edge between tasks of the *same* domain, or of
/// two domains that share no face, carries nothing — and zero-byte messages
/// are never sent: they cost nothing and occupy no channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HaloBytes {
    offsets: Vec<u32>,
    neighbor: Vec<u32>,
    bytes: Vec<u64>,
}

impl HaloBytes {
    /// Sizes from a decomposition: domain pair `(a, b)` exchanges
    /// `halo_faces_between(a, b) × payload_per_face` bytes.
    pub fn from_decomposition(dd: &DomainDecomposition, payload_per_face: u64) -> Self {
        let mut offsets = Vec::with_capacity(dd.n_domains + 1);
        let mut neighbor = Vec::new();
        let mut bytes = Vec::new();
        offsets.push(0u32);
        for d in 0..dd.n_domains as u32 {
            for (n, faces) in dd.halo_of(d) {
                neighbor.push(n);
                bytes.push(u64::from(faces) * payload_per_face);
            }
            offsets.push(neighbor.len() as u32);
        }
        Self {
            offsets,
            neighbor,
            bytes,
        }
    }

    /// Sizes from explicit symmetric `(domain_a, domain_b, bytes)` pairs —
    /// handy for synthetic task graphs that have no mesh behind them.
    ///
    /// # Panics
    ///
    /// Panics if a pair is listed twice or connects a domain to itself.
    pub fn from_pairs(n_domains: usize, pairs: &[(u32, u32, u64)]) -> Self {
        let mut rows: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n_domains];
        for &(a, b, sz) in pairs {
            assert_ne!(a, b, "a domain has no halo with itself");
            rows[a as usize].push((b, sz));
            rows[b as usize].push((a, sz));
        }
        let mut offsets = Vec::with_capacity(n_domains + 1);
        let mut neighbor = Vec::new();
        let mut bytes = Vec::new();
        offsets.push(0u32);
        for mut row in rows {
            row.sort_unstable_by_key(|&(n, _)| n);
            for w in row.windows(2) {
                assert_ne!(w[0].0, w[1].0, "duplicate domain pair");
            }
            for (n, sz) in row {
                neighbor.push(n);
                bytes.push(sz);
            }
            offsets.push(neighbor.len() as u32);
        }
        Self {
            offsets,
            neighbor,
            bytes,
        }
    }

    /// Number of domains the table covers.
    fn n_domains(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Index range of domain `a`'s row in `neighbor` / `bytes`.
    fn row(&self, a: u32) -> std::ops::Range<usize> {
        self.offsets[a as usize] as usize..self.offsets[a as usize + 1] as usize
    }

    /// Bytes of one halo message between domains `a` and `b` (0 when not
    /// adjacent or equal).
    pub fn between(&self, a: u32, b: u32) -> u64 {
        let row = self.row(a);
        match self.neighbor[row.clone()].binary_search(&b) {
            Ok(i) => self.bytes[row.start + i],
            Err(_) => 0,
        }
    }

    /// Message bytes of every dependency edge of `graph`, task by task in
    /// id order and in [`TaskGraph::succs`] order within a task — edge by
    /// edge what [`NetworkModel::message_bytes`] gives, without a binary
    /// search per edge. The sender's halo row is scattered into a dense
    /// `n_domains` row (a domain is never its own neighbour, so the
    /// same-domain entry stays 0) and re-scattered only when the sender's
    /// domain changes; clearing the old row first keeps every non-adjacent
    /// entry 0. Requires the table to cover `graph`'s domains
    /// ([`NetworkModel::validate`]).
    pub(crate) fn edge_bytes(&self, graph: &TaskGraph) -> Vec<u64> {
        let mut dense = vec![0u64; self.n_domains()];
        let mut loaded: Option<u32> = None;
        let mut bytes = Vec::with_capacity(graph.n_edges());
        for t in 0..graph.len() as TaskId {
            let d = graph.task(t).domain;
            if loaded != Some(d) {
                if let Some(old) = loaded {
                    for &n in &self.neighbor[self.row(old)] {
                        dense[n as usize] = 0;
                    }
                }
                for i in self.row(d) {
                    dense[self.neighbor[i] as usize] = self.bytes[i];
                }
                loaded = Some(d);
            }
            bytes.extend(
                graph
                    .succs(t)
                    .iter()
                    .map(|&s| dense[graph.task(s).domain as usize]),
            );
        }
        bytes
    }
}

/// The deterministic network model the event loop prices transfers with:
/// a topology (who is far from whom), a per-process inbound channel budget
/// and the halo byte table of the decomposition being simulated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkModel {
    /// Per-process-pair links.
    pub topology: Topology,
    /// Inbound NIC channels per process — concurrent transfers beyond this
    /// queue on the earliest-free channel. [`UNBOUNDED_CHANNELS`] disables
    /// contention entirely.
    pub channels: usize,
    /// Message bytes per domain pair. The constructors leave it covering no
    /// domain; [`Self::with_halo`] fills it from a decomposition.
    pub sizes: HaloBytes,
}

impl NetworkModel {
    /// A uniform topology with `channels` inbound channels per process and
    /// no message sizes yet (attach them with [`Self::with_halo`]).
    pub fn uniform(link: Link, channels: usize) -> Self {
        Self {
            topology: Topology::Uniform(link),
            channels,
            sizes: HaloBytes::from_pairs(0, &[]),
        }
    }

    /// A two-level node/cluster topology (see [`Topology::TwoLevel`]), no
    /// message sizes yet.
    pub fn two_level(procs_per_node: usize, intra: Link, inter: Link, channels: usize) -> Self {
        Self {
            topology: Topology::TwoLevel {
                procs_per_node,
                intra,
                inter,
            },
            channels,
            sizes: HaloBytes::from_pairs(0, &[]),
        }
    }

    /// The zero-cost network: free links, no contention. Simulating under
    /// this model reproduces the no-comm schedules bit for bit (transfers
    /// of zero duration never delay readiness).
    pub fn zero_cost() -> Self {
        Self::uniform(Link::FREE, UNBOUNDED_CHANNELS)
    }

    /// Sets the message sizes to the halo exchanges of `dd` at
    /// `payload_per_face` bytes per shared interface face.
    pub fn with_halo(mut self, dd: &DomainDecomposition, payload_per_face: u64) -> Self {
        self.sizes = HaloBytes::from_decomposition(dd, payload_per_face);
        self
    }

    /// Bytes of the message for dependency edge `t → s` (0 = no message).
    pub fn message_bytes(&self, graph: &TaskGraph, t: TaskId, s: TaskId) -> u64 {
        self.sizes
            .between(graph.task(t).domain, graph.task(s).domain)
    }

    /// Checks the model can price `graph`: at least one channel, a non-empty
    /// node, message sizes for exactly the graph's domains — and no
    /// simulated instant or [`NetStats`](tempart_obs::replay::NetStats) sum
    /// can overflow `u64`.
    ///
    /// The overflow bound is one `u128` product per simulation, not a
    /// checked operation per transfer. Every instant of a schedule is
    /// reached by a chain of task costs and transfer durations that uses
    /// each task and each edge at most once, so
    /// `total cost + edges × (worst latency + worst message × worst
    /// cost_per_byte)` bounds them all (and every per-process sum of
    /// durations); `edges × worst message` bounds the byte counters.
    pub fn validate(&self, graph: &TaskGraph) -> Result<(), String> {
        if self.channels == 0 {
            return Err("a process needs at least one NIC channel".into());
        }
        if let Topology::TwoLevel {
            procs_per_node: 0, ..
        } = self.topology
        {
            return Err("a node holds at least one process".into());
        }
        if self.sizes.n_domains() != graph.n_domains {
            return Err(format!(
                "message sizes cover {} domains, the task graph has {}: attach the \
                 decomposition's halo table with NetworkModel::with_halo",
                self.sizes.n_domains(),
                graph.n_domains
            ));
        }
        let worst_message = u128::from(self.sizes.bytes.iter().copied().max().unwrap_or(0));
        let link = self.topology.worst_link();
        let edges = graph.n_edges() as u128;
        // `worst_message × cost_per_byte + latency` fits u128 (two u64
        // factors); only the per-edge multiplication can saturate.
        let worst_duration =
            worst_message * u128::from(link.cost_per_byte) + u128::from(link.latency);
        let total_cost: u128 = graph.tasks().iter().map(|t| u128::from(t.cost)).sum();
        let horizon = edges
            .saturating_mul(worst_duration)
            .saturating_add(total_cost);
        let limit = u128::from(u64::MAX);
        if horizon > limit || edges * worst_message > limit {
            return Err(format!(
                "network model overflows the simulated clock: {edges} edges of up to \
                 {worst_message} bytes at latency {} and {} per byte on top of {total_cost} \
                 cost units of compute exceed u64",
                link.latency, link.cost_per_byte
            ));
        }
        Ok(())
    }
}

/// One inbound transfer scheduled on a destination NIC channel — the
/// communication counterpart of a Gantt [`crate::trace::Segment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferSegment {
    /// The waiting (successor) task the message unblocks.
    pub task: TaskId,
    /// Sending process (where the predecessor executed).
    pub src: u32,
    /// Receiving process (the successor's home).
    pub dst: u32,
    /// NIC channel index on the destination (always 0 under
    /// [`UNBOUNDED_CHANNELS`]).
    pub channel: u32,
    /// Transfer start, in cost units.
    pub start: u64,
    /// Transfer end — the delivery instant the successor may start at.
    pub end: u64,
    /// Message size in bytes.
    pub bytes: u64,
}

/// Parses a `--net` CLI preset into a [`NetworkModel`] without message
/// sizes; pipeline entry points attach the halo sizes of the decomposition
/// they build.
///
/// Grammar (all numeric fields optional, colon-separated):
///
/// * `zero` — the zero-cost network;
/// * `uniform[:LAT[:CPB[:CH]]]` — uniform links, default `200:2:2`;
/// * `two-level[:LAT[:CPB[:PPN[:CH]]]]` — `LAT`/`CPB` describe the
///   *inter-node* link, the intra-node link is 10× lower latency and half
///   the per-byte cost; default `400:2:4:2` (4 processes per node).
///
/// `CH` must be at least 1; `18446744073709551615` (`u64::MAX`) selects
/// [`UNBOUNDED_CHANNELS`]. `PPN` must be at least 1.
pub fn parse_preset(s: &str) -> Result<NetworkModel, String> {
    let mut fields = s.split(':');
    let kind = fields.next().unwrap_or("");
    let mut num = |default: u64| -> Result<u64, String> {
        match fields.next() {
            None | Some("") => Ok(default),
            Some(f) => f.parse().map_err(|_| format!("bad --net field {f:?}")),
        }
    };
    let channels = |c: u64| -> Result<usize, String> {
        match c {
            0 => Err("--net needs at least one channel (CH >= 1)".into()),
            u64::MAX => Ok(UNBOUNDED_CHANNELS),
            c => Ok(c as usize),
        }
    };
    let model = match kind {
        "zero" => NetworkModel::zero_cost(),
        "uniform" => {
            let lat = num(200)?;
            let cpb = num(2)?;
            let ch = num(2)?;
            NetworkModel::uniform(
                Link {
                    latency: lat,
                    cost_per_byte: cpb,
                },
                channels(ch)?,
            )
        }
        "two-level" => {
            let lat = num(400)?;
            let cpb = num(2)?;
            let ppn = num(4)?;
            let ch = num(2)?;
            if ppn == 0 {
                return Err(
                    "--net two-level needs at least one process per node (PPN >= 1)".into(),
                );
            }
            NetworkModel::two_level(
                ppn as usize,
                Link {
                    latency: lat / 10,
                    cost_per_byte: cpb / 2,
                },
                Link {
                    latency: lat,
                    cost_per_byte: cpb,
                },
                channels(ch)?,
            )
        }
        other => return Err(format!("unknown --net preset {other:?}")),
    };
    if let Some(extra) = fields.next() {
        return Err(format!("trailing --net field {extra:?}"));
    }
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_duration_is_latency_plus_serialization() {
        let l = Link {
            latency: 10,
            cost_per_byte: 3,
        };
        assert_eq!(l.duration(0), 10);
        assert_eq!(l.duration(4), 22);
        assert_eq!(Link::FREE.duration(1000), 0);
    }

    #[test]
    fn two_level_topology_distinguishes_nodes() {
        let intra = Link {
            latency: 5,
            cost_per_byte: 1,
        };
        let inter = Link {
            latency: 50,
            cost_per_byte: 4,
        };
        let t = Topology::TwoLevel {
            procs_per_node: 2,
            intra,
            inter,
        };
        assert_eq!(t.link(0, 1), intra);
        assert_eq!(t.link(2, 3), intra);
        assert_eq!(t.link(1, 2), inter);
        assert_eq!(t.link(0, 3), inter);
    }

    #[test]
    fn halo_bytes_from_pairs_is_symmetric() {
        let h = HaloBytes::from_pairs(4, &[(0, 1, 640), (1, 2, 320)]);
        assert_eq!(h.between(0, 1), 640);
        assert_eq!(h.between(1, 0), 640);
        assert_eq!(h.between(1, 2), 320);
        assert_eq!(h.between(0, 2), 0, "non-adjacent pair is free");
        assert_eq!(h.between(3, 0), 0, "isolated domain");
        assert_eq!(h.between(2, 2), 0, "no self-halo");
    }

    #[test]
    fn preset_grammar() {
        assert_eq!(parse_preset("zero").unwrap(), NetworkModel::zero_cost());
        let u = parse_preset("uniform").unwrap();
        assert_eq!(
            u.topology,
            Topology::Uniform(Link {
                latency: 200,
                cost_per_byte: 2
            })
        );
        assert_eq!(u.channels, 2);
        let u = parse_preset("uniform:500:0:1").unwrap();
        assert_eq!(
            u.topology,
            Topology::Uniform(Link {
                latency: 500,
                cost_per_byte: 0
            })
        );
        assert_eq!(u.channels, 1);
        let t = parse_preset("two-level:400:2:4:2").unwrap();
        assert_eq!(
            t.topology,
            Topology::TwoLevel {
                procs_per_node: 4,
                intra: Link {
                    latency: 40,
                    cost_per_byte: 1
                },
                inter: Link {
                    latency: 400,
                    cost_per_byte: 2
                },
            }
        );
        assert_eq!(parse_preset("two-level").unwrap(), t, "defaults match");
        assert!(parse_preset("mesh").is_err());
        assert!(parse_preset("uniform:a").is_err());
        assert!(parse_preset("zero:1").is_err());
        // Values the simulator would otherwise assert on are usage errors.
        assert!(parse_preset("uniform:1:1:0").is_err(), "zero channels");
        assert!(parse_preset("two-level:400:2:0:2").is_err(), "zero PPN");
        assert!(
            parse_preset("two-level:400:2:4:0").is_err(),
            "zero channels"
        );
    }

    /// A two-task chain across two domains: one edge, cost 5 + 3.
    fn chain() -> TaskGraph {
        use tempart_taskgraph::{Task, TaskKind};
        let mk = |domain, cost: u64| Task {
            subiter: 0,
            tau: 0,
            stage: 0,
            domain,
            kind: TaskKind::CellInternal,
            n_objects: cost as u32,
            cost,
        };
        TaskGraph::assemble(vec![mk(0, 5), mk(1, 3)], vec![vec![], vec![0]], 2, 1)
    }

    /// `model` carrying 5 bytes between the chain's two domains.
    fn sized(mut model: NetworkModel) -> NetworkModel {
        model.sizes = HaloBytes::from_pairs(2, &[(0, 1, 5)]);
        model
    }

    #[test]
    fn validate_rejects_inconsistent_models() {
        let g = chain();
        assert!(sized(NetworkModel::zero_cost()).validate(&g).is_ok());
        assert!(sized(NetworkModel::uniform(Link::FREE, 0))
            .validate(&g)
            .is_err());
        assert!(sized(NetworkModel::two_level(0, Link::FREE, Link::FREE, 1))
            .validate(&g)
            .is_err());
        // A preset has no sizes until a decomposition gives it some, and a
        // table of another decomposition does not fit either.
        for table in [0, 3] {
            let mut model = NetworkModel::zero_cost();
            model.sizes = HaloBytes::from_pairs(table, &[]);
            let err = model.validate(&g).unwrap_err();
            assert!(err.contains("with_halo"), "{err}");
        }
    }

    #[test]
    fn validate_bounds_the_simulated_clock() {
        let g = chain();
        let link = |latency, cost_per_byte| Link {
            latency,
            cost_per_byte,
        };
        // One edge of 5 bytes on top of 8 cost units: the horizon is
        // 8 + latency + 5 × cost_per_byte, and must fit u64 exactly.
        let fits = sized(NetworkModel::uniform(link(u64::MAX - 8 - 5, 1), 1));
        assert!(fits.validate(&g).is_ok());
        let over = sized(NetworkModel::uniform(link(u64::MAX - 8 - 4, 1), 1));
        let err = over.validate(&g).unwrap_err();
        assert!(err.contains("overflows the simulated clock"), "{err}");
        assert!(sized(NetworkModel::uniform(link(1, u64::MAX / 2), 1))
            .validate(&g)
            .is_err());
        // The worst link of a two-level topology is what counts.
        assert!(
            sized(NetworkModel::two_level(1, Link::FREE, link(u64::MAX, 0), 1))
                .validate(&g)
                .is_err()
        );
        // The largest entry of the table bounds every message.
        let mut halo = NetworkModel::uniform(link(0, 2), 1);
        let most = (u64::MAX - 8) / 2;
        halo.sizes = HaloBytes::from_pairs(2, &[(0, 1, most)]);
        assert!(halo.validate(&g).is_ok());
        halo.sizes = HaloBytes::from_pairs(2, &[(0, 1, most + 1)]);
        assert!(halo.validate(&g).is_err());
    }
}
