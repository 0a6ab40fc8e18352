//! Extension: contiguity repair of MC_TL domains (the paper's stated future
//! work — "post-processing techniques to minimize the artifacts produced by
//! partitioners when constrained by many criteria").
//!
//! Measures, per mesh: MC_TL's domain fragmentation before/after the repair
//! pass, the edge-cut change, and whether the repaired decomposition keeps
//! MC_TL's makespan advantage.
//!
//! Run: `cargo run -p tempart-bench --release --bin ext_repair [--depth N]`

use tempart_bench::{rule, ExpOptions};
use tempart_core::report::table;
use tempart_core::{decompose, decompose_with_repair, simulate_decomposition, PartitionStrategy};
use tempart_flusim::{ClusterConfig, Strategy};
use tempart_graph::PartitionQuality;
use tempart_mesh::MeshCase;
use tempart_obs::Recorder;

fn main() {
    let opts = ExpOptions::from_args();
    let n_domains = 64;
    let cluster = ClusterConfig::new(16, 8);
    println!(
        "{}",
        rule("Extension — MC_TL contiguity repair (64 domains, 16 proc x 8 cores)")
    );

    let mut rows = Vec::new();
    for case in MeshCase::ALL {
        let mesh = opts.mesh(case);
        let g = mesh.to_graph();

        let raw = decompose(&mesh, PartitionStrategy::McTl, n_domains, opts.seed);
        let q_raw = PartitionQuality::measure(&g, &raw, n_domains);
        let simulate = |part: &[u32]| {
            let fifo = Strategy::EagerFifo;
            simulate_decomposition(&mesh, part, n_domains, &cluster, fifo, Recorder::off()).2
        };
        let sim_raw = simulate(&raw);

        let (fixed, report) = decompose_with_repair(
            &mesh,
            PartitionStrategy::McTl,
            n_domains,
            opts.seed,
            Recorder::off(),
        );
        let q_fixed = PartitionQuality::measure(&g, &fixed, n_domains);
        let sim_fixed = simulate(&fixed);

        rows.push(vec![
            case.name().to_string(),
            format!("{} → {}", q_raw.part_components, q_fixed.part_components),
            report.fragments_moved.to_string(),
            report.vertices_moved.to_string(),
            format!("{} → {}", q_raw.edge_cut, q_fixed.edge_cut),
            format!("{} → {}", sim_raw.makespan, sim_fixed.makespan),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "mesh",
                "components",
                "frags moved",
                "cells moved",
                "edge cut",
                "makespan",
            ],
            &rows
        )
    );
    println!(
        "Expected shape: components drop toward the domain count, the cut shrinks,\n\
         and the makespan stays at MC_TL's level (balance is preserved by the\n\
         repair pass's per-constraint allowance)."
    );
}
