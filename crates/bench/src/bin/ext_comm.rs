//! Extension: sensitivity of the strategies to communication cost.
//!
//! The paper's FLUSIM ignores communication and *expects* most of MC_TL's
//! extra volume to be overlapped by the task-based runtime. This experiment
//! quantifies where that stops being true: sweeping the per-message latency
//! of the network model shows the crossover at which MC_TL's larger cut
//! erodes its balance advantage — and where the §VII dual-phase compromise
//! pays off.
//!
//! The sweep itself is the first-class `tempart_core::comm_crossover`
//! (uniform latency-only links, unbounded channels, halo-derived message
//! sizes — numerically identical to the legacy `CommModel` sweep this
//! binary used to hand-roll).
//!
//! Run: `cargo run -p tempart-bench --release --bin ext_comm [--depth N]`

use tempart_bench::{rule, ExpOptions};
use tempart_core::report::table;
use tempart_core::{comm_crossover, Exec, PartitionStrategy, PipelineConfig, WorkspacePool};
use tempart_flusim::UNBOUNDED_CHANNELS;
use tempart_mesh::MeshCase;
use tempart_obs::Recorder;

fn main() {
    let opts = ExpOptions::from_args();
    let mesh = opts.mesh(MeshCase::Cylinder);
    // 128 domains on the paper's 16 × 32 cluster; the swept strategies
    // replace the config's own.
    let config = PipelineConfig {
        seed: opts.seed,
        ..PipelineConfig::paper_default(PartitionStrategy::McTl, 128)
    };
    let strategies = [
        PartitionStrategy::ScOc,
        PartitionStrategy::McTl,
        PartitionStrategy::DualPhase {
            domains_per_process: 8,
        },
    ];
    println!(
        "{}",
        rule("Extension — makespan vs per-message latency (CYLINDER, 128 dom)")
    );

    let latencies = [0u64, 50, 200, 500, 2000];
    let sweep = comm_crossover(
        &mesh,
        &config,
        &strategies,
        &latencies,
        0,
        UNBOUNDED_CHANNELS,
        &Exec::new(1, &WorkspacePool::new(1), Recorder::off()),
    );

    let rows: Vec<Vec<String>> = sweep
        .rows
        .iter()
        .map(|r| {
            let mut row = vec![r.latency.to_string()];
            row.extend(r.makespans.iter().map(|m| m.to_string()));
            row.push(format!(
                "{:.2}",
                r.makespans[0] as f64 / r.makespans[1] as f64
            ));
            row.push(format!(
                "{:.2}",
                r.makespans[0] as f64 / r.makespans[2] as f64
            ));
            row
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "latency",
                "SC_OC",
                "MC_TL",
                "DUAL_PHASE",
                "MC_TL speedup",
                "DUAL speedup",
            ],
            &rows
        )
    );
    match sweep.crossover_latency(1, 0) {
        Some(lat) => println!("MC_TL falls behind SC_OC at latency {lat} (first swept point)."),
        None => println!("MC_TL holds its advantage across the whole sweep."),
    }
    println!(
        "Expected shape: at zero latency MC_TL wins ~2x; as latency grows its advantage\n\
         shrinks faster than DUAL_PHASE's (fewer cross-process edges), matching the\n\
         paper's motivation for the two-phase variant."
    );
}
