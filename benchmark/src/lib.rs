#![warn(missing_docs)]
//! The repo benchmark: mesh → partition → task graph → FLUSIM, measured end
//! to end and layer by layer.
//!
//! `BENCHMARK.json` at the repo root is the contract (command, workloads,
//! metric names, units, bounds); `README.md` beside this crate defines every
//! metric and says which layer should move which end-to-end number. The
//! crate only ever *calls* the workspace's public functions — it adds no
//! span, counter or code path to any crate under `crates/`.
//!
//! Two binaries share this library: `tempart-benchmark` (end-to-end metrics,
//! and the all-workloads suite) and `tempart-benchmark-traced` (per-layer
//! metrics; installs the counting allocator). `run.sh` builds both and picks
//! by `--trace`.

pub mod cli;
pub mod e2e;
pub mod fixtures;
pub mod ledger;
pub mod oracle;
pub mod report;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod suite;

use report::{num, obj, print_metrics, result_value};
use spec::{Workload, END_TO_END, PER_LAYER, WORKLOADS};
use std::process::ExitCode;
use std::time::Instant;
use tempart_obs::json::write;

/// Prefix of the machine-readable line a single-workload run prints just
/// before its result line: sample counts and stage table for the suite.
pub const DETAIL_PREFIX: &str = "detail ";

/// Entry point of both binaries. `counting_allocator` says whether the
/// calling binary installed `testkit::alloc::CountingAllocator`.
pub fn main_with(counting_allocator: bool) -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let Some(name) = &args.workload else {
        if counting_allocator {
            eprintln!("error: the suite runs from tempart-benchmark (use run.sh)");
            return ExitCode::from(2);
        }
        return suite::run(&args);
    };
    let Some(workload) = Workload::by_name(name) else {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "error: unknown workload {name:?}; known: {}",
            known.join(", ")
        );
        return ExitCode::from(2);
    };
    if args.trace != counting_allocator {
        // Allocation counts must never tax the timed run, and must be real
        // in the traced one.
        eprintln!(
            "error: --trace {} belongs to the other binary (use run.sh)",
            u8::from(args.trace)
        );
        return ExitCode::from(2);
    }
    single(workload, &args)
}

/// Runs one workload in this process and prints its summary, a detail line
/// and — last — the result line.
fn single(w: &Workload, args: &cli::Args) -> ExitCode {
    let started = Instant::now();
    let (seed, seconds) = (args.seed, args.seconds());
    println!(
        "== {} · {} · seed {seed:#x} · {seconds} s{}",
        w.name,
        if args.trace {
            "traced (per-layer)"
        } else {
            "untraced (end-to-end)"
        },
        if args.quick { " · quick" } else { "" },
    );
    let (tally, spec, measured, detail) = if args.trace {
        let t = ledger::run(w, seed, seconds, args.quick, &args.dir.join("out"));
        let op = t.metrics["core.onecall_s"];
        println!("  staged operation, median per stage (share of the one-call {op:.6} s):");
        for (stage, s) in &t.stages {
            println!("    {stage:<30} {s:>12.6} s {:>6.1} %", 100.0 * s / op);
        }
        let rest = t.metrics["core.unattributed_frac"];
        println!(
            "    {:<30} {:>12.6} s {:>6.1} %{}",
            "(unattributed)",
            rest * op,
            100.0 * rest,
            if rest.abs() > 0.05 {
                "   <-- above 5 %: a stage is missing"
            } else {
                ""
            }
        );
        println!(
            "  _w2 variants ran {} wide; calib.stream_s sums {} MiB",
            t.par_width,
            t.stream_bytes >> 20
        );
        let detail = vec![
            ("stages", obj(t.stages.iter().map(|&(k, v)| (k, num(v))))),
            ("par_width", num(t.par_width as f64)),
            ("stream_bytes", num(t.stream_bytes as f64)),
        ];
        (t.tally, PER_LAYER, t.metrics, detail)
    } else {
        let e = e2e::run(w, seed, seconds, args.quick);
        let measured = e.metrics();
        println!(
            "  {} cells; {} set-ups, {} timed operations over a panel of {}; {:.0} cells/s",
            e.cells,
            e.setup_s.len(),
            e.op_s.len(),
            e.quality.len(),
            e.cells as f64 / measured["op_s_p50"],
        );
        let detail = vec![
            ("cells", num(e.cells as f64)),
            ("setup_samples", num(e.setup_s.len() as f64)),
            ("op_samples", num(e.op_s.len() as f64)),
            ("panel", num(e.quality.len() as f64)),
            ("empty_part_ops", num(e.tally.empty_part_ops as f64)),
        ];
        (e.tally, END_TO_END, measured, detail)
    };
    print_metrics(&tally, spec, &measured);
    let wall = ("wall_s", num(started.elapsed().as_secs_f64()));
    println!(
        "{DETAIL_PREFIX}{}",
        write(&obj(detail.into_iter().chain([wall])))
    );
    println!("{}", write(&result_value(&tally, spec, &measured)));
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
