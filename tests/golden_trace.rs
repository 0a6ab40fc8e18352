//! Golden Chrome-trace schema test: the virtual-domain export of a traced
//! graded-CYLINDER pipeline run is pinned by an FNV-1a fingerprint of the
//! exported JSON bytes, and every event — in both the pinned virtual export
//! and the full two-domain export — must pass the in-tree schema checker.
//!
//! The virtual timeline (FLUSIM cost units) is a pure function of
//! `(mesh, PipelineConfig)`: partitioning, task-graph generation and the
//! discrete-event schedule are all seeded-deterministic, and the exporter
//! writes fields in a fixed order. So the JSON is byte-identical across
//! runs and the fingerprint below holds forever — unless an event field,
//! the emission order, or the export format changes, which is exactly what
//! this test is meant to catch. Re-derive the constant with the printed
//! value and justify the change in the commit if a legitimate format or
//! semantics change ever breaks it.

use tempart::core_api::{run_flusim_with, Exec, PartitionStrategy, PipelineConfig, WorkspacePool};
use tempart::flusim::{ClusterConfig, DynamicListStrategy};
use tempart::mesh::{cylinder_like, GeneratorConfig};
use tempart::obs::{export, fnv1a, schema, Clock, Recorder};

fn traced_cylinder_run() -> (tempart::obs::Trace, tempart::core_api::FlusimOutcome) {
    let mesh = cylinder_like(&GeneratorConfig { base_depth: 3 });
    let cfg = PipelineConfig {
        strategy: PartitionStrategy::McTl,
        n_domains: 16,
        cluster: ClusterConfig::new(4, 2),
        scheduling: DynamicListStrategy::EAGER_FIFO,
        seed: 42,
    };
    let rec = Recorder::new(1 << 16);
    let pool = WorkspacePool::new(1);
    let out = run_flusim_with(&mesh, &cfg, None, &Exec::new(1, &pool, &rec))
        .expect("free communication is valid");
    let trace = rec.take();
    assert_eq!(trace.dropped, 0, "trace must be loss-free to be golden");
    (trace, out)
}

#[test]
fn virtual_export_matches_pinned_fingerprint() {
    let (trace, out) = traced_cylinder_run();
    let json = export::chrome_trace_filtered(&trace, Some(Clock::Virtual));

    // Every exported event validates against the Chrome-trace schema.
    let summary = schema::check_chrome_trace(&json).expect("virtual export must be schema-valid");
    // One `X` event per executed task plus the `B`/`E` pair of the
    // `flusim.run` span; `C` samples for cores, busy, active and the
    // per-subiteration work series.
    assert_eq!(summary.by_phase.get("X").copied(), Some(out.graph.len()));
    assert_eq!(summary.by_phase.get("B").copied(), Some(1));
    assert_eq!(summary.by_phase.get("E").copied(), Some(1));
    let counters = summary.by_phase.get("C").copied().unwrap_or(0);
    let np = 4usize; // ClusterConfig::new(4, 2) below
    assert_eq!(
        counters,
        np * (3 + out.graph.n_subiterations as usize),
        "cores + busy + active + subiter_work samples per process"
    );
    assert_eq!(
        summary.events,
        out.graph.len() + 2 + counters,
        "no unexpected virtual events"
    );

    // The golden fingerprint: byte-identity of the deterministic timeline.
    let fp = fnv1a(json.as_bytes());
    assert_eq!(
        fp, GOLDEN_FNV1A,
        "virtual Chrome-trace bytes diverged from the pinned export \
         (got 0x{fp:016X}; if the change is deliberate, re-pin and justify)"
    );

    // Same pipeline, fresh recorder: byte-identical JSON, not merely an
    // equal fingerprint.
    let (trace2, _) = traced_cylinder_run();
    let json2 = export::chrome_trace_filtered(&trace2, Some(Clock::Virtual));
    assert_eq!(
        json, json2,
        "virtual export must be byte-stable across runs"
    );
}

/// FNV-1a of the virtual-domain Chrome-trace JSON for the graded CYLINDER
/// (base depth 3), MC_TL, 16 domains, 4×2 cluster, EagerFifo, seed 42.
/// The export numbers `seq` within the virtual lane, so the wall spans of
/// the partitioner and the pipeline do not move it.
const GOLDEN_FNV1A: u64 = 0xDF61_DDC2_EEE9_4684;

#[test]
fn full_export_is_schema_valid_and_two_lane() {
    let (trace, _) = traced_cylinder_run();
    let json = export::chrome_trace(&trace);
    let summary = schema::check_chrome_trace(&json).expect("full export must be schema-valid");
    assert_eq!(summary.events, trace.events.len());
    // Wall lane (partitioner/pipeline spans) and virtual lane (FLUSIM)
    // are both present and strictly separated by pid.
    assert!(json.contains("\"name\":\"core.pipeline\",\"ph\":\"B\",\"pid\":0"));
    assert!(json.contains("\"name\":\"flusim.task\",\"ph\":\"X\",\"pid\":1"));
}
