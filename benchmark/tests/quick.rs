//! Runs the whole suite in `--quick` mode and checks what it emits against
//! what `BENCHMARK.json` declares.

use std::path::Path;
use std::process::Command;
use tempart_benchmark::spec::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use tempart_obs::json::{parse, Value};

fn read_json(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn declared<'a>(benchmark: &'a Value, list: &str) -> Vec<(&'a str, &'a str)> {
    benchmark
        .get(list)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Value::as_str).expect("metric name"),
                m.get("unit").and_then(Value::as_str).expect("metric unit"),
            )
        })
        .collect()
}

fn tabled(spec: &[Metric]) -> Vec<(&str, &str)> {
    spec.iter().map(|m| (m.name, m.unit)).collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[test]
fn names_match_benchmark_json() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let benchmark = read_json(&dir.join("../BENCHMARK.json"));
    assert_eq!(declared(&benchmark, "end_to_end"), tabled(END_TO_END));
    assert_eq!(declared(&benchmark, "per_layer"), tabled(PER_LAYER));
    let workloads: Vec<&str> = benchmark
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
        })
        .collect();
    let tabled: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(workloads, tabled);
    let all = workloads
        .iter()
        .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| &m.name));
    let mut seen = std::collections::BTreeSet::new();
    for name in all {
        assert!(well_formed(name), "{name:?} breaks the name syntax");
        assert!(seen.insert(*name), "{name:?} is used twice");
    }
    assert_eq!(
        benchmark.get("run_seconds").and_then(Value::as_num),
        Some(tempart_benchmark::cli::DEFAULT_SECONDS)
    );
}

#[test]
fn quick_suite_reports_every_declared_metric_once() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let status = Command::new(env!("CARGO_BIN_EXE_tempart-benchmark"))
        .arg("--quick")
        .arg("--dir")
        .arg(dir)
        .status()
        .expect("suite binary runs");
    assert!(status.success(), "quick suite exited with {status}");

    let path = dir.join("out/results.json");
    let text = std::fs::read_to_string(&path).expect("suite wrote out/results.json");
    let results = parse(&text).expect("results.json parses");
    assert_eq!(results.get("claim"), Some(&Value::Null));
    let workloads = results
        .get("workloads")
        .and_then(Value::as_obj)
        .expect("workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for w in &WORKLOADS {
        let block = workloads
            .get(w.name)
            .unwrap_or_else(|| panic!("{} is missing", w.name));
        for (group, spec) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let metrics = block
                .get(group)
                .and_then(Value::as_obj)
                .expect("metric group");
            assert_eq!(metrics.len(), spec.len(), "{} {group}", w.name);
            for m in spec {
                let entry = metrics
                    .get(m.name)
                    .unwrap_or_else(|| panic!("{} lacks {}", w.name, m.name));
                assert_eq!(entry.get("unit").and_then(Value::as_str), Some(m.unit));
                let value = entry.get("value").and_then(Value::as_num);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{} {} = {value:?}",
                    w.name,
                    m.name
                );
            }
        }
        for run in ["untraced_run", "traced_run"] {
            let run = block.get(run).expect("run block");
            assert_eq!(run.get("failed").and_then(Value::as_num), Some(0.0));
            assert!(run.get("attempted").and_then(Value::as_num) >= Some(1.0));
        }
        let trace = dir.join(format!("out/{}.trace.json", w.name));
        assert!(trace.is_file(), "{} was not written", trace.display());
    }
    // The parser keeps the last of two equal keys, so "exactly once" is
    // counted on the text: one occurrence per workload, no more.
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let key = format!("\"{}\":{{", m.name);
        assert_eq!(text.matches(&key).count(), WORKLOADS.len(), "{}", m.name);
    }
}
