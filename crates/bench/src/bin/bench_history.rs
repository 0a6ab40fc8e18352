//! Appends one NDJSON trend record per benchmark suite to
//! `results/bench_history.ndjson`.
//!
//! Run after the bench suites (e.g. at the end of `ci.sh bench-gate`): it
//! scans `results/bench_*.json` — the per-run reports written by
//! `tempart_testkit::bench::Bencher::finish` — and appends, for each suite,
//! a single compact JSON line:
//!
//! ```json
//! {"medians":{"partition/strategy/MC_TL":37875677,...},"suite":"partitioner","ts":1754505600,"unit":"ns/iter"}
//! ```
//!
//! The history file is append-only NDJSON, so the performance trajectory of
//! every benchmark is recoverable with a one-line filter per suite. Records
//! are serialised with [`tempart_obs::json::write`] (BTreeMap key order,
//! integer-exact numbers), so identical measurements produce byte-identical
//! lines.
//!
//! Flags: `--dir <results-dir>` (default: nearest ancestor `results/`),
//! `--out <file>` (default: `<dir>/bench_history.ndjson`).
//! Env: `TEMPART_BENCH_HISTORY_TS` overrides the unix timestamp (hermetic
//! CI replays and tests).
//!
//! # Methodology notes
//!
//! The `partition/parallel/MC_TL-w{1,2,4}` rows measure the *schedule* of
//! a bit-identical answer (the recursive-bisection fan-out), so their
//! meaning depends on the host. On a single-core CI runner — where the
//! committed baselines are written — the `w2`/`w4` medians bound fork-join
//! overhead and are expected to sit within the bench-gate tolerance of
//! `w1`, not below it; the history lines record which regime a given
//! record came from only through its magnitudes.

use std::collections::BTreeMap;
use std::path::PathBuf;
use tempart_obs::json::{parse, write, Value};

/// Nearest ancestor `results/` directory, or `./results`.
fn default_dir() -> PathBuf {
    if let Ok(cwd) = std::env::current_dir() {
        for dir in cwd.ancestors() {
            let cand = dir.join("results");
            if cand.is_dir() {
                return cand;
            }
        }
    }
    "results".into()
}

fn timestamp() -> u64 {
    if let Some(ts) = std::env::var("TEMPART_BENCH_HISTORY_TS")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        return ts;
    }
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// One history record for a parsed suite report, or `None` when the file is
/// not a bench report (wrong shape).
fn record(report: &Value, ts: u64) -> Option<Value> {
    let suite = report.get("suite")?.as_str()?.to_string();
    let unit = report
        .get("unit")
        .and_then(Value::as_str)
        .unwrap_or("ns/iter")
        .to_string();
    let mut medians = BTreeMap::new();
    for b in report.get("benchmarks")?.as_arr()? {
        let name = b.get("name")?.as_str()?.to_string();
        let median = b.get("median_ns")?.as_num()?;
        medians.insert(name, Value::Num(median));
    }
    let mut obj = BTreeMap::new();
    obj.insert("medians".to_string(), Value::Obj(medians));
    obj.insert("suite".to_string(), Value::Str(suite));
    obj.insert("ts".to_string(), Value::Num(ts as f64));
    obj.insert("unit".to_string(), Value::Str(unit));
    Some(Value::Obj(obj))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut dir: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--dir" => {
                dir = args.get(i + 1).map(PathBuf::from);
                i += 2;
            }
            "--out" => {
                out = args.get(i + 1).map(PathBuf::from);
                i += 2;
            }
            other => {
                eprintln!("bench_history: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }
    let dir = dir.unwrap_or_else(default_dir);
    let out = out.unwrap_or_else(|| dir.join("bench_history.ndjson"));
    let ts = timestamp();

    // Deterministic order: sorted file names.
    let mut reports: Vec<PathBuf> = match std::fs::read_dir(&dir) {
        Ok(entries) => entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| {
                let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                name.starts_with("bench_") && name.ends_with(".json")
            })
            .collect(),
        Err(e) => {
            eprintln!("bench_history: cannot read {}: {e}", dir.display());
            std::process::exit(1);
        }
    };
    reports.sort();

    let mut lines = String::new();
    let mut n = 0usize;
    for path in &reports {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench_history: skipping {}: {e}", path.display());
                continue;
            }
        };
        let parsed = match parse(&text) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("bench_history: skipping {} (bad JSON: {e})", path.display());
                continue;
            }
        };
        let Some(rec) = record(&parsed, ts) else {
            eprintln!(
                "bench_history: skipping {} (not a bench report)",
                path.display()
            );
            continue;
        };
        lines.push_str(&write(&rec));
        lines.push('\n');
        n += 1;
    }
    if n == 0 {
        println!(
            "bench_history: no bench reports under {} — nothing appended",
            dir.display()
        );
        return;
    }
    use std::io::Write as _;
    let mut f = match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&out)
    {
        Ok(f) => f,
        Err(e) => {
            eprintln!("bench_history: cannot open {}: {e}", out.display());
            std::process::exit(1);
        }
    };
    if let Err(e) = f.write_all(lines.as_bytes()) {
        eprintln!("bench_history: cannot append to {}: {e}", out.display());
        std::process::exit(1);
    }
    println!(
        "bench_history: appended {n} suite record(s) (ts {ts}) -> {}",
        out.display()
    );
}
