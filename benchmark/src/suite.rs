//! The all-workloads suite (`run.sh` without `--workload`) and the A/A
//! self-check (`--selfcheck`).
//!
//! Every workload runs in a process of its own — once untraced, once traced —
//! so `peak_rss_mib` is that workload's own high-water mark and no workload
//! warms another's caches. The suite forwards each run's summary, prints the
//! end-to-end table, and writes `out/results.json` with provenance.

use crate::cli::Args;
use crate::report::{format_value, num, obj};
use crate::spec::{Workload, END_TO_END, EXACT_REPEAT, PER_LAYER, WORKLOADS};
use crate::DETAIL_PREFIX;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use tempart_obs::json::{parse, write, Value};

/// Why each workload exists, as in `BENCHMARK.json`.
fn why(benchmark: Option<&Value>, name: &str) -> String {
    benchmark
        .and_then(|b| b.get("workloads"))
        .and_then(Value::as_arr)
        .and_then(|ws| {
            ws.iter()
                .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
        })
        .and_then(|w| w.get("why"))
        .and_then(Value::as_str)
        .unwrap_or("")
        .to_string()
}

/// One child run: forwards its summary, returns `(result, detail)`.
fn run_child(args: &Args, w: &Workload, trace: bool) -> Result<(Value, Value), String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin = if trace {
        me.with_file_name("tempart-benchmark-traced")
    } else {
        me
    };
    let mut cmd = Command::new(&bin);
    cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--dir")
        .arg(&args.dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child; nothing outlives this call.
    let output = cmd
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines.pop().ok_or("child printed nothing")?;
    let detail = lines
        .pop()
        .and_then(|l| l.strip_prefix(DETAIL_PREFIX))
        .ok_or("child printed no detail line")?;
    for line in lines {
        println!("{line}");
    }
    let result = parse(result).map_err(|e| format!("{} result line: {e}", w.name))?;
    let detail = parse(detail).map_err(|e| format!("{} detail line: {e}", w.name))?;
    if !output.status.success() && result.get("failed").and_then(Value::as_num) == Some(0.0) {
        return Err(format!("{} exited with {}", w.name, output.status));
    }
    Ok((result, detail))
}

/// Runs every workload in `order`; returns the per-workload JSON blocks.
fn run_set(
    args: &Args,
    order: &[&Workload],
    benchmark: Option<&Value>,
) -> Result<BTreeMap<String, Value>, String> {
    let mut set = BTreeMap::new();
    for w in order {
        let (e2e, e2e_detail) = run_child(args, w, false)?;
        let (traced, traced_detail) = run_child(args, w, true)?;
        let block = |result: &Value, detail: Value| {
            obj([
                (
                    "attempted",
                    result.get("attempted").cloned().unwrap_or(Value::Null),
                ),
                (
                    "failed",
                    result.get("failed").cloned().unwrap_or(Value::Null),
                ),
                ("detail", detail),
            ])
        };
        set.insert(
            w.name.to_string(),
            obj([
                ("why", Value::Str(why(benchmark, w.name))),
                (
                    "end_to_end",
                    e2e.get("metrics").cloned().unwrap_or(Value::Null),
                ),
                (
                    "per_layer",
                    traced.get("metrics").cloned().unwrap_or(Value::Null),
                ),
                ("untraced_run", block(&e2e, e2e_detail)),
                ("traced_run", block(&traced, traced_detail)),
            ]),
        );
    }
    Ok(set)
}

fn metric(set: &BTreeMap<String, Value>, workload: &str, group: &str, name: &str) -> Option<f64> {
    set.get(workload)?
        .get(group)?
        .get(name)?
        .get("value")?
        .as_num()
}

fn failures(set: &BTreeMap<String, Value>) -> f64 {
    set.values()
        .flat_map(|w| ["untraced_run", "traced_run"].map(|run| w.get(run)))
        .filter_map(|run| run?.get("failed")?.as_num())
        .sum()
}

fn print_table(set: &BTreeMap<String, Value>) {
    println!("\n== end-to-end metrics (driver thread only, recorder off)");
    print!("{:<18}", "");
    for w in &WORKLOADS {
        print!(" {:>18}", w.name);
    }
    println!();
    for m in END_TO_END {
        print!("{:<18}", format!("{} [{}]", m.name, m.unit));
        for w in &WORKLOADS {
            let v = metric(set, w.name, "end_to_end", m.name);
            print!(" {:>18}", v.map_or("-".into(), format_value));
        }
        println!();
    }
    print!("{:<18}", "fail_frac");
    for w in &WORKLOADS {
        let run = set.get(w.name).and_then(|b| b.get("untraced_run"));
        let get = |k| {
            run.and_then(|r| r.get(k))
                .and_then(Value::as_num)
                .unwrap_or(f64::NAN)
        };
        print!(" {:>18}", format!("{}/{}", get("failed"), get("attempted")));
    }
    println!();
}

/// End-to-end bounds by metric name, from `BENCHMARK.json`.
fn bounds(benchmark: &Value) -> Option<BTreeMap<String, f64>> {
    benchmark
        .get("end_to_end")?
        .as_arr()?
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_num()?,
            ))
        })
        .collect()
}

/// A/A comparison: every end-to-end metric within its own bound, every
/// exact-repeat metric and every count identical.
fn disagreements(
    a: &BTreeMap<String, Value>,
    b: &BTreeMap<String, Value>,
    bounds: &BTreeMap<String, f64>,
) -> Vec<String> {
    let mut out = Vec::new();
    for w in &WORKLOADS {
        for m in END_TO_END {
            let pair = (
                metric(a, w.name, "end_to_end", m.name),
                metric(b, w.name, "end_to_end", m.name),
            );
            let (Some(va), Some(vb)) = pair else {
                out.push(format!("{} {}: missing", w.name, m.name));
                continue;
            };
            let rel = (vb - va).abs() / va.abs();
            let limit = if EXACT_REPEAT.contains(&m.name) {
                0.0
            } else {
                bounds.get(m.name).copied().unwrap_or(0.0)
            };
            if rel.is_nan() || rel > limit {
                out.push(format!(
                    "{} {}: {} vs {} differ by {:.2} % (allowed {:.0} %)",
                    w.name,
                    m.name,
                    format_value(va),
                    format_value(vb),
                    100.0 * rel,
                    100.0 * limit
                ));
            }
        }
        for m in PER_LAYER.iter().filter(|m| m.unit == "count") {
            let va = metric(a, w.name, "per_layer", m.name);
            let vb = metric(b, w.name, "per_layer", m.name);
            if va.is_none() || va != vb {
                out.push(format!("{} {}: count {va:?} vs {vb:?}", w.name, m.name));
            }
        }
    }
    out
}

fn provenance(args: &Args, sets: usize) -> Value {
    let env = |k: &str| Value::Str(std::env::var(k).unwrap_or_else(|_| "unknown".into()));
    let llc = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map_or("unknown".into(), |s| s.trim().to_string());
    obj([
        ("seed", num(args.seed as f64)),
        ("seed_hex", Value::Str(format!("{:#x}", args.seed))),
        ("seconds", num(args.seconds())),
        ("quick", Value::Bool(args.quick)),
        ("sets", num(sets as f64)),
        (
            "nproc",
            num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("llc", Value::Str(llc)),
        ("rustc", env("TEMPART_BENCH_RUSTC")),
        ("commit", env("TEMPART_BENCH_COMMIT")),
    ])
}

fn write_results(dir: &Path, value: &Value) -> Result<(), String> {
    let out = dir.join("out");
    let path = out.join("results.json");
    std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(&path, write(value) + "\n"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nresults: {}", path.display());
    Ok(())
}

fn run_inner(args: &Args) -> Result<bool, String> {
    let benchmark_path = args.dir.join("../BENCHMARK.json");
    let benchmark = std::fs::read_to_string(&benchmark_path)
        .map_err(|e| e.to_string())
        .and_then(|text| parse(&text));
    let forward: Vec<&Workload> = WORKLOADS.iter().collect();
    let first = run_set(args, &forward, benchmark.as_ref().ok())?;
    print_table(&first);
    let mut failed = failures(&first);
    let mut workloads = first.clone();
    let mut verdict = Value::Null;
    if args.selfcheck {
        let benchmark = benchmark
            .as_ref()
            .map_err(|e| format!("{}: {e}", benchmark_path.display()))?;
        let bounds = bounds(benchmark).ok_or("BENCHMARK.json has no end_to_end bounds")?;
        // Second set in the opposite order, so a warm-up or thermal trend
        // cannot favour the same workload twice.
        let backward: Vec<&Workload> = WORKLOADS.iter().rev().collect();
        println!("\n== self-check: second set, reverse order");
        let second = run_set(args, &backward, Some(benchmark))?;
        print_table(&second);
        failed += failures(&second);
        println!("\n== self-check: machine-speed references (set A, set B)");
        for w in &WORKLOADS {
            for name in ["calib.spin_s", "calib.stream_s"] {
                let get = |s| metric(s, w.name, "per_layer", name).map_or("-".into(), format_value);
                println!(
                    "  {:<18} {name:<16} {:>10} {:>10} s",
                    w.name,
                    get(&first),
                    get(&second)
                );
            }
        }
        let diffs = disagreements(&first, &second, &bounds);
        for d in &diffs {
            println!("  DISAGREE {d}");
        }
        println!(
            "self-check: {}",
            if diffs.is_empty() {
                "both sets agree"
            } else {
                "FAILED"
            }
        );
        verdict = obj([
            ("agree", Value::Bool(diffs.is_empty())),
            (
                "disagreements",
                Value::Arr(diffs.iter().cloned().map(Value::Str).collect()),
            ),
        ]);
        if !diffs.is_empty() {
            failed += 1.0;
        }
        workloads = first;
    }
    write_results(
        &args.dir,
        &obj([
            ("benchmark", Value::Str("tempart-benchmark".into())),
            // The change that defines the benchmark claims no gain.
            ("claim", Value::Null),
            (
                "provenance",
                provenance(args, if args.selfcheck { 2 } else { 1 }),
            ),
            ("selfcheck", verdict),
            ("workloads", Value::Obj(workloads)),
        ]),
    )?;
    Ok(failed == 0.0)
}

/// Runs the suite; exit code 0 only when no operation and no check failed.
pub fn run(args: &Args) -> ExitCode {
    match run_inner(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: correctness checks failed (fail_frac > 0)");
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::FAILURE
        }
    }
}
