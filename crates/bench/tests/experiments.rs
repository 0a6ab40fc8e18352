//! The registry and the `experiments` dispatcher: what `ci.sh experiments`
//! relies on, checked without running anything slower than `table1`.

use std::collections::BTreeSet;
use std::process::{Command, Output};
use tempart_bench::EXPERIMENTS;

const RESULTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments")
}

#[test]
fn ids_are_unique_and_golden_ids_are_exactly_the_committed_result_files() {
    let ids: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    assert_eq!(ids.len(), EXPERIMENTS.len(), "duplicate experiment id");
    let golden: BTreeSet<String> = EXPERIMENTS
        .iter()
        .filter(|e| e.golden)
        .map(|e| format!("{}.txt", e.id))
        .collect();
    // `fingerprints_w*.txt` are the worker-matrix stage's git-ignored scratch.
    let committed: BTreeSet<String> = std::fs::read_dir(RESULTS)
        .expect("results/ exists")
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".txt") && !name.starts_with("fingerprints_w"))
        .collect();
    assert_eq!(golden, committed);
}

#[test]
fn list_prints_one_row_per_experiment() {
    let out = experiments(&["list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let rows: Vec<Vec<&str>> = stdout
        .lines()
        .map(|l| l.split_whitespace().take(2).collect())
        .collect();
    let want: Vec<Vec<&str>> = EXPERIMENTS
        .iter()
        .map(|e| vec![e.id, if e.golden { "golden" } else { "measured" }])
        .collect();
    assert_eq!(rows, want);
}

#[test]
fn a_bad_command_line_exits_2_with_nothing_on_stdout() {
    for (args, want) in [
        (&[][..], "error: no experiment id (ids: list, table1, "),
        (
            &["nosuch"],
            "error: unknown experiment \"nosuch\" (ids: list, ",
        ),
        (
            &["fig09", "--dpeth", "6"],
            "error: unknown option \"--dpeth\" (options: --depth N, --seed N)",
        ),
        (
            &["fig09", "--depth", "30"],
            "error: --depth 30: CYLINDER refines 3 levels past it, beyond the octree's limit of 20",
        ),
    ] {
        let out = experiments(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with(want), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}

#[test]
fn table1_prints_its_golden_file() {
    let out = experiments(&["table1"]);
    assert_eq!(out.status.code(), Some(0));
    let golden = include_str!("../../../results/table1.txt");
    assert_eq!(String::from_utf8(out.stdout).unwrap(), golden);
}
