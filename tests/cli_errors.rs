//! CLI robustness: option values the layers below would assert on must be
//! rejected in option handling with a clean `error:` line and exit code 1 —
//! never a panic (exit 101).

use std::path::Path;
use std::process::Command;

#[test]
fn zero_counts_are_usage_errors_not_panics() {
    let cases: &[(&str, &str)] = &[
        ("simulate", "--processes"),
        ("simulate", "--cores"),
        ("simulate", "--domains"),
        ("partition", "--domains"),
        ("trace", "--processes"),
        ("compare", "--cores"),
        ("portfolio", "--processes"),
        ("repart", "--domains"),
        ("repart", "--steps"),
        ("simulate", "--workers"),
    ];
    for &(cmd, flag) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_tempart"))
            .args([cmd, "--depth", "2", flag, "0"])
            .output()
            .expect("spawn tempart");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{cmd} {flag} 0: exit {:?}, stderr: {stderr}",
            out.status.code()
        );
        let first = stderr.lines().next().unwrap_or("");
        assert_eq!(
            first,
            format!("error: {flag} must be at least 1"),
            "{cmd} {flag} 0"
        );
        assert!(!stderr.contains("panicked"), "{cmd} {flag} 0: {stderr}");
    }
}

/// A 736-cell mesh, 8 domains on 2 × 2 cores: enough to reach the simulator.
const SMALL_RUN: [&str; 8] = [
    "--depth",
    "3",
    "--domains",
    "8",
    "--processes",
    "2",
    "--cores",
    "2",
];

#[test]
fn bad_net_values_are_usage_errors_not_panics_or_wrapped_makespans() {
    // Zero channels / zero processes per node used to reach asserts in the
    // simulator (exit 101); a per-byte cost near u64::MAX used to wrap the
    // simulated clock in release builds and exit 0 with a garbage makespan.
    // `portfolio` used to ignore both flags, so a mistyped preset raced
    // free communication and exited 0.
    let cases: &[(&[&str], &str)] = &[
        (&["--net", "bogus"], "unknown --net preset"),
        (&["--net", "uniform:1:1:0"], "at least one channel"),
        (
            &["--net", "two-level:400:2:0:2"],
            "at least one process per node",
        ),
        (
            &["--net", "uniform:1:9223372036854775807:2"],
            "overflows the simulated clock",
        ),
        (
            &["--latency", "18446744073709551615"],
            "overflows the simulated clock",
        ),
    ];
    for cmd in ["simulate", "portfolio"] {
        for &(net, want) in cases {
            let out = Command::new(env!("CARGO_BIN_EXE_tempart"))
                .arg(cmd)
                .args(SMALL_RUN)
                .args(net)
                .output()
                .expect("spawn tempart");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(1),
                "{cmd} {net:?}: exit {:?}, stderr: {stderr}",
                out.status.code()
            );
            let first = stderr.lines().next().unwrap_or("");
            assert!(
                first.starts_with("error: ") && first.contains(want),
                "{cmd} {net:?}: first stderr line {first:?}"
            );
            assert!(!stderr.contains("panicked"), "{cmd} {net:?}: {stderr}");
            assert!(!stderr.contains("USAGE:"), "{cmd} {net:?}: {stderr}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                !stdout.contains("makespan"),
                "{cmd} {net:?}: printed {stdout}"
            );
        }
    }
}

#[test]
fn portfolio_races_under_the_network_it_is_given() {
    // The fingerprint `tempart portfolio` prints on the small run.
    let fingerprint = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_tempart"))
            .arg("portfolio")
            .args(SMALL_RUN)
            .args(extra)
            .output()
            .expect("spawn tempart");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{extra:?}: {stdout}");
        stdout
            .lines()
            .find_map(|l| l.trim().strip_prefix("leaderboard fingerprint: "))
            .unwrap_or_else(|| panic!("{extra:?}: no fingerprint in {stdout}"))
            .to_string()
    };
    let free = fingerprint(&[]);
    let priced = fingerprint(&["--net", "two-level"]);
    assert_ne!(priced, free, "--net two-level raced free communication");
    assert_eq!(
        fingerprint(&["--net", "two-level", "--workers", "2"]),
        priced,
        "priced leaderboard depends on --workers"
    );
    assert_ne!(fingerprint(&["--latency", "300"]), free);
    // Free links on unbounded channels delay nothing.
    assert_eq!(fingerprint(&["--net", "zero"]), free);
}

#[test]
fn more_domains_than_cells_is_a_usage_error_not_a_report() {
    // The depth-3 CYLINDER has 736 cells. Asking for more domains than that
    // used to exit 0 with a five-digit "imbalance ceiling"; every
    // subcommand that partitions the mesh now refuses after building it.
    for cmd in [
        "partition",
        "simulate",
        "trace",
        "compare",
        "portfolio",
        "solve",
        "repart",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_tempart"))
            .args([cmd, "--depth", "3", "--domains", "100000"])
            .output()
            .expect("spawn tempart");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: stderr: {stderr}");
        assert_eq!(
            stderr.lines().next().unwrap_or(""),
            "error: --domains 100000 exceeds the mesh's 736 cells",
            "{cmd}"
        );
        assert!(out.stdout.is_empty(), "{cmd} printed a report");
    }
    // A graph file is held to its vertex count the same way; a file with no
    // vertices falls under the same check.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (name, text, n) in [
        ("tiny.graph", "3 2\n2\n1 3\n2\n", 3),
        ("none.graph", "0 0\n", 0),
    ] {
        let graph = dir.join(name);
        std::fs::write(&graph, text).expect("write graph");
        let out = Command::new(env!("CARGO_BIN_EXE_tempart"))
            .args(["partition", "--domains", "8", "--graph"])
            .arg(&graph)
            .output()
            .expect("spawn tempart");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: stderr: {stderr}");
        assert_eq!(
            stderr.lines().next().unwrap_or(""),
            format!("error: --domains 8 exceeds the graph's {n} vertices"),
            "{name}"
        );
        assert!(out.stdout.is_empty(), "{name}: printed a report");
    }
    // One domain per cell is still a request that can be served.
    let out = Command::new(env!("CARGO_BIN_EXE_tempart"))
        .args(["partition", "--depth", "2", "--domains", "64"])
        .output()
        .expect("spawn tempart");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("64 domains"),
        "{stdout}"
    );
}

#[test]
fn positive_counts_still_run() {
    let out = Command::new(env!("CARGO_BIN_EXE_tempart"))
        .args([
            "simulate",
            "--depth",
            "2",
            "--domains",
            "4",
            "--processes",
            "2",
            "--cores",
            "1",
        ])
        .output()
        .expect("spawn tempart");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // An inviscid run is still a valid request.
    let out = Command::new(env!("CARGO_BIN_EXE_tempart"))
        .args(["solve", "--depth", "2", "--domains", "4", "--mu", "0"])
        .output()
        .expect("spawn tempart");
    assert!(
        out.status.success(),
        "--mu 0: stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn option_combinations_the_library_asserts_on_are_usage_errors() {
    // Each of these reached an `assert!` below the CLI (exit 101): the
    // octree's depth limit, the two dual-phase preconditions of
    // `decompose_with`, and `RuntimeConfig::new`.
    let cases: &[(&[&str], &str)] = &[
        (
            &["partition", "--depth", "30"],
            "error: --depth 30: CYLINDER refines 3 levels past it, beyond the octree's limit of 20",
        ),
        (
            &["gen", "--depth", "19", "--case", "pprime"],
            "error: --depth 19: PPRIME_NOZZLE refines 2 levels past it, beyond the octree's limit of 20",
        ),
        (
            &["partition", "--depth", "2", "--strategy", "dual:0"],
            "error: --strategy dual:<k> must be at least 1",
        ),
        (
            &["partition", "--depth", "2", "--strategy", "dual:99"],
            "error: --domains 32 is not a multiple of the dual factor 99",
        ),
        (
            &["solve", "--depth", "2", "--domains", "4", "--groups", "0"],
            "error: --groups must be at least 1",
        ),
        // A negative viscosity integrated backwards in time; an infinite or
        // NaN one, or −0, ended in a NaN state. All four exited 0.
        (
            &["solve", "--depth", "2", "--mu", "-0.001"],
            "error: --mu -0.001 is not a finite viscosity ≥ 0",
        ),
        (
            &["solve", "--depth", "2", "--mu", "-0"],
            "error: --mu -0 is not a finite viscosity ≥ 0",
        ),
        (
            &["solve", "--depth", "2", "--mu", "inf"],
            "error: --mu inf is not a finite viscosity ≥ 0",
        ),
        (
            &["solve", "--depth", "2", "--mu", "nan"],
            "error: --mu nan is not a finite viscosity ≥ 0",
        ),
    ];
    for &(args, want) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_tempart"))
            .args(args)
            .output()
            .expect("spawn tempart");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: stderr: {stderr}");
        assert_eq!(stderr.lines().next().unwrap_or(""), want, "{args:?}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
    }
}

#[test]
fn io_errors_name_the_file_and_only_usage_errors_print_usage() {
    let small = ["--depth", "2", "--domains", "4"];
    // Paths below a regular file fail with ENOTDIR whoever runs the test,
    // root included, and whatever directories the host happens to have.
    let blocker = Path::new(env!("CARGO_TARGET_TMPDIR")).join("not-a-dir");
    std::fs::write(&blocker, "").expect("write blocker file");
    let under = |name: &str| blocker.join(name).display().to_string();
    let (graph, json, vtk, svg) = (
        under("x.graph"),
        under("x.json"),
        under("x.vtk"),
        under("svg"),
    );
    let cases: [([&str; 3], &str); 4] = [
        (["partition", "--graph", &graph], &graph),
        (["trace", "--out", &json], &json),
        (["gen", "--vtk", &vtk], &vtk),
        (["compare", "--svg", &svg], &svg),
    ];
    for (args, path) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_tempart"))
            .args(args)
            .args(small)
            .output()
            .expect("spawn tempart");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: stderr: {stderr}");
        let first = stderr.lines().next().unwrap_or("");
        assert!(
            first.starts_with(&format!("error: {path}: ")),
            "{args:?}: first stderr line {first:?}"
        );
        assert!(!stderr.contains("USAGE:"), "{args:?}: {stderr}");
    }
    // A METIS header sizes the reader's allocations: one that promises more
    // than the file holds is a parse error, not a 96 GB `vec!` (exit 134).
    let graph = Path::new(env!("CARGO_TARGET_TMPDIR")).join("hostile.graph");
    std::fs::write(&graph, "4000000000 3\n2\n").expect("write graph");
    let out = Command::new(env!("CARGO_BIN_EXE_tempart"))
        .args(["partition", "--domains", "2", "--graph"])
        .arg(&graph)
        .output()
        .expect("spawn tempart");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with(&format!("error: {}: bad header: ", graph.display())),
        "{stderr}"
    );
    assert!(
        !stderr.contains("panicked") && !stderr.contains("allocation"),
        "{stderr}"
    );
    // A weight that does not fit the graph's `u32` and a self-loop were
    // partitioned silently (truncated; counted as an edge): each is now an
    // error naming its line.
    for (name, text, want) in [
        (
            "heavy.graph",
            "2 1 10\n5000000000 2\n1 1\n",
            "line 2: weight 5000000000 exceeds 4294967295",
        ),
        (
            "loop.graph",
            "2 2\n1 2\n1 2\n",
            "line 2: self-loop on vertex 1",
        ),
    ] {
        let graph = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&graph, text).expect("write graph");
        let out = Command::new(env!("CARGO_BIN_EXE_tempart"))
            .args(["partition", "--domains", "2", "--graph"])
            .arg(&graph)
            .output()
            .expect("spawn tempart");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert_eq!(
            stderr.lines().next().unwrap_or(""),
            format!("error: {}: {want}", graph.display()),
            "{name}"
        );
        assert!(out.stdout.is_empty(), "{name}: printed a report");
    }
    // A bad option value still gets the usage text, after its error line.
    let out = Command::new(env!("CARGO_BIN_EXE_tempart"))
        .args(["partition", "--domains", "0"])
        .output()
        .expect("spawn tempart");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("error: --domains must be at least 1\n") && stderr.contains("USAGE:"),
        "{stderr}"
    );
}
