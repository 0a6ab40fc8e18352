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
fn latency_is_the_uniform_preset_and_not_a_second_network_flag() {
    // `--latency L` is spelt `--net uniform:L:0:<u64::MAX>`: latency-only
    // links on unbounded channels. Given together, `--net` used to win
    // silently over `--latency`.
    let run = |cmd: &str, net: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_tempart"))
            .arg(cmd)
            .args(SMALL_RUN)
            .args(net)
            .output()
            .expect("spawn tempart")
    };
    let uniform = ["--net", "uniform:300:0:18446744073709551615"];
    let report = |out: std::process::Output| {
        assert!(out.status.success(), "{out:?}");
        // Everything but the header line, which names the flag.
        let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
        stdout.lines().skip(1).collect::<Vec<_>>().join("\n")
    };
    for cmd in ["simulate", "portfolio"] {
        let shorthand = report(run(cmd, &["--latency", "300"]));
        assert!(shorthand.contains("comm time") || shorthand.contains("fingerprint"));
        assert_eq!(shorthand, report(run(cmd, &uniform)), "{cmd}");
        for both in [
            ["--latency", "300", "--net", "two-level"],
            ["--net", "two-level", "--latency", "300"],
        ] {
            let out = run(cmd, &both);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{cmd} {both:?}: {stderr}");
            assert_eq!(
                stderr.lines().next().unwrap_or(""),
                "error: --latency and --net both name a network: give one",
                "{cmd} {both:?}"
            );
            assert!(out.stdout.is_empty(), "{cmd} {both:?} printed a report");
        }
    }
}

#[test]
fn a_channel_budget_past_the_edge_count_runs_like_a_million_channels() {
    // A NIC row used to be `channels` slots wide, so a budget of 10^18
    // aborted with `capacity overflow` (exit 101). No transfer can pick a
    // channel past the task graph's edge count, so the row stops there and
    // any larger budget schedules alike.
    let run = |cmd: &str, channels: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_tempart"))
            .arg(cmd)
            .args(SMALL_RUN)
            .args(["--net", &format!("uniform:200:2:{channels}")])
            .output()
            .expect("spawn tempart");
        assert_eq!(
            out.status.code(),
            Some(0),
            "{cmd} {channels} channels: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf-8 report")
    };
    for cmd in ["simulate", "portfolio"] {
        let huge = run(cmd, "1000000000000000000");
        let million = run(cmd, "1000000");
        // `portfolio`'s header names the network; the reports below it
        // must match.
        let skip = usize::from(cmd == "portfolio");
        let body = |s: &str| s.lines().skip(skip).collect::<Vec<_>>().join("\n");
        assert!(
            huge.contains("makespan") || huge.contains("fingerprint"),
            "{huge}"
        );
        assert_eq!(body(&huge), body(&million), "{cmd}");
    }
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
        // 8^11 base cells is past the octree's 2^31 cell ids: the depth
        // check answers before any tree is built.
        (
            &["partition", "--depth", "11"],
            "error: --depth 11: the base grid alone has 8^11 = 8589934592 cells, beyond the octree's 2^31 cell ids",
        ),
        (
            &["gen", "--depth", "17", "--case", "cube"],
            "error: --depth 17: the base grid alone has 8^17 = 2251799813685248 cells, beyond the octree's 2^31 cell ids",
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
    // Edge weights the reader accepts must not size an allocation: a path
    // whose gains reached ±8·10^9 used to ask the FM buckets for 64 GB
    // (exit 134). Its edge weights now total at most `u32::MAX`, so its
    // gains reach ±2.8·10^9. It partitions, and the cut is the one heavy
    // edge.
    let graph = Path::new(env!("CARGO_TARGET_TMPDIR")).join("heavy-path.graph");
    let w = "1400000000";
    std::fs::write(
        &graph,
        format!("4 3 1\n2 {w}\n1 {w} 3 {w}\n2 {w} 4 {w}\n3 {w}\n"),
    )
    .expect("write graph");
    let out = Command::new(env!("CARGO_BIN_EXE_tempart"))
        .args(["partition", "--domains", "2", "--graph"])
        .arg(&graph)
        .output()
        .expect("spawn tempart");
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        stdout.contains("4 vertices, 3 edges") && stdout.contains("edge cut        : 1400000000"),
        "{stdout}"
    );
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

/// A 400-vertex ring, each vertex joined to the next two, with every edge
/// (`fmt 001`) or every vertex (`fmt 010`) weighing `u32::MAX`: coarsening
/// summed those weights, which panicked a debug build and wrapped in a
/// release one (a cut of 51 539 607 540). The reader rejects a weight total
/// past `u32::MAX`, naming it; so does it the path whose three edges weigh
/// 4·10^9 each.
#[test]
fn weight_totals_past_u32_are_errors_not_panics() {
    let (n, max) = (400usize, u32::MAX);
    let ring = |fmt: &str| {
        let mut text = format!("{n} {} {fmt}\n", 2 * n);
        for v in 0..n {
            let ids = [v + n - 2, v + n - 1, v + 1, v + 2].map(|u| u % n + 1);
            let line: Vec<String> = match fmt {
                "001" => ids.iter().map(|u| format!("{u} {max}")).collect(),
                _ => std::iter::once(max.to_string())
                    .chain(ids.iter().map(usize::to_string))
                    .collect(),
            };
            text.push_str(&line.join(" "));
            text.push('\n');
        }
        text
    };
    let w = "4000000000";
    for (name, text, want) in [
        (
            "ring-edges.graph",
            ring("001"),
            format!("edge-weight total {} exceeds {max}", 800 * u64::from(max)),
        ),
        (
            "ring-vertices.graph",
            ring("010"),
            format!(
                "vertex-weight (constraint 1 of 1) total {} exceeds {max}",
                400 * u64::from(max)
            ),
        ),
        (
            "heavier-path.graph",
            format!("4 3 1\n2 {w}\n1 {w} 3 {w}\n2 {w} 4 {w}\n3 {w}\n"),
            format!("edge-weight total 12000000000 exceeds {max}"),
        ),
    ] {
        let graph = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&graph, text).expect("write graph");
        let out = Command::new(env!("CARGO_BIN_EXE_tempart"))
            .args(["partition", "--graph"])
            .arg(&graph)
            .args(["--domains", "4"])
            .output()
            .expect("spawn tempart");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert_eq!(
            stderr.lines().next().unwrap_or(""),
            format!("error: {}: {want}", graph.display()),
            "{name}"
        );
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
        assert!(out.stdout.is_empty(), "{name}: printed a report");
    }
}
