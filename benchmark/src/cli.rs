//! Command-line arguments of both binaries.

use std::path::PathBuf;

/// `run_seconds` of `BENCHMARK.json`: how long one run measures when
/// `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 15.0;

/// Usage text.
pub const USAGE: &str = "\
usage: benchmark/run.sh [--seed N] [--quick] [--selfcheck]
       benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1

  (no --workload)  run all five workloads, untraced then traced, one process
                   each; print every metric and write out/results.json
  --workload NAME  run one workload; the last stdout line is the result JSON
  --seed N         workload seed, decimal or 0x-hex (default 0x5EED)
  --seconds S      how long the timed loop measures (default 15)
  --trace 0|1      0: end-to-end metrics; 1: per-layer metrics and trace file
  --quick          depth-4 meshes, two-seed panels, one repetition (smoke)
  --selfcheck      run the full set twice and compare (A/A check)
  --dir DIR        the benchmark directory (run.sh passes it)";

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `--workload`: run this one workload (driver mode).
    pub workload: Option<String>,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`; `None` means the mode's default.
    pub seconds: Option<f64>,
    /// `--trace 1`.
    pub trace: bool,
    /// `--quick`.
    pub quick: bool,
    /// `--selfcheck`.
    pub selfcheck: bool,
    /// `--dir`: where `out/` lives and beside which `BENCHMARK.json` sits.
    pub dir: PathBuf,
}

impl Args {
    /// Seconds the timed loop measures: `--seconds`, else 0 for `--quick`
    /// (one pass over the panel), else [`DEFAULT_SECONDS`].
    pub fn seconds(&self) -> f64 {
        self.seconds
            .unwrap_or(if self.quick { 0.0 } else { DEFAULT_SECONDS })
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// Returns a one-line message for an unknown flag or a bad value.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 0x5EED,
        seconds: None,
        trace: false,
        quick: false,
        selfcheck: false,
        dir: PathBuf::from("benchmark"),
    };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                out.seed = parse_u64(&v).ok_or(format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {v} is outside 0..=600"));
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?} (0 or 1)")),
                }
            }
            "--dir" => out.dir = PathBuf::from(value()?),
            "--quick" => out.quick = true,
            "--selfcheck" => out.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn driver_invocation_parses() {
        let a = args("--workload cyl5-mctl-128 --seed 7 --seconds 15 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("cyl5-mctl-128"));
        assert_eq!((a.seed, a.seconds(), a.trace), (7, 15.0, true));
    }

    #[test]
    fn defaults_and_hex_seed() {
        let a = args("").unwrap();
        assert_eq!(
            (a.seed, a.seconds(), a.trace, a.quick),
            (0x5EED, 15.0, false, false)
        );
        assert_eq!(args("--seed 0x5F4D").unwrap().seed, 0x5F4D);
        assert_eq!(args("--quick").unwrap().seconds(), 0.0);
    }

    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        for bad in [
            "--seed",
            "--seed x",
            "--trace 2",
            "--seconds -1",
            "--seconds nan",
            "--frob",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }
}
