//! A minimal wall-clock benchmark harness (the workspace's `criterion`
//! replacement).
//!
//! Protocol per benchmark: a short **warmup**, then **N timed samples**.
//! Fast bodies are auto-batched so each sample spans at least ~1 ms of work.
//! Reported statistics are the **median** and the **MAD** (median absolute
//! deviation) — robust against scheduler noise, which matters more than
//! criterion's bootstrap machinery on the shared CI boxes this runs on.
//!
//! A developer microscope: it prints one line per benchmark and hands the
//! statistics back to the caller — no file is written, nothing is compared.
//! The numbers of record, and the only ones CI gates on, are `benchmark/`'s.
//! `TEMPART_BENCH_SAMPLES` sets the default sample count (`=3` for smoke runs).
//!
//! Bench targets use `harness = false` and a plain `main`:
//!
//! ```no_run
//! use tempart_testkit::bench::Bencher;
//!
//! let mut b = Bencher::new("partitioner");
//! b.bench("partition/strategy/SC_OC", || 2 + 2);
//! b.finish();
//! ```

use std::time::{Duration, Instant};

/// Sampling configuration.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Un-timed warmup iterations before sampling.
    pub warmup_iters: u32,
    /// Number of timed samples.
    pub samples: u32,
    /// Target minimum duration of one sample; fast bodies are batched until
    /// a sample spans at least this long.
    pub min_sample: Duration,
}

impl Default for BenchConfig {
    fn default() -> Self {
        let samples = std::env::var("TEMPART_BENCH_SAMPLES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(10);
        Self {
            warmup_iters: 2,
            samples,
            min_sample: Duration::from_millis(1),
        }
    }
}

/// Robust statistics of one benchmark's samples (nanoseconds per iteration).
#[derive(Debug, Clone)]
pub struct BenchStats {
    /// Benchmark name (`group/function/param`).
    pub name: String,
    /// Per-iteration sample durations in nanoseconds.
    pub samples_ns: Vec<u64>,
    /// Median of `samples_ns`.
    pub median_ns: u64,
    /// Median absolute deviation from the median.
    pub mad_ns: u64,
    /// Iterations batched per sample (1 for slow bodies).
    pub iters_per_sample: u32,
}

fn median_of(sorted: &[u64]) -> u64 {
    let n = sorted.len();
    if n == 0 {
        return 0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2
    }
}

impl BenchStats {
    fn from_samples(name: &str, mut samples_ns: Vec<u64>, iters_per_sample: u32) -> Self {
        let raw = samples_ns.clone();
        samples_ns.sort_unstable();
        let median_ns = median_of(&samples_ns);
        let mut dev: Vec<u64> = raw.iter().map(|&s| s.abs_diff(median_ns)).collect();
        dev.sort_unstable();
        let mad_ns = median_of(&dev);
        Self {
            name: name.to_string(),
            samples_ns: raw,
            median_ns,
            mad_ns,
            iters_per_sample,
        }
    }

    /// Human-readable one-liner.
    pub fn summary(&self) -> String {
        format!(
            "{:<44} median {:>12} ± {:<10} ({} samples × {} iters)",
            self.name,
            fmt_ns(self.median_ns),
            fmt_ns(self.mad_ns),
            self.samples_ns.len(),
            self.iters_per_sample,
        )
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Collects and reports a suite of benchmarks.
pub struct Bencher {
    suite: String,
    config: BenchConfig,
    results: Vec<BenchStats>,
}

impl Bencher {
    /// A suite with the default (env-overridable) configuration.
    pub fn new(suite: &str) -> Self {
        Self::with_config(suite, BenchConfig::default())
    }

    /// A suite with an explicit configuration.
    pub fn with_config(suite: &str, config: BenchConfig) -> Self {
        assert!(config.samples >= 1, "need at least one sample");
        Self {
            suite: suite.to_string(),
            config,
            results: Vec::new(),
        }
    }

    /// Overrides the sample count for subsequent benchmarks (the
    /// `group.sample_size(n)` analogue).
    pub fn set_samples(&mut self, samples: u32) {
        assert!(samples >= 1, "need at least one sample");
        self.config.samples = samples;
    }

    /// Times `body`, batching fast bodies; the returned value is passed
    /// through [`std::hint::black_box`] so the work is not optimised away.
    pub fn bench<R>(&mut self, name: &str, mut body: impl FnMut() -> R) {
        for _ in 0..self.config.warmup_iters {
            std::hint::black_box(body());
        }
        // Calibrate the batch size on one timed run.
        let t0 = Instant::now();
        std::hint::black_box(body());
        let once = t0.elapsed();
        let iters = if once >= self.config.min_sample {
            1
        } else {
            let need = self.config.min_sample.as_nanos().max(1);
            (need / once.as_nanos().max(1)).clamp(1, 1_000_000) as u32
        };
        let mut samples = Vec::with_capacity(self.config.samples as usize);
        for _ in 0..self.config.samples {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(body());
            }
            samples.push((t.elapsed().as_nanos() as u64) / u64::from(iters));
        }
        self.record(name, samples, iters);
    }

    /// Times `body(state)` with a fresh un-timed `setup()` per iteration
    /// (the `iter_with_setup` analogue). Never batched.
    pub fn bench_with_setup<S, R>(
        &mut self,
        name: &str,
        mut setup: impl FnMut() -> S,
        mut body: impl FnMut(S) -> R,
    ) {
        for _ in 0..self.config.warmup_iters {
            let s = setup();
            std::hint::black_box(body(s));
        }
        let mut samples = Vec::with_capacity(self.config.samples as usize);
        for _ in 0..self.config.samples {
            let s = setup();
            let t = Instant::now();
            std::hint::black_box(body(s));
            samples.push(t.elapsed().as_nanos() as u64);
        }
        self.record(name, samples, 1);
    }

    fn record(&mut self, name: &str, samples: Vec<u64>, iters: u32) {
        let stats = BenchStats::from_samples(name, samples, iters);
        println!("{}", stats.summary());
        self.results.push(stats);
    }

    /// Prints the suite footer and returns the collected stats, in the
    /// order the benchmarks ran, for in-run comparisons between rows.
    pub fn finish(self) -> Vec<BenchStats> {
        println!(
            "bench suite `{}`: {} benchmarks",
            self.suite,
            self.results.len()
        );
        self.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bencher(warmup_iters: u32, samples: u32, min_sample_us: u64) -> Bencher {
        let config = BenchConfig {
            warmup_iters,
            samples,
            min_sample: Duration::from_micros(min_sample_us),
        };
        Bencher::with_config("selftest", config)
    }

    #[test]
    fn median_and_mad() {
        let s = BenchStats::from_samples("x", vec![10, 30, 20, 40, 50], 1);
        assert_eq!(s.median_ns, 30);
        // Deviations: 20, 0, 10, 10, 20 -> sorted 0,10,10,20,20 -> median 10.
        assert_eq!(s.mad_ns, 10);
    }

    #[test]
    fn even_sample_count_averages_middle() {
        let s = BenchStats::from_samples("x", vec![10, 20, 30, 40], 1);
        assert_eq!(s.median_ns, 25);
    }

    #[test]
    fn bench_collects_requested_samples() {
        let mut b = bencher(1, 5, 10);
        let mut acc = 0u64;
        b.bench("spin", || {
            for i in 0..100u64 {
                acc = acc.wrapping_add(std::hint::black_box(i));
            }
            acc
        });
        assert_eq!(b.results.len(), 1);
        assert_eq!(b.results[0].samples_ns.len(), 5);
        assert!(b.results[0].iters_per_sample >= 1);
    }

    #[test]
    fn setup_variant_runs() {
        let mut b = bencher(0, 3, 1);
        b.bench_with_setup("sum", || vec![1u64; 64], |v| v.iter().sum::<u64>());
        assert_eq!(b.results[0].samples_ns.len(), 3);
        assert_eq!(b.results[0].iters_per_sample, 1);
    }

    #[test]
    fn finish_returns_rows_by_name_in_run_order() {
        // `benches/partitioner.rs::main` finds its repart rows by name here.
        let mut b = bencher(0, 1, 1);
        b.bench("repart/diffuse", || 1u64);
        b.bench_with_setup("repart/scratch", || 2u64, |x| x);
        let names: Vec<String> = b.finish().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["repart/diffuse", "repart/scratch"]);
    }
}
