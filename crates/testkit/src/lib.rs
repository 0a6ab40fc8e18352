#![warn(missing_docs)]
//! # tempart-testkit — hermetic, std-only test & bench substrate
//!
//! This workspace builds with **zero external crate dependencies** so that
//! `cargo build --offline && cargo test --offline` succeeds on an air-gapped
//! machine (the environment the paper-reproduction CI runs in). This crate
//! provides the three pieces that external crates used to supply:
//!
//! * [`rng`] — a seedable SplitMix64 / xoshiro256\*\* PRNG with
//!   `gen_range` / `shuffle` / `choose`, replacing `rand::rngs::SmallRng`.
//!   The partitioner's tie-breaking shuffles and growth seeds run on it, so
//!   every partition is a pure function of `(graph, config.seed)`.
//! * [`prop`] — a deterministic property-testing harness with fixed-seed
//!   case generation and bounded shrinking, plus a [`proptest!`]-style macro,
//!   replacing the `proptest` crate. Failures print the seed, case index and
//!   the minimised input so they reproduce byte-for-byte.
//! * [`bench`] — a minimal wall-clock benchmark harness (warmup + N samples,
//!   median/MAD statistics, printed and returned, never stored or gated),
//!   replacing `criterion` for the paper-experiment benches.
//! * [`alloc`] — a counting global allocator, the zero-allocation test hook
//!   the hot-path `debug_assert!`s (FM inner loop, FLUSIM event loop) read.
//!
//! The design goal is *determinism before ergonomics*: the same seed always
//! generates the same cases, in the same order, across runs and platforms
//! (all arithmetic is integer or exactly-rounded f64 multiplication).

pub mod alloc;
pub mod bench;
pub mod mem;
pub mod prop;
pub mod rng;

pub use bench::{BenchConfig, BenchStats, Bencher};
pub use mem::{current_rss_bytes, peak_rss_bytes};
pub use prop::{run_cases, PropConfig, Strategy, StrategyExt};
pub use rng::{Rng, SplitMix64};
