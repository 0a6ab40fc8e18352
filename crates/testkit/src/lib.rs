#![warn(missing_docs)]
//! # tempart-testkit — hermetic, std-only test substrate
//!
//! This workspace builds with **zero external crate dependencies** so that
//! `cargo build --offline && cargo test --offline` succeeds on an air-gapped
//! machine (the environment the paper-reproduction CI runs in). This crate
//! provides the pieces that external crates used to supply, plus the
//! allocation and memory probes the tests read:
//!
//! * [`rng`] — a seedable SplitMix64 / xoshiro256\*\* PRNG with
//!   `gen_range` / `shuffle` / `choose`, replacing `rand::rngs::SmallRng`.
//!   The partitioner's tie-breaking shuffles and growth seeds run on it, so
//!   every partition is a pure function of `(graph, config.seed)`.
//! * [`prop`] — a deterministic property-testing harness with fixed-seed
//!   case generation and bounded shrinking, plus a [`proptest!`]-style macro,
//!   replacing the `proptest` crate. Failures print the seed, case index and
//!   the minimised input so they reproduce byte-for-byte.
//! * [`alloc`] — a counting global allocator, the zero-allocation test hook
//!   the hot-path `debug_assert!`s (FM inner loop, FLUSIM event loop) read.
//! * [`mem`] — the process's current and peak resident-set size, read from
//!   procfs.
//!
//! Nothing here times the product: wall-clock numbers come from the
//! separate `benchmark/` package alone.
//!
//! The design goal is *determinism before ergonomics*: the same seed always
//! generates the same cases, in the same order, across runs and platforms
//! (all arithmetic is integer or exactly-rounded f64 multiplication).

pub mod alloc;
pub mod mem;
pub mod prop;
pub mod rng;

pub use mem::{current_rss_bytes, peak_rss_bytes};
pub use prop::{run_cases, PropConfig, Strategy, StrategyExt};
pub use rng::{Rng, SplitMix64};
