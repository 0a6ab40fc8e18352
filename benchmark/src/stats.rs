//! Small numeric helpers: quantiles, seed derivation, fingerprints.

use std::time::Instant;
use tempart_graph::PartId;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by linear interpolation
/// between order statistics; `NaN` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Runs `f` once and returns its result with the wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = std::hint::black_box(f());
    (r, t0.elapsed().as_secs_f64())
}

/// SplitMix64 step — the generator the experiment binaries use.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `n` partitioner / jitter seeds a run cycles through. Instance 0 is
/// `--seed` itself, so `--seed 0x5EED` reproduces `PipelineConfig::
/// paper_default` exactly.
pub fn panel_seeds(seed: u64, n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| {
            if i == 0 {
                seed
            } else {
                splitmix64(seed.wrapping_add(i))
            }
        })
        .collect()
}

/// FNV-1a accumulator over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes one word in, byte by byte.
    pub fn word(mut self, w: u64) -> Self {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// Mixes a part vector in.
    pub fn part(mut self, part: &[PartId]) -> Self {
        for &p in part {
            self = self.word(u64::from(p));
        }
        self
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn panel_starts_at_the_seed_and_is_distinct() {
        let p = panel_seeds(0x5EED, 8);
        assert_eq!(p[0], 0x5EED);
        let mut q = p.clone();
        q.sort_unstable();
        q.dedup();
        assert_eq!(q.len(), 8);
        assert_eq!(p, panel_seeds(0x5EED, 8));
    }
}
