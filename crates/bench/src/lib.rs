//! Shared fixtures for the Criterion benchmarks (see `benches/`).
//!
//! One bench target exists per experimental artefact: `similarity`
//! (Figure 2a/2b metric cost), `recognition` (Figure 2c engine
//! throughput and the window ablation), plus micro-benchmarks for the
//! load-bearing algorithms (`hungarian`, `parser`, `intervals`) and the
//! streaming service (`service`, `scale`, `checkpoint`).

#![forbid(unsafe_code)]

use maritime::{BrestScenario, Dataset};

/// A small but complete dataset (all eight activities present).
pub fn small_dataset() -> Dataset {
    Dataset::generate(&BrestScenario::small())
}

/// The default-scale dataset used by the recognition benchmarks.
pub fn default_dataset() -> Dataset {
    Dataset::generate(&BrestScenario::default())
}

/// A deterministic pseudo-random number generator for workload synthesis
/// (xorshift; no external seeding required).
pub struct XorShift(pub u64);

impl XorShift {
    /// Next value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Next value in `[0, n)`.
    pub fn next_usize(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let d = small_dataset();
        assert!(!d.stream.is_empty());
        let mut rng = XorShift(42);
        let x = rng.next_f64();
        assert!((0.0..1.0).contains(&x));
        assert!(rng.next_usize(10) < 10);
    }
}
