//! Global-clock measurement helpers.
//!
//! The simulator's virtual clock is *perfectly* synchronised across ranks —
//! the ideal that MPIBench's hardware clock synchronisation approximates.
//! To study what clock-synchronisation error does to measured distributions
//! (the Abl-clock ablation), [`ClockModel`] can inject a fixed per-rank
//! offset, drawn uniformly from ±`max_offset`, into every timestamp a rank
//! reads — exactly the error structure of an imperfectly synchronised
//! distributed clock.

use pevpm_netsim::Time;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Per-rank clock-reading model.
#[derive(Debug, Clone)]
pub struct ClockModel {
    offsets: Vec<f64>,
}

impl ClockModel {
    /// A perfectly synchronised clock (all offsets zero).
    pub fn perfect(nranks: usize) -> Self {
        ClockModel {
            offsets: vec![0.0; nranks],
        }
    }

    /// A clock with a fixed per-rank offset drawn uniformly from
    /// `[-max_offset_secs, +max_offset_secs]`.
    pub fn skewed(nranks: usize, max_offset_secs: f64, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        ClockModel {
            offsets: (0..nranks)
                .map(|_| rng.gen_range(-max_offset_secs..=max_offset_secs))
                .collect(),
        }
    }

    /// Timestamp `t` as read by `rank` (seconds).
    pub fn read(&self, rank: usize, t: Time) -> f64 {
        t.as_secs_f64() + self.offsets[rank]
    }

    /// The injected offset of `rank`, in seconds.
    pub fn offset(&self, rank: usize) -> f64 {
        self.offsets[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_clock_reads_true_time() {
        let c = ClockModel::perfect(4);
        assert_eq!(c.read(2, Time::from_secs_f64(1.5)), 1.5);
    }

    #[test]
    fn skewed_clock_bounds_offsets() {
        let c = ClockModel::skewed(16, 1e-4, 7);
        for r in 0..16 {
            assert!(c.offset(r).abs() <= 1e-4);
        }
        assert!((0..16).any(|r| c.offset(r) != 0.0));
    }

    #[test]
    fn skew_is_deterministic_per_seed() {
        let a = ClockModel::skewed(8, 1e-3, 42);
        let b = ClockModel::skewed(8, 1e-3, 42);
        for r in 0..8 {
            assert_eq!(a.offset(r), b.offset(r));
        }
    }
}
