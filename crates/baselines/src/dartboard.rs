//! The dartboard (rejection) method (paper §II-B, Fig. 1c).
//!
//! Throw a 2-D dart: a uniform candidate column and a uniform height; if
//! the height clears the candidate's bias bar, reject and rethrow. Cheap
//! to set up, but "may require many trials before picking up a vertex
//! successfully, especially for scale-free graphs where a few candidates
//! have much larger biases than others" — which is exactly what the A3
//! ablation measures against inverse transform sampling. The serving
//! path's bounded rejection draw is `csaw_core::select::select_one_rejection`;
//! this full board is only the KnightKing baseline's and the ablation's.

use csaw_gpu::stats::SimStats;
use csaw_gpu::Philox;

/// A dartboard over a bias array.
#[derive(Debug, Clone, PartialEq)]
pub struct Dartboard {
    biases: Vec<f64>,
    max_bias: f64,
}

impl Dartboard {
    /// An empty board, for use as a [`Dartboard::rebuild`] target.
    pub fn empty() -> Dartboard {
        Dartboard { biases: Vec::new(), max_bias: 0.0 }
    }

    /// Builds the board (just records the max bar height — O(n) but with a
    /// trivial constant; this is the method's appeal).
    pub fn build(biases: &[f64], stats: &mut SimStats) -> Option<Dartboard> {
        let mut d = Dartboard::empty();
        d.rebuild(biases, stats).then_some(d)
    }

    /// Allocation-free form of [`Dartboard::build`]: rebuilds `self` in
    /// place, reusing its bias buffer. Returns `false` (leaving the board
    /// empty) on the inputs `build` rejects.
    ///
    /// Entries must be finite and non-negative: `fold(0.0, f64::max)`
    /// silently swallows NaN (so a NaN guard on the result is dead code),
    /// and a `+inf` bar makes every later [`Dartboard::sample`] throw
    /// land below the board ceiling forever — a non-terminating loop, not
    /// a bad sample. Reject at build time instead.
    pub fn rebuild(&mut self, biases: &[f64], stats: &mut SimStats) -> bool {
        self.biases.clear();
        self.max_bias = 0.0;
        if biases.is_empty() || biases.iter().any(|&b| !b.is_finite() || b < 0.0) {
            return false;
        }
        let max_bias = biases.iter().copied().fold(0.0f64, f64::max);
        if max_bias <= 0.0 {
            return false;
        }
        stats.warp_cycles += biases.len().div_ceil(32) as u64; // warp max-reduce
        self.biases.extend_from_slice(biases);
        self.max_bias = max_bias;
        true
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.biases.len()
    }

    /// True when the board has no candidates (never produced by `build`).
    pub fn is_empty(&self) -> bool {
        self.biases.is_empty()
    }

    /// Throws darts until one sticks; returns the candidate and charges
    /// one iteration per throw (comparable to SELECT's do-while trips).
    pub fn sample(&self, rng: &mut Philox, stats: &mut SimStats) -> usize {
        loop {
            stats.rng_draws += 2;
            stats.select_iterations += 1;
            // Two draws + one dependent read of the bias bar.
            stats.warp_cycles += 8 + 16;
            let col = rng.below(self.biases.len() as u64) as usize;
            let height = rng.uniform() * self.max_bias;
            if height < self.biases[col] {
                stats.selections += 1;
                return col;
            }
        }
    }

    /// Expected throws per accepted dart: `n * max / Σ biases`.
    pub fn expected_trials(&self) -> f64 {
        self.biases.len() as f64 * self.max_bias / self.biases.iter().sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_matches_bias_distribution() {
        let biases = [3.0, 6.0, 2.0, 2.0, 2.0];
        let mut s = SimStats::new();
        let d = Dartboard::build(&biases, &mut s).unwrap();
        let mut rng = Philox::new(6);
        let n = 200_000;
        let mut counts = [0usize; 5];
        for _ in 0..n {
            counts[d.sample(&mut rng, &mut s)] += 1;
        }
        let total: f64 = biases.iter().sum();
        for (i, &c) in counts.iter().enumerate() {
            let f = c as f64 / n as f64;
            assert!((f - biases[i] / total).abs() < 0.01, "col {i}");
        }
    }

    #[test]
    fn skew_inflates_trial_count() {
        let flat = Dartboard::build(&[1.0; 16], &mut SimStats::new()).unwrap();
        let mut skewed = vec![1.0; 16];
        skewed[0] = 100.0;
        let skew = Dartboard::build(&skewed, &mut SimStats::new()).unwrap();
        assert!((flat.expected_trials() - 1.0).abs() < 1e-9);
        assert!(skew.expected_trials() > 10.0);

        // Measured trials agree with the analytic expectation.
        let mut s = SimStats::new();
        let mut rng = Philox::new(7);
        for _ in 0..5_000 {
            skew.sample(&mut rng, &mut s);
        }
        let measured = s.iterations_per_selection();
        assert!(
            (measured - skew.expected_trials()).abs() / skew.expected_trials() < 0.1,
            "measured {measured} vs expected {}",
            skew.expected_trials()
        );
    }

    #[test]
    fn empty_or_zero_is_none() {
        let mut s = SimStats::new();
        assert!(Dartboard::build(&[], &mut s).is_none());
        assert!(Dartboard::build(&[0.0], &mut s).is_none());
    }

    /// Regression: a `+inf` bar used to survive `build` (the NaN guard
    /// checked the folded max, which can never be NaN), and the resulting
    /// board's `sample()` rejected forever — this test hung before the
    /// build-time guard.
    #[test]
    fn non_finite_biases_are_rejected_at_build() {
        let mut s = SimStats::new();
        assert!(Dartboard::build(&[1.0, f64::INFINITY], &mut s).is_none());
        assert!(Dartboard::build(&[f64::NAN, 1.0], &mut s).is_none());
        assert!(Dartboard::build(&[1.0, f64::NAN], &mut s).is_none());
        assert!(Dartboard::build(&[1.0, -2.0], &mut s).is_none());
        // Rejected builds charge no work.
        assert_eq!(s.warp_cycles, 0);
    }

    #[test]
    fn rebuild_matches_build_and_reuses_buffers() {
        let biases = [3.0, 6.0, 2.0];
        let mut s = SimStats::new();
        let built = Dartboard::build(&biases, &mut s).unwrap();
        let mut d = Dartboard::empty();
        assert!(d.rebuild(&[5.0, 1.0, 1.0, 1.0], &mut s));
        assert!(d.rebuild(&biases, &mut s));
        assert_eq!(d, built);
        assert!(!d.rebuild(&[1.0, f64::INFINITY], &mut s));
        assert!(d.is_empty());
    }

    #[test]
    fn zero_bias_columns_never_stick() {
        let mut s = SimStats::new();
        let d = Dartboard::build(&[0.0, 1.0, 0.0], &mut s).unwrap();
        let mut rng = Philox::new(8);
        for _ in 0..1000 {
            assert_eq!(d.sample(&mut rng, &mut s), 1);
        }
    }
}
