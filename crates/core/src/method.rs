//! Rejection sampling as the one alternative to ITS.
//!
//! C-SAW hardwires inverse transform sampling (ITS) into the kernel, and
//! for a bias that is the same on every visit the CTPS cache makes ITS
//! hits O(log d) in place. A *dynamic* bias (node2vec's, which reads the
//! walk's previous vertex) cannot be cached, so ITS evaluates all `d`
//! candidate biases every step. Bounded rejection evaluates only the
//! proposed candidate's (FlexiWalker, PAPERS.md). Under
//! [`MethodPolicy::Adaptive`], [`crate::step::StepKernel`] serves a
//! per-vertex, with-replacement, dynamic-bias expansion by rejection when
//! one predicate, `rejection_bound`, holds: the algorithm returns a finite
//! positive [`crate::api::Algorithm::edge_bias_bound`] and the degree is
//! at least [`REJECTION_MIN_DEGREE`]. Every other expansion takes exactly
//! the [`MethodPolicy::ForceIts`] path. The choice reads only the
//! expansion's own inputs, so it does not depend on the thread, the
//! schedule or what ran before. A pick whose bound is loose for its skew
//! costs at most [`REJECTION_MAX_TRIALS`] throws before the exact ITS
//! fallback.
//!
//! The contract split: `ForceIts` (the default) keeps the kernel
//! bit-identical to the pinned `step_golden` output, because ITS consumes
//! exactly one draw per selection from the per-task Philox stream.
//! Rejection consumes two per throw, so `Adaptive` output is validated by
//! chi-square distribution equality instead of bit-exactness — both
//! methods sample the same target distribution.

/// Which sampling methods the kernel may use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MethodPolicy {
    /// Inverse transform sampling everywhere (plus the closed-form
    /// uniform path): bit-identical to the pinned goldens.
    #[default]
    ForceIts,
    /// Rejection for dynamic-bias expansions the predicate admits (see
    /// the module docs). Distribution-equal to `ForceIts`, not bit-equal.
    Adaptive,
}

/// Minimum frontier degree before rejection can beat ITS: each ITS step
/// evaluates all `d` candidate biases, each rejection throw evaluates
/// one, so the break-even sits near the expected trial count.
pub const REJECTION_MIN_DEGREE: usize = 4;

/// Throw cap per rejection-served pick: past this the kernel falls back
/// to the exact ITS lane (a termination guarantee; mixing exact methods
/// preserves the target distribution).
pub const REJECTION_MAX_TRIALS: u64 = 32;

/// The one rejection predicate: the algorithm's a-priori `bound`, if it
/// is finite and positive and the frontier `degree` reaches
/// [`REJECTION_MIN_DEGREE`]. `None` means ITS.
pub(crate) fn rejection_bound(bound: Option<f64>, degree: usize) -> Option<f64> {
    bound.filter(|b| b.is_finite() && *b > 0.0 && degree >= REJECTION_MIN_DEGREE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_bias_needs_a_bound_and_degree() {
        assert_eq!(rejection_bound(Some(2.0), 16), Some(2.0));
        assert_eq!(rejection_bound(None, 16), None);
        assert_eq!(rejection_bound(Some(f64::INFINITY), 16), None);
        assert_eq!(rejection_bound(Some(0.0), 16), None);
        assert_eq!(rejection_bound(Some(2.0), REJECTION_MIN_DEGREE - 1), None);
        assert_eq!(rejection_bound(Some(2.0), REJECTION_MIN_DEGREE), Some(2.0));
    }
}
