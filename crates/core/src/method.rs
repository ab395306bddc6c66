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
//! positive [`crate::api::Algorithm::edge_bias_bound`], the degree is at
//! least [`REJECTION_MIN_DEGREE`], and [`RejectionFeedback::allow`] says
//! acceptance is healthy. Every other expansion takes exactly the
//! [`MethodPolicy::ForceIts`] path.
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

/// Expected-trials ceiling: when a feedback window's mean trials per
/// expansion exceeds this, rejection is throwing too many darts and ITS
/// is cheaper.
pub const MAX_EXPECTED_TRIALS: f64 = 8.0;

/// The one rejection predicate: the algorithm's a-priori `bound`, if it
/// is finite and positive, the frontier `degree` reaches
/// [`REJECTION_MIN_DEGREE`], and the live feedback `allowed` it
/// ([`RejectionFeedback::allow`]). `None` means ITS.
pub(crate) fn rejection_bound(bound: Option<f64>, degree: usize, allowed: bool) -> Option<f64> {
    bound.filter(|b| b.is_finite() && *b > 0.0 && degree >= REJECTION_MIN_DEGREE && allowed)
}

/// Per-worker live feedback for the rejection sampler: when measured
/// acceptance collapses (heavy skew the a-priori bound can't see), stop
/// choosing rejection for a cooldown window, then re-probe.
#[derive(Debug, Clone, Copy, Default)]
pub struct RejectionFeedback {
    trials: u64,
    expansions: u64,
    cooldown: u32,
}

/// Throws observed before the acceptance rate is judged.
const FEEDBACK_WINDOW_TRIALS: u64 = 512;
/// Expansions to route to ITS after a collapse before re-probing.
const FEEDBACK_COOLDOWN: u32 = 1024;

impl RejectionFeedback {
    /// Fresh feedback (rejection allowed).
    pub fn new() -> RejectionFeedback {
        RejectionFeedback::default()
    }

    /// Whether the kernel may pick rejection right now. Counts down the
    /// cooldown while disabled so the sampler re-probes periodically.
    pub fn allow(&mut self) -> bool {
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return false;
        }
        true
    }

    /// Records one rejection-served expansion that took `trials` throws
    /// (exhausted expansions count the full cap). Once a window's mean
    /// trials/expansion exceeds [`MAX_EXPECTED_TRIALS`], trips the
    /// cooldown.
    pub fn record(&mut self, trials: u64) {
        self.trials += trials;
        self.expansions += 1;
        if self.trials >= FEEDBACK_WINDOW_TRIALS {
            if self.trials as f64 > MAX_EXPECTED_TRIALS * self.expansions as f64 {
                self.cooldown = FEEDBACK_COOLDOWN;
            }
            self.trials = 0;
            self.expansions = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_bias_needs_bound_degree_and_health() {
        assert_eq!(rejection_bound(Some(2.0), 16, true), Some(2.0));
        assert_eq!(rejection_bound(None, 16, true), None);
        assert_eq!(rejection_bound(Some(f64::INFINITY), 16, true), None);
        assert_eq!(rejection_bound(Some(0.0), 16, true), None);
        assert_eq!(rejection_bound(Some(2.0), REJECTION_MIN_DEGREE - 1, true), None);
        assert_eq!(rejection_bound(Some(2.0), REJECTION_MIN_DEGREE, true), Some(2.0));
        assert_eq!(rejection_bound(Some(2.0), 16, false), None);
    }

    #[test]
    fn feedback_trips_on_collapsed_acceptance_and_reprobes() {
        let mut f = RejectionFeedback::new();
        assert!(f.allow());
        // A healthy window: 512 throws over 512 expansions.
        for _ in 0..512 {
            f.record(1);
        }
        assert!(f.allow());
        // A collapsed window: every expansion exhausts a 32-throw cap.
        for _ in 0..16 {
            f.record(32);
        }
        assert!(!f.allow(), "collapsed acceptance must trip the cooldown");
        // The cooldown expires after FEEDBACK_COOLDOWN denials.
        let mut denials = 1;
        while !f.allow() {
            denials += 1;
            assert!(denials <= 1025, "cooldown never expired");
        }
        assert!(f.allow());
    }
}
