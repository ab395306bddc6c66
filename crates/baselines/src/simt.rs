//! A lockstep SIMT warp executor with divergence tracking.
//!
//! The free functions in [`csaw_gpu::warp`] model individual warp *idioms*
//! (scan, ballot, search); this module models warp *execution*: 32 lanes
//! running the same program with an active mask, where control-flow
//! divergence serializes the branch paths — the fundamental SIMT cost the
//! selection loop's `do-while` creates when lanes retry different numbers
//! of times (§IV-B).
//!
//! The executor runs a lane program step-by-step: each step every active
//! lane produces either a result or a continuation; the warp keeps
//! stepping until all lanes retire. Steps where only part of the warp is
//! active are counted as divergent, and every step costs one warp
//! instruction slot regardless of how many lanes do useful work — exactly
//! the hardware's behaviour.

use csaw_gpu::stats::SimStats;
use csaw_gpu::warp::WARP_SIZE;

/// What a lane does in one lockstep step.
pub enum LaneStep<T> {
    /// The lane retires with a value.
    Done(T),
    /// The lane needs another step.
    Continue,
}

/// Per-warp divergence telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DivergenceStats {
    /// Lockstep steps executed (warp instructions issued).
    pub steps: u64,
    /// Steps where some but not all resident lanes were active.
    pub divergent_steps: u64,
    /// Lane-steps that were masked off (idle lanes in active steps).
    pub idle_lane_steps: u64,
}

impl DivergenceStats {
    /// SIMT efficiency: useful lane-steps over issued lane-slots.
    pub fn efficiency(&self, lanes: usize) -> f64 {
        let issued = self.steps * lanes as u64;
        if issued == 0 {
            return 1.0;
        }
        1.0 - self.idle_lane_steps as f64 / issued as f64
    }
}

/// Executes `lanes` lane programs in lockstep until all retire.
///
/// `step(lane, round)` is called for every still-active lane each round.
/// Returns the per-lane results plus divergence stats; charges one warp
/// cycle per lockstep step into `stats`.
pub fn run_lockstep<T, F>(
    lanes: usize,
    stats: &mut SimStats,
    mut step: F,
) -> (Vec<T>, DivergenceStats)
where
    F: FnMut(usize, u64) -> LaneStep<T>,
{
    assert!(lanes <= WARP_SIZE, "a warp has at most {WARP_SIZE} lanes");
    let mut results: Vec<Option<T>> = (0..lanes).map(|_| None).collect();
    let mut active = lanes;
    let mut div = DivergenceStats::default();
    let mut round = 0u64;
    while active > 0 {
        div.steps += 1;
        stats.warp_cycles += 1;
        if active < lanes {
            div.divergent_steps += 1;
            div.idle_lane_steps += (lanes - active) as u64;
        }
        for (lane, slot) in results.iter_mut().enumerate() {
            if slot.is_some() {
                continue;
            }
            match step(lane, round) {
                LaneStep::Done(v) => {
                    *slot = Some(v);
                    active -= 1;
                }
                LaneStep::Continue => {}
            }
        }
        round += 1;
    }
    (results.into_iter().map(|r| r.expect("all lanes retired")).collect(), div)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_lanes_have_no_divergence() {
        let mut s = SimStats::new();
        let (out, div) = run_lockstep(8, &mut s, |lane, round| {
            if round == 2 {
                LaneStep::Done(lane * 10)
            } else {
                LaneStep::Continue
            }
        });
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
        assert_eq!(div.steps, 3);
        assert_eq!(div.divergent_steps, 0);
        assert_eq!(div.efficiency(8), 1.0);
        assert_eq!(s.warp_cycles, 3);
    }

    #[test]
    fn staggered_retirement_diverges() {
        let mut s = SimStats::new();
        // Lane i retires after i rounds: classic retry-loop divergence.
        let (_, div) = run_lockstep(4, &mut s, |lane, round| {
            if round >= lane as u64 {
                LaneStep::Done(())
            } else {
                LaneStep::Continue
            }
        });
        assert_eq!(div.steps, 4);
        assert_eq!(div.divergent_steps, 3);
        // Idle lane-steps: round1: 1 idle, round2: 2, round3: 3 = 6.
        assert_eq!(div.idle_lane_steps, 6);
        assert!((div.efficiency(4) - (1.0 - 6.0 / 16.0)).abs() < 1e-12);
    }

    #[test]
    fn single_lane_and_immediate_retire() {
        let mut s = SimStats::new();
        let (out, div) = run_lockstep(1, &mut s, |_, _| LaneStep::Done(42));
        assert_eq!(out, vec![42]);
        assert_eq!(div.steps, 1);
        let (out, _) = run_lockstep::<u32, _>(0, &mut s, |_, _| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn skewed_retry_loops_are_costlier_than_balanced() {
        // 8 lanes, 16 total retries: balanced (2 each) vs skewed (one lane
        // does 9). The skewed warp issues more steps for the same work —
        // the §IV-B motivation for reducing per-lane retry counts.
        let mut s = SimStats::new();
        let (_, balanced) = run_lockstep(8, &mut s, |_, round| {
            if round >= 2 {
                LaneStep::Done(())
            } else {
                LaneStep::Continue
            }
        });
        let (_, skewed) = run_lockstep(8, &mut s, |lane, round| {
            let need = if lane == 0 { 9 } else { 1 };
            if round >= need {
                LaneStep::Done(())
            } else {
                LaneStep::Continue
            }
        });
        assert!(skewed.steps > balanced.steps);
        assert!(skewed.efficiency(8) < balanced.efficiency(8));
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn rejects_oversized_warp() {
        let mut s = SimStats::new();
        let _ = run_lockstep(33, &mut s, |_, _| LaneStep::Done(()));
    }
}
