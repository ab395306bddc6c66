//! Lane-level SIMT implementation of SELECT — a second, independently
//! structured implementation of the Fig. 5 kernel used for differential
//! testing and divergence measurement.
//!
//! [`csaw_core::select::select_without_replacement`] simulates the warp in
//! *rounds* (all pending lanes advance together); this module runs the
//! same algorithm through [`csaw_gpu::simt::run_lockstep`], where each
//! lane is an explicit program over `(draw, search, claim)` micro-steps
//! and the executor tracks control-flow divergence. Both implementations
//! must realize the same distribution; the divergence stats quantify the
//! §IV-B observation that uneven per-lane retry counts waste warp issue
//! slots — and that bipartite region search, by cutting retries, also
//! cuts divergence.
//!
//! Method-policy note: the SIMT executor serves only the ITS family.
//! [`csaw_core::MethodPolicy::Adaptive`] only ever changes
//! with-replacement draws, and this module executes without-replacement
//! selections, so SIMT runs are unaffected by the policy and stay
//! bit-identical to the round-based loop.

use csaw_core::bipartite::{adjust_and_search, BipartiteOutcome};
use csaw_core::collision::Detector;
#[cfg(test)]
use csaw_core::collision::DetectorKind;
use csaw_core::ctps::Ctps;
use csaw_core::select::{SelectConfig, SelectStrategy};
use csaw_gpu::simt::{run_lockstep, DivergenceStats, LaneStep};
use csaw_gpu::stats::SimStats;
use csaw_gpu::Philox;
use std::cell::RefCell;

/// Result of a SIMT-executed selection.
#[derive(Debug, Clone, Default)]
pub struct SimtSelection {
    /// Selected candidate indices (distinct, positive bias).
    pub selected: Vec<usize>,
    /// Divergence telemetry from the lockstep executor.
    pub divergence: DivergenceStats,
}

/// Lane-level SELECT: `k` lanes each claim one distinct candidate from
/// `biases`, with per-lane retry loops executed in lockstep. Supports the
/// `Repeated` and `Bipartite` strategies (`Updated` rebuilds warp-shared
/// state mid-kernel and needs the round-structured implementation).
pub fn select_without_replacement_simt(
    biases: &[f64],
    k: usize,
    cfg: SelectConfig,
    rng: &mut Philox,
    stats: &mut SimStats,
) -> SimtSelection {
    assert!(
        cfg.strategy != SelectStrategy::Updated,
        "Updated sampling rebuilds warp-shared state; use the round-based SELECT"
    );
    let n = biases.len();
    let selectable = biases.iter().filter(|&&b| b > 0.0).count();
    let k = k.min(selectable).min(csaw_gpu::WARP_SIZE);
    let mut ctps = Ctps::default();
    if k == 0 || !ctps.rebuild(biases, stats) {
        return SimtSelection::default();
    }
    if k == selectable {
        stats.selections += k as u64;
        stats.select_iterations += k as u64;
        let selected = (0..n).filter(|&i| biases[i] > 0.0).collect();
        return SimtSelection { selected, divergence: DivergenceStats::default() };
    }

    // The detector and RNG are warp-shared; lanes access them in lane
    // order within a lockstep step (deterministic, like hardware's fixed
    // arbitration in the simulated model).
    let detector = RefCell::new(Detector::new(cfg.detector, n));
    let outcomes_cell = RefCell::new(Vec::new());
    let rng = RefCell::new(rng);
    let stats_cell = RefCell::new(stats);

    let (selected, divergence) = {
        let ctps = &ctps;
        let detector = &detector;
        let outcomes_cell = &outcomes_cell;
        let rng = &rng;
        let stats_cell = &stats_cell;
        run_lockstep(k, &mut SimStats::new(), move |_lane, _round| {
            let mut stats = stats_cell.borrow_mut();
            let stats: &mut SimStats = &mut stats;
            let mut rng = rng.borrow_mut();
            stats.rng_draws += 1;
            stats.select_iterations += 1;
            stats.warp_cycles += 4;
            let r = rng.uniform();
            let pick = ctps.search(r, stats);
            let mut det = detector.borrow_mut();
            let mut outcome = outcomes_cell.borrow_mut();
            det.claim_round_into(&[Some(pick)], &mut outcome, stats);
            if outcome[0] == Some(true) {
                return LaneStep::Done(pick);
            }
            if cfg.strategy == SelectStrategy::Bipartite {
                stats.rng_draws += 1;
                let r2 = rng.uniform();
                let is_sel = |c: usize, s: &mut SimStats| det.is_selected(c, s);
                if let BipartiteOutcome::Selected(c) =
                    adjust_and_search(ctps, pick, r2, is_sel, stats)
                {
                    det.claim_round_into(&[Some(c)], &mut outcome, stats);
                    if outcome[0] == Some(true) {
                        return LaneStep::Done(c);
                    }
                }
            }
            LaneStep::Continue
        })
    };
    let stats = stats_cell.into_inner();
    stats.selections += selected.len() as u64;
    stats.warp_cycles += divergence.steps; // issue slots
    SimtSelection { selected, divergence }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn cfg(strategy: SelectStrategy) -> SelectConfig {
        SelectConfig { strategy, detector: DetectorKind::paper_default() }
    }

    #[test]
    fn postconditions_match_round_based_select() {
        let biases = vec![8.0, 0.0, 4.0, 2.0, 1.0, 1.0];
        let mut rng = Philox::new(1);
        let mut s = SimStats::new();
        for _ in 0..500 {
            let out = select_without_replacement_simt(
                &biases,
                3,
                cfg(SelectStrategy::Bipartite),
                &mut rng,
                &mut s,
            );
            assert_eq!(out.selected.len(), 3);
            let mut x = out.selected.clone();
            x.sort_unstable();
            x.dedup();
            assert_eq!(x.len(), 3);
            assert!(!out.selected.contains(&1));
        }
    }

    /// Differential test: the SIMT implementation realizes the same
    /// marginal distribution as the round-based one.
    #[test]
    fn distribution_matches_round_based() {
        let biases = vec![8.0, 4.0, 2.0, 1.0, 1.0];
        let trials = 150_000;
        let mut freq_simt: HashMap<usize, usize> = HashMap::new();
        let mut freq_round: HashMap<usize, usize> = HashMap::new();
        let mut rng = Philox::new(7);
        let mut s = SimStats::new();
        for _ in 0..trials {
            for i in select_without_replacement_simt(
                &biases,
                2,
                cfg(SelectStrategy::Bipartite),
                &mut rng,
                &mut s,
            )
            .selected
            {
                *freq_simt.entry(i).or_default() += 1;
            }
            for i in csaw_core::select::select_without_replacement(
                &biases,
                2,
                cfg(SelectStrategy::Bipartite),
                &mut rng,
                &mut s,
            ) {
                *freq_round.entry(i).or_default() += 1;
            }
        }
        for i in 0..biases.len() {
            let a = *freq_simt.get(&i).unwrap_or(&0) as f64 / trials as f64;
            let b = *freq_round.get(&i).unwrap_or(&0) as f64 / trials as f64;
            assert!((a - b).abs() < 0.01, "candidate {i}: simt {a} vs round {b}");
        }
    }

    /// The §IV-B divergence claim: bipartite region search reduces both
    /// retries and warp divergence on a skewed CTPS.
    #[test]
    fn bipartite_reduces_divergence() {
        let mut biases = vec![1.0; 16];
        biases[0] = 200.0;
        let run = |strategy| {
            let mut rng = Philox::new(9);
            let mut s = SimStats::new();
            let mut steps = 0u64;
            let mut idle = 0u64;
            for _ in 0..2000 {
                let out =
                    select_without_replacement_simt(&biases, 8, cfg(strategy), &mut rng, &mut s);
                steps += out.divergence.steps;
                idle += out.divergence.idle_lane_steps;
            }
            (steps, idle)
        };
        let (rep_steps, rep_idle) = run(SelectStrategy::Repeated);
        let (bip_steps, bip_idle) = run(SelectStrategy::Bipartite);
        assert!(bip_steps < rep_steps, "steps: {bip_steps} vs {rep_steps}");
        assert!(bip_idle < rep_idle, "idle lane-steps: {bip_idle} vs {rep_idle}");
    }

    #[test]
    fn empty_and_degenerate() {
        let mut rng = Philox::new(2);
        let mut s = SimStats::new();
        let out = select_without_replacement_simt(
            &[],
            2,
            cfg(SelectStrategy::Repeated),
            &mut rng,
            &mut s,
        );
        assert!(out.selected.is_empty());
        let out = select_without_replacement_simt(
            &[1.0, 2.0],
            5,
            cfg(SelectStrategy::Repeated),
            &mut rng,
            &mut s,
        );
        assert_eq!(out.selected.len(), 2, "short-circuit takes everything");
        assert_eq!(out.divergence.steps, 0);
    }

    #[test]
    #[should_panic(expected = "Updated")]
    fn rejects_updated_strategy() {
        let mut rng = Philox::new(3);
        let mut s = SimStats::new();
        let _ = select_without_replacement_simt(
            &[1.0, 2.0, 3.0],
            2,
            cfg(SelectStrategy::Updated),
            &mut rng,
            &mut s,
        );
    }
}
