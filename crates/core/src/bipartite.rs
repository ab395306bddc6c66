//! Bipartite region search (paper §IV-B, Theorem 2).
//!
//! When a lane's random number `r'` lands in an already-selected region
//! `(l, h)` of the CTPS, naive *repeated sampling* redraws (wasting
//! iterations on skewed CTPSs) and *updated sampling* rebuilds the CTPS
//! (wasting a prefix sum). Bipartite region search instead **adjusts the
//! random number** so the original CTPS can be reused while making exactly
//! the selection updated sampling would make:
//!
//! with `δ = h − l` and `λ = 1 / (1 − δ)`,
//! - `r = r' / λ`; if `r < l`, search `(0, l)`;
//! - otherwise search `(h, 1)` with `r + δ`.
//!
//! Theorem 2 proves the mapping sends the updated CTPS's boundaries onto
//! the original's, so the adjusted search is distribution-identical to
//! re-normalizing with the selected vertex removed.
//!
//! **A subtlety the reproduction surfaced:** the adjustment is the inverse
//! of Theorem 2's boundary map, so it is distribution-correct when the
//! number being mapped is a *fresh* uniform draw — "r′ is the random
//! number for the updated CTPS" in the paper's own proof. Re-using the
//! number that collided (as the Fig. 6c walkthrough appears to) feeds the
//! map a number that is uniform only over the collided region `(l, h)`,
//! which our statistical tests show skews the result. The SELECT loop in
//! [`crate::select`] therefore draws a fresh number before adjusting; the
//! Fig. 6c walkthrough is still reproduced verbatim as a boundary-mapping
//! test below.

use crate::ctps::{Ctps, CtpsView};
use csaw_gpu::stats::SimStats;

/// Outcome of one bipartite adjustment attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BipartiteOutcome {
    /// The adjusted number selected this candidate.
    Selected(usize),
    /// The adjusted number landed in *another* already-selected region
    /// (possible once several vertices are pre-selected); the caller
    /// restarts with a fresh random number (paper step 4/5 → step 1).
    Restart,
}

/// Performs the §IV-B adjustment: `r_prime` hit the selected region of
/// candidate `hit` (region `(l, h)`); returns the candidate the adjusted
/// number selects on the *original* CTPS. `is_selected` reports whether a
/// candidate is already taken; it receives the stats sink so the detector
/// can charge the probe (see [`crate::collision::Detector::is_selected`]).
/// Generic over [`CtpsView`] so the closed-form uniform path reuses it.
pub fn adjust_and_search<C: CtpsView>(
    ctps: &C,
    hit: usize,
    r_prime: f64,
    mut is_selected: impl FnMut(usize, &mut SimStats) -> bool,
    stats: &mut SimStats,
) -> BipartiteOutcome {
    let (l, h) = ctps.region(hit);
    let delta = h - l;
    debug_assert!(delta > 0.0 && delta < 1.0, "selected region must have width in (0,1)");
    // Step 3: r = r' / λ = r' * (1 - δ).
    let r = r_prime * (1.0 - delta);
    stats.warp_cycles += 2; // the multiply + compare of the adjustment
    let r_adj = if r < l {
        // Step 4: search (0, l).
        r
    } else {
        // Step 5: search (h, 1) with r + δ.
        r + delta
    };
    let cand = ctps.search(r_adj, stats);
    if cand == hit {
        // FP edge: adjusted value landed back on the boundary of the hit
        // region; treat as a failed attempt.
        return BipartiteOutcome::Restart;
    }
    if is_selected(cand, stats) {
        BipartiteOutcome::Restart
    } else {
        BipartiteOutcome::Selected(cand)
    }
}

/// *Updated sampling* for one step, arena-reuse form: masks the selected
/// candidates' biases to zero in `masked` and rebuilds `ctps` in place
/// (no allocation once both buffers are warm). Charges exactly what
/// [`updated_ctps`] charges. Returns `false` — leaving `ctps` empty —
/// when every candidate is selected (total bias zero).
///
/// Kept out of line: only [`crate::select::SelectStrategy::Updated`]
/// reaches it, and inlined into the shared without-replacement SELECT it
/// slows the other strategies' rounds (≈ 10% on a bipartite
/// biased-neighbor launch, x86-64, default release profile).
#[inline(never)]
pub fn updated_ctps_into(
    biases: &[f64],
    selected: &[bool],
    masked: &mut Vec<f64>,
    ctps: &mut Ctps,
    stats: &mut SimStats,
) -> bool {
    masked.clear();
    masked.extend(biases.iter().zip(selected).map(|(&b, &s)| if s { 0.0 } else { b }));
    ctps.rebuild(masked, stats)
}

/// Reference implementation of *updated sampling* for one step: rebuilds
/// the CTPS with the selected candidates' biases zeroed and searches `r'`
/// on it. Used by tests and the `Updated` strategy.
pub fn updated_ctps(biases: &[f64], selected: &[bool], stats: &mut SimStats) -> Option<Ctps> {
    let mut masked = Vec::new();
    let mut ctps = Ctps::empty();
    updated_ctps_into(biases, selected, &mut masked, &mut ctps, stats).then_some(ctps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_gpu::Philox;

    fn fig1_biases() -> Vec<f64> {
        vec![3.0, 6.0, 2.0, 2.0, 2.0]
    }

    /// The worked example of Fig. 6(c): v7 (index 1) pre-selected,
    /// r' = 0.58 must select v10 (index 3) after adjustment.
    #[test]
    fn paper_walkthrough_fig6c() {
        let mut s = SimStats::new();
        let ctps = Ctps::build(&fig1_biases(), &mut s).unwrap();
        let selected = [false, true, false, false, false];
        // r' = 0.58 lands in (0.2, 0.6) = v7's region.
        assert_eq!(ctps.search(0.58, &mut s), 1);
        let out = adjust_and_search(&ctps, 1, 0.58, |k, _| selected[k], &mut s);
        assert_eq!(out, BipartiteOutcome::Selected(3), "paper: 0.748 corresponds to v10");
    }

    /// Theorem 2, checked directly: for every pre-selected single vertex
    /// `s` and a dense grid of r', the bipartite-adjusted selection on the
    /// original CTPS equals the selection of r' on the updated CTPS.
    #[test]
    fn theorem2_equivalence_single_preselection() {
        let biases = fig1_biases();
        let mut st = SimStats::new();
        let ctps = Ctps::build(&biases, &mut st).unwrap();
        for s in 0..biases.len() {
            let mut sel = vec![false; biases.len()];
            sel[s] = true;
            let upd = updated_ctps(&biases, &sel, &mut st).unwrap();
            for i in 0..10_000 {
                let r_prime = (i as f64 + 0.5) / 10_000.0;
                let expect = upd.search(r_prime, &mut st);
                // The map is parameterized by the removed region `s`: for
                // ANY r' meant for the updated CTPS, adjusting it around
                // `s` must reproduce the updated CTPS's selection on the
                // original CTPS.
                let got = match adjust_and_search(&ctps, s, r_prime, |k, _| sel[k], &mut st) {
                    BipartiteOutcome::Selected(k) => k,
                    BipartiteOutcome::Restart => panic!("single preselection never restarts"),
                };
                assert_eq!(got, expect, "s={s} r'={r_prime}");
            }
        }
    }

    /// Statistical equivalence with a *random* r' for the adjusted path:
    /// conditioned on hitting the selected region, the adjusted selection
    /// must follow the renormalized distribution of the remaining vertices.
    #[test]
    fn adjusted_distribution_matches_renormalized() {
        let biases = fig1_biases();
        let mut st = SimStats::new();
        let ctps = Ctps::build(&biases, &mut st).unwrap();
        let sel = [false, true, false, false, false]; // v7 out
        let mut rng = Philox::new(123);
        let mut counts = [0usize; 5];
        let mut hits = 0usize;
        for _ in 0..2_000_000 {
            let r = rng.uniform();
            let first = ctps.search(r, &mut st);
            if first != 1 {
                continue;
            }
            hits += 1;
            // Fresh draw for the adjustment (see module docs): this is what
            // the SELECT loop does in production.
            let r_fresh = rng.uniform();
            match adjust_and_search(&ctps, 1, r_fresh, |k, _| sel[k], &mut st) {
                BipartiteOutcome::Selected(k) => counts[k] += 1,
                BipartiteOutcome::Restart => panic!("no other selected region exists"),
            }
        }
        assert!(hits > 100_000, "region 1 has probability 0.4");
        // Remaining biases {3, 2, 2, 2} → probabilities {1/3, 2/9, 2/9, 2/9}.
        let expect = [3.0 / 9.0, 0.0, 2.0 / 9.0, 2.0 / 9.0, 2.0 / 9.0];
        for k in [0usize, 2, 3, 4] {
            let f = counts[k] as f64 / hits as f64;
            assert!((f - expect[k]).abs() < 0.01, "k={k} freq {f} vs {}", expect[k]);
        }
        assert_eq!(counts[1], 0, "pre-selected vertex must never be re-selected");
    }

    /// With several vertices pre-selected the adjustment may land on
    /// another selected region → Restart, never a silent duplicate.
    #[test]
    fn multi_preselection_never_returns_selected() {
        let biases = vec![5.0, 1.0, 1.0, 5.0, 1.0, 2.0];
        let mut st = SimStats::new();
        let ctps = Ctps::build(&biases, &mut st).unwrap();
        let sel = [true, false, true, true, false, false];
        let mut rng = Philox::new(9);
        for _ in 0..100_000 {
            let r = rng.uniform();
            let first = ctps.search(r, &mut st);
            if !sel[first] {
                continue;
            }
            if let BipartiteOutcome::Selected(k) =
                adjust_and_search(&ctps, first, r, |k, _| sel[k], &mut st)
            {
                assert!(!sel[k], "returned an already-selected vertex {k}");
            }
        }
    }

    #[test]
    fn updated_ctps_zeroes_selected() {
        let mut st = SimStats::new();
        let upd =
            updated_ctps(&fig1_biases(), &[false, true, false, false, false], &mut st).unwrap();
        // Paper Fig. 6(b): updated CTPS {0.33, 0.56, 0.78, 1} over the
        // remaining vertices. Ours keeps the removed vertex as a
        // zero-width region, so its bounds are {1/3, 1/3, 5/9, 7/9, 1}.
        assert!((upd.probability(1) - 0.0).abs() < 1e-12);
        assert!((upd.bound(0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((upd.bound(2) - 5.0 / 9.0).abs() < 1e-12);
        assert!((upd.bound(3) - 7.0 / 9.0).abs() < 1e-12);
        // r = 0.58 selects v10 (index 3) on the updated CTPS, as the paper
        // says.
        assert_eq!(upd.search(0.58, &mut st), 3);
    }

    #[test]
    fn updated_ctps_all_selected_is_none() {
        let mut st = SimStats::new();
        assert!(updated_ctps(&[1.0, 2.0], &[true, true], &mut st).is_none());
    }
}
