//! The SELECT function (paper Fig. 5) — warp-centric, bias-based vertex
//! selection without replacement.
//!
//! One warp serves one SELECT call (§IV-A): the lanes cooperatively build
//! the CTPS (Kogge-Stone scan + normalization), then `k` lanes each claim
//! one distinct candidate. Every do-while trip of a lane is one *selection
//! iteration* (the Fig. 11 metric). Strategies differ in what a lane does
//! when its pick collides:
//!
//! - [`SelectStrategy::Repeated`]: redraw on the original CTPS
//!   (Fig. 6a) — suffers on skewed CTPSs;
//! - [`SelectStrategy::Updated`]: rebuild the CTPS with selected biases
//!   zeroed (Fig. 6b) — pays a fresh prefix sum per rebuild;
//! - [`SelectStrategy::Bipartite`]: adjust the random number and reuse the
//!   original CTPS (Fig. 6c, Theorem 2) — the paper's contribution.

use crate::bipartite::{adjust_and_search, updated_ctps_into, BipartiteOutcome};
use crate::collision::{Detector, DetectorKind};
use crate::ctps::{rebuild_cost, uniform_sample_one, Ctps, CtpsView, UniformCtps};
use csaw_gpu::stats::SimStats;
use csaw_gpu::Philox;

/// Collision-mitigation strategy for SELECT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectStrategy {
    /// Naive repeated sampling on the original CTPS.
    Repeated,
    /// Updated sampling: recompute the CTPS after each collision round.
    Updated,
    /// Bipartite region search (the paper's method).
    Bipartite,
}

/// Re-export of the detector flavor for configuration ergonomics.
pub type CollisionDetectorKind = DetectorKind;

/// Configuration of the selection machinery, shared by every SELECT call
/// of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectConfig {
    /// Collision strategy.
    pub strategy: SelectStrategy,
    /// Collision detector.
    pub detector: DetectorKind,
}

impl SelectConfig {
    /// The paper's best configuration: bipartite region search + strided
    /// 8-bit bitmap.
    pub fn paper_best() -> Self {
        SelectConfig {
            strategy: SelectStrategy::Bipartite,
            detector: DetectorKind::paper_default(),
        }
    }

    /// The Fig. 10 baseline: repeated sampling + linear-search detection.
    pub fn baseline() -> Self {
        SelectConfig { strategy: SelectStrategy::Repeated, detector: DetectorKind::LinearSearch }
    }
}

impl Default for SelectConfig {
    fn default() -> Self {
        Self::paper_best()
    }
}

/// Hard backstop on collision rounds. Repeated sampling on a pool whose
/// selected mass approaches 1 legitimately needs thousands of retries
/// (that is the pathology bipartite region search removes); only a
/// genuinely stuck selection (pathological FP bias values) reaches this.
const MAX_ROUNDS: usize = 1_000_000;

/// Reusable selection arena: every buffer one SELECT call needs, owned
/// once per worker and cleared (never dropped) between calls, so a
/// steady-state SELECT performs zero heap allocations. The per-warp
/// on-GPU analog is the warp's shared-memory working set (§IV-A), which
/// is likewise allocated once per warp, not per SELECT. The table sits
/// beside the work buffers so the claim loop can read one while it
/// writes the others.
#[derive(Debug, Default)]
pub struct SelectScratch {
    /// CTPS of the current pool, rebuilt in place per call.
    pub(crate) ctps: Ctps,
    /// Selected indices in claim order — the result of the `_into` calls.
    pub out: Vec<usize>,
    /// Detector and lane buffers of the claim rounds.
    pub(crate) work: SelectWork,
}

/// The claim rounds' working set: the collision detector plus one buffer
/// per lane-indexed quantity, reused across rounds and calls.
#[derive(Debug)]
pub(crate) struct SelectWork {
    /// Collision detector (bitmap words + lockstep lanes, reused).
    detector: Detector,
    /// Lanes still needing a distinct candidate.
    pending: Vec<usize>,
    /// Next round's pending lanes (swapped with `pending` per round).
    still_pending: Vec<usize>,
    /// Phase-1 CTPS picks of the current round.
    picks: Vec<usize>,
    /// Lockstep claim-round request lanes.
    requests: Vec<Option<usize>>,
    /// Claim-round outcomes.
    outcomes: Vec<Option<bool>>,
    /// Bipartite retries of the current round: `(lane, hit)`.
    bip_retry: Vec<(usize, usize)>,
    /// Adjusted claim requests (bipartite phase 2).
    adj_requests: Vec<Option<usize>>,
    /// Lanes behind `adj_requests`.
    adj_lanes: Vec<usize>,
    /// Lanes whose adjustment restarted.
    restart_lanes: Vec<usize>,
    /// Per-candidate selected mask (updated-sampling rebuilds).
    sel_mask: Vec<bool>,
    /// Masked biases (updated-sampling rebuilds).
    masked: Vec<f64>,
}

impl Default for SelectWork {
    fn default() -> Self {
        SelectWork {
            detector: Detector::new(DetectorKind::paper_default(), 0),
            pending: Vec::new(),
            still_pending: Vec::new(),
            picks: Vec::new(),
            requests: Vec::new(),
            outcomes: Vec::new(),
            bip_retry: Vec::new(),
            adj_requests: Vec::new(),
            adj_lanes: Vec::new(),
            restart_lanes: Vec::new(),
            sel_mask: Vec::new(),
            masked: Vec::new(),
        }
    }
}

impl SelectScratch {
    /// An empty arena; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Selects `k` distinct candidates with probability proportional to
/// `biases`, simulating one warp: rebuilds the arena's CTPS from the
/// biases, then runs the claim rounds over it. Leaves the selected
/// indices in claim order (at most `k`, fewer when fewer candidates carry
/// positive bias) in `scratch.out`.
pub fn select_without_replacement_into(
    biases: &[f64],
    k: usize,
    cfg: SelectConfig,
    scratch: &mut SelectScratch,
    rng: &mut Philox,
    stats: &mut SimStats,
) {
    let SelectScratch { ctps, out, work } = scratch;
    out.clear();
    let n = biases.len();
    let selectable = biases.iter().filter(|&&b| b > 0.0).count();
    if k.min(selectable) == 0 || !ctps.rebuild(biases, stats) {
        return;
    }
    let is_selectable = |i: usize| biases[i] > 0.0;
    if cfg.strategy != SelectStrategy::Updated {
        return select_k(&*ctps, n, selectable, is_selectable, k, cfg, out, work, rng, stats);
    }
    // Updated sampling mutates the CTPS between rounds (rebuild with
    // selected biases zeroed), so it keeps its own round loop; the
    // immutable-CTPS strategies share `claim_rounds`.
    if !seat_lanes(n, selectable, is_selectable, k, cfg, out, work, stats) {
        return;
    }
    let mut rounds = 0usize;
    while !work.pending.is_empty() {
        rounds += 1;
        assert!(rounds <= MAX_ROUNDS, "selection failed to converge");
        // The rebuilt CTPS has zero weight on selected regions, so picks
        // only collide lane-to-lane.
        draw_and_claim(&*ctps, work, rng, stats);
        work.still_pending.clear();
        for (slot, lane) in work.pending.iter().enumerate() {
            match work.outcomes[slot] {
                Some(true) => out.push(work.picks[slot]),
                Some(false) => work.still_pending.push(*lane),
                None => unreachable!("all lanes were active"),
            }
        }
        // Rebuild once per round with the now-selected biases zeroed (a
        // full warp prefix sum each time — the cost the paper calls
        // "time consuming").
        if !work.still_pending.is_empty() {
            work.sel_mask.clear();
            for i in 0..n {
                let s = work.detector.is_selected(i, stats);
                work.sel_mask.push(s);
            }
            if !updated_ctps_into(biases, &work.sel_mask, &mut work.masked, ctps, stats) {
                break; // nothing selectable remains
            }
        }
        std::mem::swap(&mut work.pending, &mut work.still_pending);
    }
    stats.selections += out.len() as u64;
}

/// The without-replacement front end every table kind shares: clamp `k`
/// to the `selectable` candidates, take all of them without a draw when
/// that is what `k` asks for, otherwise reset the detector over the `n`
/// candidates and seat one pending lane per pick. Returns whether claim
/// rounds are needed; when not, `out` is final.
#[allow(clippy::too_many_arguments)]
fn seat_lanes(
    n: usize,
    selectable: usize,
    is_selectable: impl Fn(usize) -> bool,
    k: usize,
    cfg: SelectConfig,
    out: &mut Vec<usize>,
    work: &mut SelectWork,
    stats: &mut SimStats,
) -> bool {
    let k = k.min(selectable);
    if k == 0 {
        return false;
    }
    if k == selectable {
        stats.selections += k as u64;
        stats.select_iterations += k as u64;
        if selectable == n {
            out.extend(0..n);
        } else {
            out.extend((0..n).filter(|&i| is_selectable(i)));
        }
        return false;
    }
    work.detector.reset_for(cfg.detector, n);
    work.pending.clear();
    work.pending.extend(0..k);
    true
}

/// The without-replacement SELECT over a table that is already built,
/// generic over [`CtpsView`] so a rebuilt, a preloaded and the implicit
/// uniform CTPS run the identical clamp / select-all / claim sequence —
/// and therefore draw the same random numbers and charge the same work.
/// `selectable` counts the candidates `is_selectable` accepts; picks are
/// appended to `out` in claim order.
#[allow(clippy::too_many_arguments)]
fn select_k<C: CtpsView>(
    view: &C,
    n: usize,
    selectable: usize,
    is_selectable: impl Fn(usize) -> bool,
    k: usize,
    cfg: SelectConfig,
    out: &mut Vec<usize>,
    work: &mut SelectWork,
    rng: &mut Philox,
    stats: &mut SimStats,
) {
    debug_assert!(cfg.strategy != SelectStrategy::Updated, "Updated rebuilds from raw biases");
    if seat_lanes(n, selectable, is_selectable, k, cfg, out, work, stats) {
        claim_rounds(view, cfg, out, work, rng, stats);
        stats.selections += out.len() as u64;
    }
}

/// Phase 1 of a round plus its lockstep claim: every pending lane draws,
/// searches the CTPS (`work.picks`) and claims its pick
/// (`work.outcomes`).
fn draw_and_claim<C: CtpsView>(
    ctps: &C,
    work: &mut SelectWork,
    rng: &mut Philox,
    stats: &mut SimStats,
) {
    work.picks.clear();
    for _ in 0..work.pending.len() {
        stats.rng_draws += 1;
        stats.select_iterations += 1;
        stats.warp_cycles += 4; // Philox draw
        let r = rng.uniform();
        work.picks.push(ctps.search(r, stats));
    }
    work.requests.clear();
    work.requests.extend(work.picks.iter().map(|&p| Some(p)));
    work.detector.claim_round_into(&work.requests, &mut work.outcomes, stats);
}

/// The SELECT claim loop for the immutable-CTPS strategies (Repeated and
/// Bipartite). `work.pending` holds the lanes still needing a candidate;
/// selected indices are appended to `out` in claim order.
fn claim_rounds<C: CtpsView>(
    ctps: &C,
    cfg: SelectConfig,
    out: &mut Vec<usize>,
    work: &mut SelectWork,
    rng: &mut Philox,
    stats: &mut SimStats,
) {
    let mut rounds = 0usize;
    while !work.pending.is_empty() {
        rounds += 1;
        assert!(rounds <= MAX_ROUNDS, "selection failed to converge");
        draw_and_claim(ctps, work, rng, stats);

        work.still_pending.clear();
        work.bip_retry.clear();
        for (slot, lane) in work.pending.iter().enumerate() {
            match work.outcomes[slot] {
                Some(true) => out.push(work.picks[slot]),
                Some(false) => match cfg.strategy {
                    SelectStrategy::Bipartite => work.bip_retry.push((*lane, work.picks[slot])),
                    _ => work.still_pending.push(*lane),
                },
                None => unreachable!("all lanes were active"),
            }
        }

        // Phase 2 (bipartite only): colliding lanes adjust their random
        // number per Theorem 2 and try once more within this iteration.
        if !work.bip_retry.is_empty() {
            work.adj_requests.clear();
            work.adj_lanes.clear();
            work.restart_lanes.clear();
            for &(lane, hit) in work.bip_retry.iter() {
                stats.rng_draws += 1;
                let r_prime = rng.uniform();
                let detector = &work.detector;
                match adjust_and_search(
                    ctps,
                    hit,
                    r_prime,
                    |c, s| detector.is_selected(c, s),
                    stats,
                ) {
                    BipartiteOutcome::Selected(c) => {
                        work.adj_requests.push(Some(c));
                        work.adj_lanes.push(lane);
                    }
                    BipartiteOutcome::Restart => work.restart_lanes.push(lane),
                }
            }
            if !work.adj_requests.is_empty() {
                work.detector.claim_round_into(&work.adj_requests, &mut work.outcomes, stats);
                for (slot, &lane) in work.adj_lanes.iter().enumerate() {
                    match work.outcomes[slot] {
                        Some(true) => out.push(work.adj_requests[slot].unwrap()),
                        Some(false) => work.restart_lanes.push(lane),
                        None => unreachable!(),
                    }
                }
            }
            work.still_pending.extend(work.restart_lanes.iter().copied());
        }
        std::mem::swap(&mut work.pending, &mut work.still_pending);
    }
}

/// Allocating convenience wrapper over
/// [`select_without_replacement_into`]: returns the selected indices as a
/// fresh `Vec`. Hot paths hold a [`SelectScratch`] and call the `_into`
/// form instead.
pub fn select_without_replacement(
    biases: &[f64],
    k: usize,
    cfg: SelectConfig,
    rng: &mut Philox,
    stats: &mut SimStats,
) -> Vec<usize> {
    let mut scratch = SelectScratch::new();
    select_without_replacement_into(biases, k, cfg, &mut scratch, rng, stats);
    scratch.out
}

/// Selects one candidate *with replacement* (random walks; Fig. 2b line 4
/// frontier selection), rebuilding `ctps` in place from `biases` — the
/// arena-reuse form of [`select_one`]. Returns `None` when no candidate
/// has positive bias.
pub fn select_one_with(
    biases: &[f64],
    ctps: &mut Ctps,
    rng: &mut Philox,
    stats: &mut SimStats,
) -> Option<usize> {
    if !ctps.rebuild(biases, stats) {
        return None;
    }
    stats.select_iterations += 1;
    stats.selections += 1;
    Some(ctps.sample_one(rng, stats))
}

/// Selects one candidate *with replacement* (random walks; Fig. 2b line 4
/// frontier selection). Returns `None` when no candidate has positive
/// bias.
pub fn select_one(biases: &[f64], rng: &mut Philox, stats: &mut SimStats) -> Option<usize> {
    let mut ctps = Ctps::empty();
    select_one_with(biases, &mut ctps, rng, stats)
}

/// Selects one of `n` candidates with probability proportional to
/// `bias_of(i)` by **rejection sampling** against the a-priori upper
/// bound `bound` (must dominate every candidate's bias): each throw
/// proposes a uniform candidate and accepts it with probability
/// `bias/bound`, evaluating only the *proposed* candidate's bias — where
/// the ITS lane must evaluate all `n` of them. The kernel serves
/// dynamic-bias frontiers (node2vec) with it under
/// [`crate::method::MethodPolicy::Adaptive`] when the predicate in
/// [`crate::method`] admits the expansion.
///
/// Returns `None` when `max_trials` throws all rejected (heavy skew the
/// bound cannot see) — the caller falls back to the exact ITS lane,
/// which guarantees termination and, because both methods are exact,
/// leaves the sampled distribution unchanged. Each throw charges two
/// RNG draws, one selection iteration, and one rejection trial;
/// only an accepted throw counts a selection.
pub fn select_one_rejection(
    n: usize,
    bound: f64,
    max_trials: u64,
    mut bias_of: impl FnMut(usize) -> f64,
    rng: &mut Philox,
    stats: &mut SimStats,
) -> Option<usize> {
    debug_assert!(bound.is_finite() && bound > 0.0, "rejection needs a positive finite bound");
    if n == 0 {
        return None;
    }
    for _ in 0..max_trials {
        // One column draw + one height draw, then a single candidate
        // bias evaluation.
        stats.rng_draws += 2;
        stats.select_iterations += 1;
        stats.rejection_trials += 1;
        stats.warp_cycles += 12;
        let col = rng.below(n as u64) as usize;
        let height = rng.uniform() * bound;
        let b = bias_of(col);
        debug_assert!(
            b <= bound * (1.0 + 1e-9),
            "edge_bias_bound ({bound}) violated by candidate bias {b}"
        );
        if height < b {
            stats.selections += 1;
            return Some(col);
        }
    }
    None
}

/// [`select_one_with`] when `ctps` already holds the bounds for the
/// candidate pool (a hot-vertex cache hit): skips the rebuild — the caller
/// charges the cache-hit cost model instead — and consumes exactly one
/// RNG draw, returning the identical index the rebuilt path would return.
pub fn select_one_preloaded(ctps: &Ctps, rng: &mut Philox, stats: &mut SimStats) -> Option<usize> {
    if ctps.is_empty() {
        return None;
    }
    stats.select_iterations += 1;
    stats.selections += 1;
    Some(ctps.sample_one(rng, stats))
}

/// [`select_one_with`] over `n` implicit unit biases: identical draw,
/// index, and stats charges to rebuilding from `&[1.0; n]`, with no CTPS
/// materialization. Returns `None` when `n == 0`.
pub fn select_one_uniform(n: usize, rng: &mut Philox, stats: &mut SimStats) -> Option<usize> {
    if n == 0 {
        return None;
    }
    rebuild_cost(n, stats);
    stats.select_iterations += 1;
    stats.selections += 1;
    Some(uniform_sample_one(n, rng, stats))
}

/// [`select_without_replacement_into`] when `scratch.ctps` already holds
/// the pool's bounds (a cache hit, a vertex group's shared build): skips
/// the rebuild — the caller charges its own cost model instead — and
/// consumes exactly the same RNG draws, leaving the identical index
/// sequence in `scratch.out`. `selectable` must equal the number of
/// positive-width regions (cache admission verifies width/bias agreement
/// per region). Not valid for [`SelectStrategy::Updated`], which needs
/// the raw biases.
pub fn select_without_replacement_preloaded_into(
    selectable: usize,
    k: usize,
    cfg: SelectConfig,
    scratch: &mut SelectScratch,
    rng: &mut Philox,
    stats: &mut SimStats,
) {
    let SelectScratch { ctps, out, work } = scratch;
    select_without_replacement_over(ctps, selectable, k, cfg, out, work, rng, stats);
}

/// [`select_without_replacement_preloaded_into`] over a borrowed table
/// — a cache hit draws off the cached bounds in place, under the cache's
/// stripe lock, into the caller's `out` and `work`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn select_without_replacement_over(
    ctps: &Ctps,
    selectable: usize,
    k: usize,
    cfg: SelectConfig,
    out: &mut Vec<usize>,
    work: &mut SelectWork,
    rng: &mut Philox,
    stats: &mut SimStats,
) {
    out.clear();
    let n = ctps.len();
    debug_assert_eq!(
        selectable,
        (0..n).filter(|&i| ctps.probability(i) > 0.0).count(),
        "cached selectable count out of sync with region widths"
    );
    let is_selectable = |i: usize| ctps.probability(i) > 0.0;
    select_k(ctps, n, selectable, is_selectable, k, cfg, out, work, rng, stats);
}

/// [`select_without_replacement_into`] over `n` implicit unit biases:
/// identical draws, indices, and stats charges to the materialized call
/// with `&[1.0; n]`, without building the CTPS. Not valid for
/// [`SelectStrategy::Updated`] (which rebuilds from raw biases — callers
/// fall back to the materialized path).
pub fn select_without_replacement_uniform_into(
    n: usize,
    k: usize,
    cfg: SelectConfig,
    scratch: &mut SelectScratch,
    rng: &mut Philox,
    stats: &mut SimStats,
) {
    let SelectScratch { out, work, .. } = scratch;
    out.clear();
    if n == 0 || k == 0 {
        return;
    }
    // The virtual rebuild always succeeds; every unit bias is selectable.
    rebuild_cost(n, stats);
    select_k(&UniformCtps { n }, n, n, |_| true, k, cfg, out, work, rng, stats);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn all_strategies() -> Vec<SelectConfig> {
        vec![
            SelectConfig {
                strategy: SelectStrategy::Repeated,
                detector: DetectorKind::LinearSearch,
            },
            SelectConfig {
                strategy: SelectStrategy::Updated,
                detector: DetectorKind::ContiguousBitmap { word_bits: 8 },
            },
            SelectConfig {
                strategy: SelectStrategy::Bipartite,
                detector: DetectorKind::StridedBitmap { word_bits: 8 },
            },
        ]
    }

    #[test]
    fn selects_distinct_candidates() {
        for cfg in all_strategies() {
            let mut rng = Philox::new(1);
            let mut s = SimStats::new();
            let biases = vec![3.0, 6.0, 2.0, 2.0, 2.0];
            for _ in 0..1000 {
                let sel = select_without_replacement(&biases, 3, cfg, &mut rng, &mut s);
                assert_eq!(sel.len(), 3, "{cfg:?}");
                let mut sorted = sel.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), 3, "duplicates under {cfg:?}: {sel:?}");
            }
        }
    }

    #[test]
    fn k_of_n_selects_everything() {
        for cfg in all_strategies() {
            let mut rng = Philox::new(2);
            let mut s = SimStats::new();
            let sel = select_without_replacement(&[1.0, 2.0, 3.0], 3, cfg, &mut rng, &mut s);
            let mut sorted = sel;
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2]);
            // Asking for more than available also returns everything.
            let sel = select_without_replacement(&[1.0, 2.0], 10, cfg, &mut rng, &mut s);
            assert_eq!(sel.len(), 2);
        }
    }

    #[test]
    fn zero_bias_candidates_never_selected() {
        for cfg in all_strategies() {
            let mut rng = Philox::new(3);
            let mut s = SimStats::new();
            let biases = vec![1.0, 0.0, 1.0, 0.0, 1.0];
            for _ in 0..500 {
                let sel = select_without_replacement(&biases, 2, cfg, &mut rng, &mut s);
                assert!(sel.iter().all(|&i| biases[i] > 0.0), "{cfg:?}: {sel:?}");
            }
        }
    }

    #[test]
    fn empty_inputs() {
        for cfg in all_strategies() {
            let mut rng = Philox::new(4);
            let mut s = SimStats::new();
            assert!(select_without_replacement(&[], 2, cfg, &mut rng, &mut s).is_empty());
            assert!(select_without_replacement(&[1.0], 0, cfg, &mut rng, &mut s).is_empty());
            assert!(select_without_replacement(&[0.0; 4], 2, cfg, &mut rng, &mut s).is_empty());
        }
    }

    /// All three strategies must realize the *same* without-replacement
    /// distribution (that is Theorem 2's point). We check the marginal
    /// inclusion frequency of each candidate for k=2 of 5.
    #[test]
    fn strategies_are_distribution_identical() {
        let biases = vec![8.0, 4.0, 2.0, 1.0, 1.0];
        let n_trials = 300_000usize;
        let mut freqs: Vec<HashMap<usize, f64>> = Vec::new();
        for cfg in all_strategies() {
            let mut rng = Philox::new(55);
            let mut s = SimStats::new();
            let mut counts: HashMap<usize, usize> = HashMap::new();
            for _ in 0..n_trials {
                for i in select_without_replacement(&biases, 2, cfg, &mut rng, &mut s) {
                    *counts.entry(i).or_default() += 1;
                }
            }
            freqs.push(counts.into_iter().map(|(k, v)| (k, v as f64 / n_trials as f64)).collect());
        }
        for i in 0..biases.len() {
            let a = freqs[0].get(&i).copied().unwrap_or(0.0);
            let b = freqs[1].get(&i).copied().unwrap_or(0.0);
            let c = freqs[2].get(&i).copied().unwrap_or(0.0);
            assert!((a - b).abs() < 0.01, "candidate {i}: repeated {a} vs updated {b}");
            assert!((a - c).abs() < 0.01, "candidate {i}: repeated {a} vs bipartite {c}");
        }
    }

    /// The exact sequential-without-replacement law for k = n-1: the one
    /// *excluded* candidate is left out with probability that grows as its
    /// bias shrinks. Sanity-check ordering.
    #[test]
    fn low_bias_candidates_are_excluded_more() {
        let biases = vec![10.0, 1.0, 10.0];
        let mut rng = Philox::new(6);
        let mut s = SimStats::new();
        let mut excluded = [0usize; 3];
        for _ in 0..50_000 {
            let sel = select_without_replacement(
                &biases,
                2,
                SelectConfig::paper_best(),
                &mut rng,
                &mut s,
            );
            let missing = (0..3).find(|i| !sel.contains(i)).unwrap();
            excluded[missing] += 1;
        }
        assert!(excluded[1] > excluded[0] * 3);
        assert!(excluded[1] > excluded[2] * 3);
    }

    /// Bipartite region search needs fewer iterations than repeated
    /// sampling on a skewed CTPS — the Fig. 11 effect.
    #[test]
    fn bipartite_reduces_iterations_on_skewed_biases() {
        // One huge region: repeated sampling keeps re-hitting it.
        let mut biases = vec![1.0; 16];
        biases[0] = 100.0;
        let run = |strategy| {
            let mut rng = Philox::new(7);
            let mut s = SimStats::new();
            for _ in 0..2000 {
                let cfg = SelectConfig { strategy, detector: DetectorKind::paper_default() };
                select_without_replacement(&biases, 8, cfg, &mut rng, &mut s);
            }
            s.iterations_per_selection()
        };
        let rep = run(SelectStrategy::Repeated);
        let bip = run(SelectStrategy::Bipartite);
        assert!(
            bip < rep * 0.8,
            "bipartite should cut iterations: repeated {rep:.3} vs bipartite {bip:.3}"
        );
    }

    /// Bitmap detection performs far fewer collision searches than the
    /// linear-search baseline — the Fig. 12 effect.
    #[test]
    fn bitmap_reduces_collision_searches() {
        let biases = vec![1.0; 64];
        let run = |detector| {
            let mut rng = Philox::new(8);
            let mut s = SimStats::new();
            for _ in 0..500 {
                let cfg = SelectConfig { strategy: SelectStrategy::Bipartite, detector };
                select_without_replacement(&biases, 32, cfg, &mut rng, &mut s);
            }
            s.collision_searches
        };
        let linear = run(DetectorKind::LinearSearch);
        let bitmap = run(DetectorKind::paper_default());
        assert!(
            (bitmap as f64) < 0.5 * linear as f64,
            "bitmap searches {bitmap} vs linear {linear}"
        );
    }

    #[test]
    fn select_one_follows_bias() {
        let mut rng = Philox::new(9);
        let mut s = SimStats::new();
        let mut counts = [0usize; 3];
        for _ in 0..90_000 {
            counts[select_one(&[1.0, 2.0, 6.0], &mut rng, &mut s).unwrap()] += 1;
        }
        assert!((counts[0] as f64 / 90_000.0 - 1.0 / 9.0).abs() < 0.01);
        assert!((counts[2] as f64 / 90_000.0 - 6.0 / 9.0).abs() < 0.01);
        assert!(select_one(&[0.0, 0.0], &mut rng, &mut s).is_none());
        assert!(select_one(&[], &mut rng, &mut s).is_none());
    }

    /// The closed-form uniform SELECT must be bit-identical to the
    /// materialized path — same indices, same RNG consumption, same stats
    /// charges — across sizes, draw counts, and both immutable-CTPS
    /// strategies.
    #[test]
    fn uniform_closed_form_select_is_bit_identical() {
        for cfg in [
            SelectConfig {
                strategy: SelectStrategy::Repeated,
                detector: DetectorKind::LinearSearch,
            },
            SelectConfig::paper_best(),
        ] {
            for n in [1usize, 2, 3, 5, 8, 31, 32, 33, 64] {
                for k in [1usize, 2, n / 2, n.saturating_sub(1), n] {
                    if k == 0 {
                        continue;
                    }
                    let biases = vec![1.0; n];
                    let mut rng_a = Philox::for_task(7, (n * 1000 + k) as u64);
                    let mut rng_b = rng_a.clone();
                    let mut sa = SimStats::new();
                    let mut sb = SimStats::new();
                    let mut scr_a = SelectScratch::new();
                    let mut scr_b = SelectScratch::new();
                    for _ in 0..50 {
                        select_without_replacement_into(
                            &biases, k, cfg, &mut scr_a, &mut rng_a, &mut sa,
                        );
                        select_without_replacement_uniform_into(
                            n, k, cfg, &mut scr_b, &mut rng_b, &mut sb,
                        );
                        assert_eq!(scr_a.out, scr_b.out, "cfg={cfg:?} n={n} k={k}");
                        assert_eq!(sa, sb, "charges cfg={cfg:?} n={n} k={k}");
                        assert_eq!(rng_a.uniform(), rng_b.uniform(), "stream sync");
                    }
                }
            }
        }
    }

    #[test]
    fn select_one_uniform_is_bit_identical() {
        for n in [1usize, 2, 5, 32, 100] {
            let biases = vec![1.0; n];
            let mut ctps = Ctps::empty();
            let mut rng_a = Philox::for_task(8, n as u64);
            let mut rng_b = rng_a.clone();
            let mut sa = SimStats::new();
            let mut sb = SimStats::new();
            for _ in 0..200 {
                assert_eq!(
                    select_one_with(&biases, &mut ctps, &mut rng_a, &mut sa),
                    select_one_uniform(n, &mut rng_b, &mut sb),
                );
            }
            assert_eq!(sa, sb, "n={n}");
        }
        let mut rng = Philox::new(1);
        let mut s = SimStats::new();
        assert!(select_one_uniform(0, &mut rng, &mut s).is_none());
    }

    /// The preloaded path (cache hit) must return the same indices and
    /// consume the same draws as a full rebuild over the same biases —
    /// only the build charges differ.
    #[test]
    fn preloaded_select_matches_rebuilt_output() {
        let pools: Vec<Vec<f64>> = vec![
            vec![3.0, 6.0, 2.0, 2.0, 2.0],
            vec![1.0, 0.0, 5.0, 0.0, 2.0, 9.0],
            vec![10.0, 1.0],
            (1..=40).map(|x| ((x * 7) % 11 + 1) as f64).collect(),
        ];
        for cfg in [
            SelectConfig {
                strategy: SelectStrategy::Repeated,
                detector: DetectorKind::LinearSearch,
            },
            SelectConfig::paper_best(),
        ] {
            for biases in &pools {
                let selectable = biases.iter().filter(|&&b| b > 0.0).count();
                for k in 1..=selectable {
                    let mut built_stats = SimStats::new();
                    let built = Ctps::build(biases, &mut built_stats).unwrap();
                    let mut rng_a = Philox::for_task(9, k as u64);
                    let mut rng_b = rng_a.clone();
                    let mut sa = SimStats::new();
                    let mut sb = SimStats::new();
                    let mut scr_a = SelectScratch::new();
                    let mut scr_b = SelectScratch::new();
                    for _ in 0..30 {
                        select_without_replacement_into(
                            biases, k, cfg, &mut scr_a, &mut rng_a, &mut sa,
                        );
                        scr_b.ctps.assign(&built);
                        select_without_replacement_preloaded_into(
                            selectable, k, cfg, &mut scr_b, &mut rng_b, &mut sb,
                        );
                        assert_eq!(scr_a.out, scr_b.out, "cfg={cfg:?} k={k} {biases:?}");
                        assert_eq!(rng_a.uniform(), rng_b.uniform(), "stream sync");
                    }
                    // Same RNG/selection accounting; the preloaded path
                    // never charges the scan.
                    assert_eq!(sa.rng_draws, sb.rng_draws);
                    assert_eq!(sa.selections, sb.selections);
                    assert_eq!(sb.scan_steps, 0);
                }
            }
        }
    }

    #[test]
    fn preloaded_select_one_matches_rebuilt_output() {
        let biases = vec![3.0, 6.0, 2.0, 2.0, 2.0];
        let mut s = SimStats::new();
        let built = Ctps::build(&biases, &mut s).unwrap();
        let mut ctps = Ctps::empty();
        let mut rng_a = Philox::new(11);
        let mut rng_b = rng_a.clone();
        let mut sa = SimStats::new();
        let mut sb = SimStats::new();
        for _ in 0..500 {
            assert_eq!(
                select_one_with(&biases, &mut ctps, &mut rng_a, &mut sa),
                select_one_preloaded(&built, &mut rng_b, &mut sb),
            );
        }
        assert_eq!(sa.rng_draws, sb.rng_draws);
        assert_eq!(sa.selections, sb.selections);
        assert_eq!(sb.scan_steps, 0, "preloaded never scans");
        assert!(select_one_preloaded(&Ctps::empty(), &mut rng_b, &mut sb).is_none());
    }

    #[test]
    fn deterministic_given_stream() {
        let biases = vec![5.0, 1.0, 3.0, 2.0, 4.0, 1.0];
        let run = || {
            let mut rng = Philox::for_task(42, 7);
            let mut s = SimStats::new();
            (0..100)
                .map(|_| {
                    select_without_replacement(
                        &biases,
                        3,
                        SelectConfig::paper_best(),
                        &mut rng,
                        &mut s,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
