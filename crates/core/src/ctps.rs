//! Cumulative Transition Probability Space (paper §II-B, Fig. 1b).
//!
//! Given biases `b_1..b_n`, the transition probability of candidate `k` is
//! `t_k = b_k / Σ b_i` (Theorem 1). The CTPS is the normalized prefix sum
//! `F` with `t_k = F_k − F_{k−1}`; selecting a candidate is a binary search
//! of a uniform random number over `F`.
//!
//! On the simulated device the prefix sum is a warp-level Kogge-Stone scan
//! and the normalization is distributed across lanes, exactly as in §IV-A.
//!
//! Here the upper edge of candidate `k`'s region is always `fl(S_k / T)`:
//! the Kogge-Stone inclusive prefix sum `S_k` over the total
//! `T = S_{n−1}`, correctly rounded (so the last edge is exactly 1). A
//! table holds it in one of two states. Both are searched branch-free on
//! the midpoints of [`csaw_gpu::warp::binary_search_region`], so both
//! select the same candidate and charge the same probes for every draw:
//!
//! - **raw**, as [`Ctps::rebuild`] leaves it: the sums themselves, with
//!   the division applied per probe. `fl(s / T)` is monotone in `s`, so
//!   `r < fl(S_k / T)` holds exactly when `S_k >= S*(r)`, the smallest
//!   double whose quotient exceeds `r`; a search computes `S*` once and
//!   compares sums. A fresh build is in L1, where a branch-free probe
//!   beats a mispredicted one.
//! - **normalized**, by [`Ctps::normalize`]: the quotients, applied once
//!   on admission to the CTPS cache, and compared directly. A cached
//!   table is mostly not in L1. There the branchy loop let the core
//!   speculate the next probe's load, and a branch-free search without
//!   it was slower; so each round of this one also prefetches the four
//!   midpoints the round after next can probe. On the cached
//!   depth-synchronous walk of the `walk_biased_depth` workload
//!   (in-process, ten alternating rounds, 2-core x86-64 VM), medians:
//!   branchy 2.35 M edges/s, branch-free 2.23 M (0.93×), branch-free
//!   with prefetch 2.76 M (1.19×, faster in 9 of 10 rounds); see
//!   EXPERIMENTS.md §"Cheap cache hits in the depth-synchronous walk".
//!
//! The cost model charges the paper's normalization on every rebuild,
//! whichever state the table is kept in.

use csaw_gpu::stats::SimStats;
#[cfg(any(test, debug_assertions))]
use csaw_gpu::warp::binary_search_region_by;
use csaw_gpu::warp::{
    inclusive_scan, region_search_probes, scan_cost, SEARCH_PROBE_CYCLES, WARP_SIZE,
};
use csaw_gpu::Philox;
use std::hint::select_unpredictable;

/// A built CTPS over `bounds.len()` candidates: `bounds[k]` is the raw
/// prefix sum `S_k`, or, once normalized, the region edge `fl(S_k / T)`
/// (see the module docs). Equality includes the state, so a raw table
/// never equals a normalized one.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Ctps {
    bounds: Vec<f64>,
    total_bias: f64,
    normalized: bool,
}

impl Ctps {
    /// An empty CTPS holding no candidates — the reusable-arena starting
    /// state. Nothing is selectable until [`Ctps::rebuild`] succeeds.
    pub fn empty() -> Ctps {
        Ctps::default()
    }

    /// Builds the CTPS from raw biases with warp-counted work. Returns
    /// `None` when the total bias is zero or non-finite (nothing is
    /// selectable).
    pub fn build(biases: &[f64], stats: &mut SimStats) -> Option<Ctps> {
        let mut c = Ctps::empty();
        c.rebuild(biases, stats).then_some(c)
    }

    /// Rebuilds the CTPS in place from raw biases, reusing the bounds
    /// buffer (no allocation once capacity is warm), and leaves it raw.
    /// Charges exactly the work [`Ctps::build`] charges, which depends on
    /// `biases.len()` alone: [`rebuild_cost`] on success, the scan without
    /// the normalization on failure (debug builds assert both). Returns
    /// `false` — leaving `self` empty — when the total bias is zero or
    /// non-finite.
    pub fn rebuild(&mut self, biases: &[f64], stats: &mut SimStats) -> bool {
        #[cfg(debug_assertions)]
        let mut expected = *stats;
        let ok = self.scan(biases, stats);
        #[cfg(debug_assertions)]
        {
            if ok {
                rebuild_cost(biases.len(), &mut expected);
            } else {
                scan_cost(biases.len(), &mut expected);
            }
            debug_assert_eq!(*stats, expected, "rebuild charge is not a function of n");
        }
        ok
    }

    fn scan(&mut self, biases: &[f64], stats: &mut SimStats) -> bool {
        self.bounds.clear();
        self.total_bias = 0.0;
        self.normalized = false;
        if biases.is_empty() {
            return false;
        }
        debug_assert!(biases.iter().all(|&b| b >= 0.0), "negative bias");
        self.bounds.extend_from_slice(biases);
        inclusive_scan(&mut self.bounds, stats);
        let total = *self.bounds.last().unwrap();
        if !total.is_finite() || total <= 0.0 {
            self.bounds.clear();
            return false;
        }
        // The paper's normalization, one warp step per tile; the divisions
        // themselves run per probe (see the module docs).
        stats.warp_cycles += self.bounds.len().div_ceil(WARP_SIZE) as u64;
        self.total_bias = total;
        true
    }

    /// Divides every raw sum by the total, once, so later searches read
    /// the region edges directly — what the CTPS cache does to each table
    /// it admits. Charges nothing; a no-op on a normalized table.
    pub fn normalize(&mut self) {
        if !self.normalized {
            let total = self.total_bias;
            for b in self.bounds.iter_mut() {
                *b /= total;
            }
            self.normalized = true;
        }
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// True when there are no candidates (never constructed by
    /// [`Ctps::build`], which returns `None` instead).
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// Sum of the raw biases.
    pub fn total_bias(&self) -> f64 {
        self.total_bias
    }

    /// The upper edge `F_{k+1} = fl(S_k / T)` of candidate `k`'s region;
    /// a raw table divides here.
    #[inline]
    pub fn bound(&self, k: usize) -> f64 {
        if self.normalized {
            self.bounds[k]
        } else {
            self.bounds[k] / self.total_bias
        }
    }

    /// Region `(l, h)` of candidate `k`: `F_k .. F_{k+1}`.
    #[inline]
    pub fn region(&self, k: usize) -> (f64, f64) {
        let l = if k == 0 { 0.0 } else { self.bound(k - 1) };
        (l, self.bound(k))
    }

    /// Transition probability of candidate `k`.
    pub fn probability(&self, k: usize) -> f64 {
        let (l, h) = self.region(k);
        h - l
    }

    /// Binary search: the candidate whose region contains `r ∈ [0, 1)`,
    /// the smallest `k` with `r < F_{k+1}` (clamped to the last candidate).
    /// Zero-width regions are never returned for `r >= 0`: the search stops
    /// on a `k` whose lower edge it found `<= r` and whose upper edge `> r`,
    /// or clamps `r >= 1` to the last candidate.
    ///
    /// Either state runs the probes of
    /// [`csaw_gpu::warp::binary_search_region`] over `fl(S_k / T)`
    /// branch-free: same index, same probe charges. Debug builds replay
    /// the branchy loop over [`Ctps::bound`] and assert both.
    #[inline]
    pub fn search(&self, r: f64, stats: &mut SimStats) -> usize {
        let n = self.bounds.len();
        let (p, probes) = if self.normalized {
            self.insertion_point_edges(r)
        } else {
            self.insertion_point_sums(r)
        };
        let k = p.min(n - 1);
        #[cfg(debug_assertions)]
        {
            let mut oracle = SimStats::new();
            let k_ref = binary_search_region_by(n, r, |i| self.bound(i), &mut oracle);
            debug_assert_eq!((k, probes), (k_ref, oracle.search_steps), "n={n} r={r}");
        }
        stats.search_steps += probes;
        stats.warp_cycles += probes * SEARCH_PROBE_CYCLES;
        debug_assert!(
            k + 1 == self.len() || self.probability(k) > 0.0,
            "r={r:e} landed on zero-width region {k}"
        );
        k
    }

    /// The insertion point of `r` among normalized edges, and its probes,
    /// prefetching as a cached table needs. Out of line, so only the
    /// raw-sum search inlines into [`Ctps::search`]'s callers: the
    /// fresh-build draws of `neighbor_biased` keep their code whether or
    /// not a cache is in use.
    #[inline(never)]
    fn insertion_point_edges(&self, r: f64) -> (usize, u64) {
        branchless_insertion_point::<true>(&self.bounds, |b| r < b)
    }

    /// The insertion point of `r` among raw sums, and its probes:
    /// against the threshold `S*(r)` (see [`quotient_threshold`]), or
    /// against the quotients themselves where no threshold was found.
    #[inline]
    fn insertion_point_sums(&self, r: f64) -> (usize, u64) {
        let total = self.total_bias;
        match quotient_threshold(r, total) {
            Some(s) => branchless_insertion_point::<false>(&self.bounds, |b| b >= s),
            None => branchless_insertion_point::<false>(&self.bounds, |b| r < b / total),
        }
    }

    /// Draws one candidate with replacement (inverse transform sampling).
    pub fn sample_one(&self, rng: &mut Philox, stats: &mut SimStats) -> usize {
        stats.rng_draws += 1;
        stats.warp_cycles += 4; // Philox draw
        let r = rng.uniform();
        self.search(r, stats)
    }

    /// Copies another CTPS — bounds, total and state — into this one,
    /// reusing this buffer's capacity (no allocation once warm). Charges
    /// nothing — callers that load cached bounds charge their own cost
    /// model.
    pub fn assign(&mut self, src: &Ctps) {
        self.bounds.clear();
        self.bounds.extend_from_slice(&src.bounds);
        self.total_bias = src.total_bias;
        self.normalized = src.normalized;
    }
}

/// One-ulp steps [`quotient_threshold`] takes up from `fl(r · T)` before
/// it gives up. The product and the quotient each round by at most 2⁻⁵³,
/// so with a normal product the threshold lies within two ulps above it;
/// the rest is margin, and running out only costs the per-probe division.
const THRESHOLD_STEPS: u32 = 4;

/// `S*(r)`, the smallest double `s` with `r < fl(s / total)`, or `None`
/// when `fl(r · total)` is not a normal number (`r = 0`, a subnormal
/// product or total, `r` NaN or infinite) or `S*` is more than
/// [`THRESHOLD_STEPS`] ulps above it. Division by a positive total is
/// monotone in `s`, so for every sum `S`, `r < fl(S / total)` exactly when
/// `S >= S*`.
///
/// `S*` is never below the product: `fl(r · total)` is the double nearest
/// `r · total`, so the double below it is under `r · total`, and its
/// quotient is under `r` and rounds to at most `r`. The walk therefore
/// starts at the product and goes up, checking each step with the
/// division it stands in for, until the comparison flips.
#[inline]
fn quotient_threshold(r: f64, total: f64) -> Option<f64> {
    let mut s = r * total;
    if !s.is_normal() {
        return None;
    }
    for _ in 0..=THRESHOLD_STEPS {
        if r < s / total {
            return Some(s);
        }
        s = s.next_up();
    }
    None
}

/// The insertion point [`csaw_gpu::warp::binary_search_region`] finds
/// over `sums` with `above` as its `r < bound` test, and the probes it
/// takes to find it. The probe sequence is the same — the same
/// midpoints, so the same point even where Kogge-Stone rounding leaves
/// sums out of order — but each of the `floor(log2(n + 1))` rounds every
/// search makes picks its half with a select instead of a branch. The
/// one probe only some insertion points need is made on a clamped index
/// either way and counted only when the interval is still open.
///
/// With `PREFETCH`, each round also hints the four midpoints the round
/// after next can probe, so their loads are in flight while this round's
/// compare resolves; the probes themselves do not change. Only a cached
/// (normalized) table turns it on: a fresh build is already in L1,
/// where the hints cost more than they hide.
#[inline]
fn branchless_insertion_point<const PREFETCH: bool>(
    sums: &[f64],
    above: impl Fn(f64) -> bool,
) -> (usize, u64) {
    let n = sums.len();
    debug_assert!(n > 0);
    let rounds = (n + 1).ilog2();
    let (mut lo, mut hi) = (0usize, n);
    for _ in 0..rounds {
        let mid = (lo + hi) / 2;
        if PREFETCH {
            // The next round probes `ml` or `mr`; the one after, the
            // midpoint of one of their halves.
            let (ml, mr) = ((lo + mid) / 2, (mid + 1 + hi) / 2);
            prefetch(sums, (lo + ml) / 2);
            prefetch(sums, (ml + 1 + mid) / 2);
            prefetch(sums, (mid + 1 + mr) / 2);
            prefetch(sums, (mr + 1 + hi) / 2);
        }
        let left = above(sums[mid]);
        hi = select_unpredictable(left, mid, hi);
        lo = select_unpredictable(left, lo, mid + 1);
    }
    let open = lo < hi;
    let left = above(sums[lo.min(n - 1)]);
    lo += (open && !left) as usize;
    (lo, rounds as u64 + open as u64)
}

/// Hints the cache line holding `sums[i]` toward the core. `i` may be
/// one past the end (a midpoint of an empty interval); nothing is read,
/// and non-x86 hosts compile it to nothing.
#[inline(always)]
fn prefetch(sums: &[f64], i: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        let addr = sums.as_ptr().wrapping_add(i);
        // SAFETY: `_mm_prefetch` only populates caches: it reads nothing
        // and never faults, whatever the address, so `addr` need not be
        // in bounds (`wrapping_add` forms it without claiming that it is).
        unsafe {
            std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
                addr as *const i8,
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (sums, i);
}

/// The bound `F_{k+1}` a CTPS built from `n` unit biases would hold at
/// index `k`, computed closed-form. Bit-identical to [`Ctps::bound`] on
/// the materialized table: the Kogge-Stone prefix sums of 1.0s are exact
/// integers below 2^53, and bound `k` is their `k + 1` correctly rounded
/// over the total `n` — exactly 1.0 for the last.
#[inline]
pub fn uniform_bound(n: usize, k: usize) -> f64 {
    debug_assert!(k < n);
    (k + 1) as f64 / n as f64
}

/// Charges exactly what a successful [`Ctps::rebuild`] of `n` biases
/// charges — Kogge-Stone scan steps plus one normalization warp step per
/// tile, whatever the biases — without building anything. This is what a
/// group-shared or implicit uniform table charges for each rebuild it
/// stands in for. `n` must be positive.
pub fn rebuild_cost(n: usize, stats: &mut SimStats) {
    debug_assert!(n > 0);
    scan_cost(n, stats);
    stats.warp_cycles += n.div_ceil(WARP_SIZE) as u64;
}

/// The insertion point of `r` in the implicit uniform CTPS: the smallest
/// `i` with `r < uniform_bound(n, i)`, or `n` when `r` is past every bound
/// — where [`binary_search_region_by`] over [`uniform_bound`] ends up.
///
/// Bound `i` is the correctly rounded `(i + 1) / n`, so the point is
/// `floor(r · n)` give or take one: both the product and each quotient
/// carry a relative error of at most 2⁻⁵³. When the product's fractional
/// part is further than `n · 2⁻⁵⁰` from an integer no rounding can move
/// it across one and the floor is the answer; otherwise (`r` on or
/// next to a bound, `r <= 0`, `r >= 1`) it is corrected by comparing `r`
/// against the real neighbouring bounds.
#[inline]
fn uniform_insertion_point(n: usize, r: f64) -> usize {
    /// 8 × 2⁻⁵³: with numerators at most `n`, the two roundings shift
    /// `r · n` against a bound's numerator by less than 3 × 2⁻⁵³ · n.
    const GUARD: f64 = 1.0 / (1u64 << 50) as f64;
    let x = r * n as f64;
    let mut p = (x as usize).min(n);
    let frac = x - p as f64;
    let eps = n as f64 * GUARD;
    if !(frac > eps && frac < 1.0 - eps) {
        while p > 0 && r < uniform_bound(n, p - 1) {
            p -= 1;
        }
        while p < n && r >= uniform_bound(n, p) {
            p += 1;
        }
    }
    p
}

/// [`Ctps::search`] over the implicit uniform CTPS of `n` candidates:
/// identical index, identical probe charges, in O(1). The index comes
/// from `uniform_insertion_point`, the probe count the materialized
/// binary search would have charged from
/// [`csaw_gpu::warp::region_search_probes`]; debug builds replay the
/// search loop over [`uniform_bound`] and assert both.
#[inline]
pub fn uniform_search(n: usize, r: f64, stats: &mut SimStats) -> usize {
    debug_assert!(n > 0);
    let p = uniform_insertion_point(n, r);
    let probes = region_search_probes(n, p);
    // As the reference does, clamp the result, not the search: `r >= 1.0`
    // inserts at `n` and is charged the all-right probe path.
    let k = p.min(n - 1);
    #[cfg(debug_assertions)]
    {
        let mut oracle = SimStats::new();
        let k_ref = binary_search_region_by(n, r, |i| uniform_bound(n, i), &mut oracle);
        debug_assert_eq!((k, probes), (k_ref, oracle.search_steps), "n={n} r={r}");
    }
    stats.search_steps += probes;
    stats.warp_cycles += probes * SEARCH_PROBE_CYCLES;
    // Uniform regions all have width 1/n > 0 for any realistic n.
    debug_assert!(uniform_bound(n, k) > if k == 0 { 0.0 } else { uniform_bound(n, k - 1) });
    k
}

/// [`Ctps::sample_one`] over the implicit uniform CTPS of `n` candidates.
pub fn uniform_sample_one(n: usize, rng: &mut Philox, stats: &mut SimStats) -> usize {
    stats.rng_draws += 1;
    stats.warp_cycles += 4; // Philox draw
    let r = rng.uniform();
    uniform_search(n, r, stats)
}

/// A searchable view of a CTPS: materialized bounds ([`Ctps`]) or the
/// implicit uniform CTPS ([`UniformCtps`]) that is never built. The SELECT
/// claim loop and the bipartite adjustment are generic over this so the
/// closed-form uniform path runs *the same code* — and therefore draws the
/// same random numbers and charges the same work — as the materialized
/// path.
pub trait CtpsView {
    /// Candidate whose region contains `r` (see [`Ctps::search`]).
    fn search(&self, r: f64, stats: &mut SimStats) -> usize;
    /// Region `(l, h)` of candidate `k` (see [`Ctps::region`]).
    fn region(&self, k: usize) -> (f64, f64);
}

impl CtpsView for Ctps {
    fn search(&self, r: f64, stats: &mut SimStats) -> usize {
        Ctps::search(self, r, stats)
    }
    fn region(&self, k: usize) -> (f64, f64) {
        Ctps::region(self, k)
    }
}

/// The implicit CTPS of `n` unit biases — bit-identical to
/// `Ctps::build(&vec![1.0; n])` (see [`uniform_bound`]) without
/// materializing anything.
#[derive(Debug, Clone, Copy)]
pub struct UniformCtps {
    /// Candidate count.
    pub n: usize,
}

impl CtpsView for UniformCtps {
    fn search(&self, r: f64, stats: &mut SimStats) -> usize {
        uniform_search(self.n, r, stats)
    }
    fn region(&self, k: usize) -> (f64, f64) {
        let l = if k == 0 { 0.0 } else { uniform_bound(self.n, k - 1) };
        (l, uniform_bound(self.n, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1_ctps() -> Ctps {
        // Biases of v8's neighbors in the toy graph: {3, 6, 2, 2, 2}.
        let mut s = SimStats::new();
        Ctps::build(&[3.0, 6.0, 2.0, 2.0, 2.0], &mut s).unwrap()
    }

    #[test]
    fn matches_paper_fig1b() {
        let c = fig1_ctps();
        let expect = [0.2, 0.6, 11.0 / 15.0, 13.0 / 15.0, 1.0];
        for (a, b) in (0..c.len()).map(|k| c.bound(k)).zip(expect) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        assert_eq!(c.total_bias(), 15.0);
    }

    #[test]
    fn paper_example_r_half_selects_v7() {
        // "Assuming r = 0.5 ... the second candidate v7 is selected."
        let c = fig1_ctps();
        let mut s = SimStats::new();
        assert_eq!(c.search(0.5, &mut s), 1);
    }

    #[test]
    fn regions_partition_unit_interval() {
        let c = fig1_ctps();
        let mut acc = 0.0;
        for k in 0..c.len() {
            let (l, h) = c.region(k);
            assert!((l - acc).abs() < 1e-12);
            acc = h;
        }
        assert!((acc - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_total_bias_is_none() {
        let mut s = SimStats::new();
        assert!(Ctps::build(&[0.0, 0.0], &mut s).is_none());
        assert!(Ctps::build(&[], &mut s).is_none());
    }

    #[test]
    fn zero_width_regions_are_skipped() {
        let mut s = SimStats::new();
        let c = Ctps::build(&[0.0, 1.0, 0.0, 1.0], &mut s).unwrap();
        // r = 0 lands at the zero-width region 0's lower edge; must skip to 1.
        assert_eq!(c.search(0.0, &mut s), 1);
        assert!(c.probability(0) == 0.0);
        // region 2 has zero width and is unreachable.
        for i in 0..1000 {
            let r = i as f64 / 1000.0;
            assert_ne!(c.search(r, &mut s), 2);
        }
    }

    #[test]
    fn sample_one_follows_transition_probabilities() {
        let c = fig1_ctps();
        let mut rng = Philox::new(77);
        let mut s = SimStats::new();
        let n = 200_000;
        let mut counts = [0usize; 5];
        for _ in 0..n {
            counts[c.sample_one(&mut rng, &mut s)] += 1;
        }
        let expect = [0.2, 0.4, 2.0 / 15.0, 2.0 / 15.0, 2.0 / 15.0];
        for (i, (&cnt, &p)) in counts.iter().zip(&expect).enumerate() {
            let f = cnt as f64 / n as f64;
            assert!((f - p).abs() < 0.01, "candidate {i}: freq {f} vs prob {p}");
        }
        assert_eq!(s.rng_draws, n as u64);
    }

    #[test]
    fn build_counts_scan_work() {
        let mut s = SimStats::new();
        Ctps::build(&vec![1.0; 64], &mut s).unwrap();
        assert!(s.scan_steps >= 10, "two full tiles of Kogge-Stone");
        assert!(s.warp_cycles > 0);
    }

    /// What replaced replaying recorded ledgers: a rebuild's charge is a
    /// function of the lane's length, never of its contents.
    #[test]
    fn rebuild_charges_are_a_function_of_n() {
        let mut rng = Philox::new(0xC7F5);
        for n in (1..=130).chain([255, 256, 257, 1000, 4097]) {
            let mut random: Vec<f64> = (0..n).map(|_| rng.uniform() * 1e3).collect();
            for slot in random.iter_mut().step_by(3) {
                *slot = if rng.chance(0.5) { 0.0 } else { f64::MIN_POSITIVE / 4.0 };
            }
            random[n / 2] = 1.0;
            let mut single = vec![0.0; n];
            single[n - 1] = f64::MIN_POSITIVE / 8.0;
            for lane in [random, single] {
                let mut expected = SimStats::new();
                rebuild_cost(n, &mut expected);
                let mut charged = SimStats::new();
                assert!(Ctps::empty().rebuild(&lane, &mut charged), "n={n}");
                assert_eq!(charged, expected, "successful rebuild n={n}");
            }
            let mut overflow = vec![1.0; n];
            overflow[n / 3] = f64::INFINITY;
            // Finite biases whose sum overflows part-way through the scan.
            let sum_overflow = vec![f64::MAX / 3.0; n];
            let failing =
                [vec![0.0; n], overflow].into_iter().chain((n >= 4).then_some(sum_overflow));
            for lane in failing {
                let mut expected = SimStats::new();
                scan_cost(n, &mut expected);
                let mut charged = SimStats::new();
                assert!(!Ctps::empty().rebuild(&lane, &mut charged), "n={n}");
                assert_eq!(charged, expected, "failed rebuild n={n}");
            }
        }
    }

    #[test]
    fn single_candidate() {
        let mut s = SimStats::new();
        let c = Ctps::build(&[42.0], &mut s).unwrap();
        assert_eq!(c.search(0.7, &mut s), 0);
        assert_eq!(c.probability(0), 1.0);
    }

    #[test]
    fn assign_copies_bounds_and_total() {
        let c = fig1_ctps();
        let mut d = Ctps::empty();
        d.assign(&c);
        assert_eq!(d, c);
        // Re-assign reuses capacity and overwrites.
        let mut s = SimStats::new();
        let c2 = Ctps::build(&[1.0, 1.0], &mut s).unwrap();
        d.assign(&c2);
        assert_eq!(d, c2);
    }

    #[test]
    fn normalize_keeps_every_bound_and_is_part_of_equality() {
        let raw = fig1_ctps();
        let mut norm = raw.clone();
        norm.normalize();
        assert_ne!(norm, raw, "a raw table never equals a normalized one");
        for k in 0..raw.len() {
            assert_eq!(norm.bound(k).to_bits(), raw.bound(k).to_bits(), "k={k}");
        }
        assert_eq!(raw.bound(raw.len() - 1), 1.0, "T / T is exactly 1");
        let once = norm.clone();
        norm.normalize();
        assert_eq!(norm, once, "normalizing twice divides once");
        let mut copy = Ctps::empty();
        copy.assign(&norm);
        assert_eq!(copy, norm);
    }

    #[test]
    fn quotient_threshold_is_the_exact_flip_point() {
        let mut rng = Philox::new(0x7E5);
        let mut totals = vec![1.0, 3.0, 15.0, 24_337.5, 1e-300, 1e300, f64::MAX / 3.0];
        totals.extend((0..40).map(|i| (rng.uniform() + 0.5) * 2f64.powi(i * 50 - 1000)));
        for &total in &totals {
            let mut rs = vec![0.0, 0.5, 1.0 - 1.0 / (1u64 << 53) as f64, 1.0, 1.5];
            rs.extend((0..500).map(|_| rng.uniform()));
            rs.extend((0..50).map(|_| rng.uniform() * 1e-12));
            for r in rs {
                match quotient_threshold(r, total) {
                    Some(s) => {
                        assert!(r < s / total, "r={r:e} total={total:e}");
                        assert!(s.next_down() / total <= r, "r={r:e} total={total:e}");
                    }
                    None => assert!(!(r * total).is_normal(), "walk ran out r={r:e} t={total:e}"),
                }
            }
        }
        assert_eq!(quotient_threshold(0.0, 1.0), None);
        assert_eq!(quotient_threshold(f64::NAN, 1.0), None);
        assert_eq!(quotient_threshold(0.5, f64::MIN_POSITIVE / 2.0), None);
    }

    #[test]
    fn branchless_search_matches_the_branchy_one_with_either_predicate() {
        let tiny = 1.0 / (1u64 << 53) as f64;
        let lanes: Vec<Vec<f64>> = vec![
            vec![3.0, 6.0, 2.0, 2.0, 2.0],
            vec![0.0, 1.0, 0.0, 1.0],
            vec![0.0, 0.0, 5.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
            // Kogge-Stone leaves these sums out of order: 1, 1, 1 + 2⁻⁵², 1.
            vec![1.0, tiny, tiny, 0.0],
            vec![1.0, 1e-17, 1e-17, 1.0, 0.0, 1e-17],
            (0..100).map(|i| ((i * 37) % 11) as f64).collect(),
        ];
        for biases in lanes {
            let c = Ctps::build(&biases, &mut SimStats::new()).unwrap();
            let (n, total) = (c.len(), c.total_bias());
            let mut rs = vec![0.0, 1.0 - tiny, 1.0, 2.0];
            for k in 0..n {
                let b = c.bound(k);
                rs.extend([b.next_down(), b, b.next_up()]);
            }
            for r in rs {
                let mut oracle = SimStats::new();
                let k_ref = binary_search_region_by(n, r, |i| c.bound(i), &mut oracle);
                let divided = branchless_insertion_point::<false>(&c.bounds, |b| r < b / total);
                assert_eq!((divided.0.min(n - 1), divided.1), (k_ref, oracle.search_steps));
                if let Some(s) = quotient_threshold(r, total) {
                    let by_threshold = branchless_insertion_point::<false>(&c.bounds, |b| b >= s);
                    assert_eq!(by_threshold, divided, "{biases:?} r={r:e}");
                }
            }
        }
    }

    #[test]
    fn uniform_closed_form_is_bit_identical() {
        // The implicit uniform CTPS must reproduce the materialized one
        // exactly: same bounds bitwise, same searched index, same charges.
        for n in [1usize, 2, 3, 5, 31, 32, 33, 64, 100, 1000] {
            let mut build_stats = SimStats::new();
            let c = Ctps::build(&vec![1.0; n], &mut build_stats).unwrap();
            let mut cost_stats = SimStats::new();
            rebuild_cost(n, &mut cost_stats);
            assert_eq!(cost_stats, build_stats, "rebuild charges n={n}");
            for k in 0..n {
                let b = c.bound(k);
                assert_eq!(b.to_bits(), uniform_bound(n, k).to_bits(), "bound n={n} k={k}");
            }
            for step in 0..100 {
                let r = step as f64 / 100.0;
                let mut s_mat = SimStats::new();
                let mut s_cf = SimStats::new();
                assert_eq!(c.search(r, &mut s_mat), uniform_search(n, r, &mut s_cf));
                assert_eq!(s_mat, s_cf, "search charges n={n} r={r}");
            }
        }
    }

    /// `uniform_search` against the search loop it replaces, at one `r`:
    /// same index, same `search_steps`/`warp_cycles`, nothing else charged.
    fn assert_search_matches(n: usize, r: f64, reference: &dyn Fn(f64, &mut SimStats) -> usize) {
        let mut s_ref = SimStats::new();
        let mut s_cf = SimStats::new();
        let k_ref = reference(r, &mut s_ref);
        assert_eq!(uniform_search(n, r, &mut s_cf), k_ref, "index n={n} r={r:e}");
        assert_eq!(s_cf, s_ref, "charges n={n} r={r:e}");
    }

    /// The draws where a rounding could matter — every listed bound, its
    /// two neighbours, both ends of the unit interval — plus a seeded sweep.
    fn adversarial_draws(n: usize, bound_indices: impl Iterator<Item = usize>) -> Vec<f64> {
        let mut rs = vec![0.0, 1.0 - 1.0 / (1u64 << 53) as f64, 1.0];
        for k in bound_indices {
            let b = uniform_bound(n, k);
            rs.extend([b.next_down(), b, b.next_up()]);
        }
        let mut rng = Philox::new(0xC5A3 ^ n as u64);
        rs.extend((0..200).map(|_| rng.uniform()));
        rs
    }

    #[test]
    fn uniform_search_equals_the_materialized_search_at_every_bound() {
        // Holds in release builds too, where no debug_assert shadows the
        // closed forms with their loops.
        for n in 1..=130 {
            let c = Ctps::build(&vec![1.0; n], &mut SimStats::new()).unwrap();
            for r in adversarial_draws(n, 0..n) {
                assert_search_matches(n, r, &|r, s| c.search(r, s));
            }
        }
        for n in [255usize, 256, 257, 1000, 4095, 4096, 65_537, (1 << 20) + 1, (1 << 31) - 1] {
            // Too large to build: the search loop over the implicit bounds,
            // at the bounds around every midpoint the loop can probe first
            // and around a seeded scatter of the rest.
            let mut rng = Philox::new(n as u64);
            let ks = [0, 1, n / 4, n / 2 - 1, n / 2, n / 2 + 1, n - 3, n - 2, n - 1]
                .into_iter()
                .chain((0..300).map(|_| rng.below(n as u64) as usize));
            for r in adversarial_draws(n, ks) {
                assert_search_matches(n, r, &|r, s| {
                    binary_search_region_by(n, r, |i| uniform_bound(n, i), s)
                });
            }
        }
    }

    #[test]
    fn uniform_sample_one_matches_materialized() {
        let n = 37;
        let mut s = SimStats::new();
        let c = Ctps::build(&vec![1.0; n], &mut s).unwrap();
        let mut rng_a = Philox::new(99);
        let mut rng_b = Philox::new(99);
        let mut sa = SimStats::new();
        let mut sb = SimStats::new();
        for _ in 0..500 {
            assert_eq!(
                c.sample_one(&mut rng_a, &mut sa),
                uniform_sample_one(n, &mut rng_b, &mut sb)
            );
        }
        assert_eq!(sa, sb);
    }
}
