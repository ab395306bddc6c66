//! Warp-level lockstep primitives.
//!
//! A CUDA warp is 32 threads executing in lockstep; C-SAW's SELECT leans on
//! three warp idioms (paper §IV-A):
//!
//! 1. **Kogge-Stone inclusive scan** for the bias prefix sum (the paper
//!    cites Merrill & Grimshaw's warp-level scan);
//! 2. per-lane **binary search** over the CTPS;
//! 3. **ballot/shuffle**-style communication for collision handling.
//!
//! We reproduce the lockstep data flow exactly: within one "step" every
//! lane reads before any lane's write becomes visible. Step counts feed the
//! cost model; for an n-element pool the scan costs `ceil(n/32) * 5` steps
//! plus one carry-propagation step per tile, exactly as a tiled warp scan
//! does on hardware.

use crate::stats::SimStats;

/// Lanes per warp — fixed at 32 on every NVIDIA architecture the paper
/// targets.
pub const WARP_SIZE: usize = 32;

/// Cycles per binary-search probe of the CTPS. The per-warp CTPS lives in
/// global memory (§IV-B "Data Structures"), so every probe is a dependent
/// read whose latency is only partially hidden by occupancy — this is why
/// collision retries are expensive enough for bipartite region search to
/// pay off.
pub const SEARCH_PROBE_CYCLES: u64 = 16;

/// Log2 of the warp size: rounds in a warp-wide Kogge-Stone scan.
pub const LOG_WARP_SIZE: u32 = 5;

/// In-place inclusive prefix sum with Kogge-Stone data flow, tiled by warp.
///
/// For each 32-lane tile, performs `LOG_WARP_SIZE` lockstep rounds; between
/// tiles the running carry is added (one more lockstep step), which is how
/// a single warp scans a pool longer than 32. Returns nothing; work is
/// recorded into `stats`.
///
/// A full tile runs its five rounds with compile-time strides
/// (`ks_round::<1>` … `::<16>`), which the compiler unrolls; a partial
/// tile runs the generic round loop. Both perform the same adds in the
/// same order as [`inclusive_scan_by_rounds`], so the result is
/// bit-identical to it (debug builds check every full tile) and the
/// charges are exactly [`scan_cost`]`(vals.len())`.
pub fn inclusive_scan(vals: &mut [f64], stats: &mut SimStats) {
    let mut carry = 0.0;
    let mut tiles = vals.chunks_exact_mut(WARP_SIZE);
    for tile in &mut tiles {
        let tile: &mut [f64; WARP_SIZE] =
            tile.try_into().expect("chunks_exact_mut yields full tiles");
        #[cfg(debug_assertions)]
        let mut oracle = *tile;
        ks_round::<1>(tile);
        ks_round::<2>(tile);
        ks_round::<4>(tile);
        ks_round::<8>(tile);
        ks_round::<16>(tile);
        #[cfg(debug_assertions)]
        {
            ks_rounds(&mut oracle, &mut SimStats::new());
            debug_assert!(
                oracle.iter().zip(tile.iter()).all(|(a, b)| a.to_bits() == b.to_bits()),
                "unrolled Kogge-Stone tile diverged from the round loop"
            );
        }
        stats.scan_steps += LOG_WARP_SIZE as u64;
        stats.warp_cycles += LOG_WARP_SIZE as u64;
        carry = broadcast_carry(tile, carry, stats);
    }
    let rest = tiles.into_remainder();
    if !rest.is_empty() {
        ks_rounds(rest, stats);
        broadcast_carry(rest, carry, stats);
    }
}

/// The reference for [`inclusive_scan`]: every tile, full or partial,
/// through the generic round loop. An oracle for tests and
/// `debug_assert`s, never a path.
pub fn inclusive_scan_by_rounds(vals: &mut [f64], stats: &mut SimStats) {
    let mut carry = 0.0;
    for tile in vals.chunks_mut(WARP_SIZE) {
        ks_rounds(tile, stats);
        carry = broadcast_carry(tile, carry, stats);
    }
}

/// One Kogge-Stone round at stride `D` over a full tile: lane `i` adds
/// lane `i - D`'s value from the previous round — exactly the adds, and
/// the operand order, of one iteration of [`ks_rounds`].
#[inline(always)]
fn ks_round<const D: usize>(tile: &mut [f64; WARP_SIZE]) {
    let prev = *tile;
    for i in D..WARP_SIZE {
        tile[i] = prev[i] + prev[i - D];
    }
}

/// The Kogge-Stone rounds of one tile of any length, charged a lockstep
/// step per round.
fn ks_rounds(tile: &mut [f64], stats: &mut SimStats) {
    // Lane i adds lane i-d's value from the previous round. Descending
    // iteration preserves read-before-write.
    let mut d = 1;
    while d < tile.len() {
        for i in (d..tile.len()).rev() {
            tile[i] += tile[i - d];
        }
        d <<= 1;
        stats.scan_steps += 1;
        stats.warp_cycles += 1;
    }
    if tile.len() == 1 {
        // A 1-element tile still costs a step on hardware (predicated).
        stats.scan_steps += 1;
        stats.warp_cycles += 1;
    }
}

/// Adds the running `carry` to a scanned tile and returns the next one.
/// The broadcast costs one step whether or not the carry is zero.
#[inline]
fn broadcast_carry(tile: &mut [f64], carry: f64, stats: &mut SimStats) -> f64 {
    if carry != 0.0 {
        for v in tile.iter_mut() {
            *v += carry;
        }
    }
    stats.scan_steps += 1;
    stats.warp_cycles += 1;
    tile[tile.len() - 1]
}

/// Charges exactly the lockstep steps [`inclusive_scan`] would charge for
/// an `n`-element scan, without touching any data. Used by closed-form
/// paths (uniform bias) that skip materializing the CTPS but must keep the
/// cost model bit-identical to the scanning path.
///
/// O(1): a tile of `t` lanes costs `ceil(log2 t)` Kogge-Stone rounds, one
/// predicated step when `t == 1`, and one carry broadcast; `n` elements
/// are `n / 32` full tiles (5 + 1 steps each) and at most one partial
/// tile. Debug builds check the sum against [`scan_cost_by_tiles`].
pub fn scan_cost(n: usize, stats: &mut SimStats) {
    let mut steps = (n / WARP_SIZE) as u64 * (LOG_WARP_SIZE as u64 + 1);
    let t = n % WARP_SIZE;
    if t > 0 {
        // ceil(log2 t): bit length of t - 1.
        let rounds = (usize::BITS - (t - 1).leading_zeros()) as u64;
        steps += rounds + (t == 1) as u64 + 1;
    }
    #[cfg(debug_assertions)]
    {
        let mut oracle = SimStats::new();
        scan_cost_by_tiles(n, &mut oracle);
        debug_assert_eq!((steps, steps), (oracle.scan_steps, oracle.warp_cycles), "n={n}");
    }
    stats.scan_steps += steps;
    stats.warp_cycles += steps;
}

/// The reference for [`scan_cost`]: walks the tiles and charges step by
/// step, the way [`inclusive_scan`] does. O(n) — an oracle for tests and
/// `debug_assert`s, never a path.
pub fn scan_cost_by_tiles(n: usize, stats: &mut SimStats) {
    let mut remaining = n;
    while remaining > 0 {
        let tile_len = remaining.min(WARP_SIZE);
        let mut d = 1;
        while d < tile_len {
            d <<= 1;
            stats.scan_steps += 1;
            stats.warp_cycles += 1;
        }
        if tile_len == 1 {
            stats.scan_steps += 1;
            stats.warp_cycles += 1;
        }
        // Carry broadcast, charged per tile whether or not the carry is zero.
        stats.scan_steps += 1;
        stats.warp_cycles += 1;
        remaining -= tile_len;
    }
}

/// Warp ballot: packs per-lane predicates into a mask (lane i → bit i).
/// Slices shorter than a full warp leave high bits zero.
pub fn ballot(preds: &[bool]) -> u32 {
    debug_assert!(preds.len() <= WARP_SIZE);
    preds.iter().enumerate().fold(0u32, |m, (i, &p)| m | ((p as u32) << i))
}

/// Warp shuffle: every lane reads lane `src`'s value (i.e. `__shfl_sync`
/// broadcast).
pub fn shfl<T: Copy>(vals: &[T], src: usize) -> T {
    vals[src % vals.len().max(1)]
}

/// Warp max-reduction (butterfly), counting its `LOG_WARP_SIZE` steps.
pub fn reduce_max(vals: &[f64], stats: &mut SimStats) -> f64 {
    stats.warp_cycles += LOG_WARP_SIZE as u64;
    vals.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Warp sum-reduction (butterfly), counting its `LOG_WARP_SIZE` steps.
pub fn reduce_sum(vals: &[f64], stats: &mut SimStats) -> f64 {
    stats.warp_cycles += LOG_WARP_SIZE as u64;
    vals.iter().sum()
}

/// Per-lane binary search: smallest index `i` such that `r < bounds[i]`,
/// over a CTPS-style array with `bounds[0] == 0.0` implied at index 0.
/// Returns the selected *region* index in `0..bounds.len()-1` given
/// `bounds` of region upper edges; counts `ceil(log2 n)` probe steps.
pub fn binary_search_region(bounds: &[f64], r: f64, stats: &mut SimStats) -> usize {
    // bounds = CTPS array F[1..=n] (upper edges); region k covers
    // [F[k-1], F[k]) with F[0] = 0.
    let mut lo = 0usize;
    let mut hi = bounds.len(); // exclusive
    while lo < hi {
        let mid = (lo + hi) / 2;
        stats.search_steps += 1;
        stats.warp_cycles += SEARCH_PROBE_CYCLES;
        if r < bounds[mid] {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo.min(bounds.len() - 1)
}

/// [`binary_search_region`] over *implicit* bounds: `bound(i)` plays the
/// role of `bounds[i]` for an `n`-region CTPS that was never materialized.
/// The loop arithmetic — and therefore the probe count, which depends on
/// which side of each midpoint `r` falls — is identical to the explicit
/// version, so charges match bit-for-bit.
pub fn binary_search_region_by(
    n: usize,
    r: f64,
    bound: impl Fn(usize) -> f64,
    stats: &mut SimStats,
) -> usize {
    debug_assert!(n > 0);
    let mut lo = 0usize;
    let mut hi = n;
    while lo < hi {
        let mid = (lo + hi) / 2;
        stats.search_steps += 1;
        stats.warp_cycles += SEARCH_PROBE_CYCLES;
        if r < bound(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo.min(n - 1)
}

/// The number of probes [`binary_search_region_by`] makes over `n` regions
/// when the insertion point — the smallest `i` with `r < bound(i)`, or `n`
/// — is `p`. With monotone bounds `r < bound(mid)` ⇔ `mid >= p`, so the
/// count is a function of `(n, p)` alone and needs no bound evaluated.
///
/// The search splits `n + 1` insertion points into `ceil`/`floor` halves,
/// so every one is reached after `h = floor(log2(n + 1))` or `h + 1`
/// probes: `h` compare-and-select rounds on integers, then one more probe
/// iff the interval is still open.
#[inline]
pub fn region_search_probes(n: usize, p: usize) -> u64 {
    debug_assert!(n > 0 && p <= n);
    let h = (n + 1).ilog2();
    let (mut lo, mut hi) = (0usize, n);
    for _ in 0..h {
        let mid = (lo + hi) / 2;
        let left = mid >= p;
        hi = if left { mid } else { hi };
        lo = if left { lo } else { mid + 1 };
    }
    h as u64 + (lo < hi) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_scan(vals: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(vals.len());
        let mut acc = 0.0;
        for &v in vals {
            acc += v;
            out.push(acc);
        }
        out
    }

    #[test]
    fn scan_matches_sequential_small() {
        let mut v = vec![3.0, 6.0, 2.0, 2.0, 2.0];
        let expect = seq_scan(&v);
        let mut s = SimStats::new();
        inclusive_scan(&mut v, &mut s);
        assert_eq!(v, expect);
        assert!(s.scan_steps > 0);
    }

    #[test]
    fn scan_matches_sequential_multi_tile() {
        let vals: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        let expect = seq_scan(&vals);
        let mut v = vals;
        let mut s = SimStats::new();
        inclusive_scan(&mut v, &mut s);
        for (a, b) in v.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-9);
        }
        // 100 elements = 4 tiles: 3 full tiles of 5 rounds + 1 tile of 4
        // elements needing 2 rounds, plus 4 carry steps.
        assert_eq!(s.scan_steps, 3 * 5 + 2 + 4);
    }

    #[test]
    fn scan_empty_and_single() {
        let mut s = SimStats::new();
        let mut empty: Vec<f64> = vec![];
        inclusive_scan(&mut empty, &mut s);
        assert!(empty.is_empty());
        let mut one = vec![5.0];
        inclusive_scan(&mut one, &mut s);
        assert_eq!(one, vec![5.0]);
    }

    #[test]
    fn ballot_packs_bits() {
        assert_eq!(ballot(&[true, false, true]), 0b101);
        assert_eq!(ballot(&[]), 0);
        let all = vec![true; 32];
        assert_eq!(ballot(&all), u32::MAX);
    }

    #[test]
    fn shfl_broadcasts() {
        let v = [10, 20, 30];
        assert_eq!(shfl(&v, 1), 20);
        assert_eq!(shfl(&v, 4), 20); // wraps like a lane id mod width
    }

    #[test]
    fn reductions() {
        let mut s = SimStats::new();
        assert_eq!(reduce_max(&[1.0, 9.0, 3.0], &mut s), 9.0);
        assert_eq!(reduce_sum(&[1.0, 2.0, 3.0], &mut s), 6.0);
        assert_eq!(s.warp_cycles, 10);
    }

    #[test]
    fn binary_search_selects_correct_region() {
        // CTPS of the Fig. 1 example: {0.2, 0.6, 0.7333, 0.8667, 1.0}
        let f = [0.2, 0.6, 11.0 / 15.0, 13.0 / 15.0, 1.0];
        let mut s = SimStats::new();
        assert_eq!(binary_search_region(&f, 0.1, &mut s), 0); // v5
        assert_eq!(binary_search_region(&f, 0.5, &mut s), 1); // v7 (paper's r=0.5 example)
        assert_eq!(binary_search_region(&f, 0.58, &mut s), 1);
        assert_eq!(binary_search_region(&f, 0.748, &mut s), 3); // v10
        assert_eq!(binary_search_region(&f, 0.999, &mut s), 4);
        assert!(s.search_steps >= 5);
    }

    /// Sizes past the exhaustive small range: tile and power-of-two edges
    /// up to the largest degree a `u32` vertex id space can hold.
    const LARGE_N: [usize; 9] =
        [255, 256, 257, 1000, 4095, 4096, 65_537, (1 << 20) + 1, (1 << 31) - 1];

    #[test]
    fn scan_cost_matches_inclusive_scan_charges() {
        for n in (0..=200).chain(LARGE_N) {
            let mut expect = SimStats::new();
            if n <= (1 << 20) + 1 {
                inclusive_scan(&mut vec![1.0; n], &mut expect);
            } else {
                // Too large to materialize: the tile-walking reference.
                scan_cost_by_tiles(n, &mut expect);
            }
            let mut charged = SimStats::new();
            scan_cost(n, &mut charged);
            assert_eq!(charged, expect, "n={n}");
        }
    }

    /// The unrolled full tiles against the round loop, bit for bit, on
    /// lanes whose partial sums round (non-integer values, zeros and
    /// subnormals) and on one that overflows to infinity part-way.
    #[test]
    fn tiled_scan_matches_the_round_loop() {
        let mut rng = crate::Philox::new(0x5CA7);
        for n in (0..=200).chain([255, 256, 257, 1000, 4097]) {
            let mut random: Vec<f64> = (0..n).map(|_| rng.uniform() * 1e3 + 1e-3).collect();
            for slot in random.iter_mut().step_by(3) {
                *slot = if rng.chance(0.5) { 0.0 } else { f64::MIN_POSITIVE / 4.0 };
            }
            let overflow = vec![f64::MAX / 3.0; n];
            for (i, lane) in [random, overflow].into_iter().enumerate() {
                let mut tiled = lane.clone();
                let mut charged = SimStats::new();
                inclusive_scan(&mut tiled, &mut charged);
                let mut oracle = lane;
                inclusive_scan_by_rounds(&mut oracle, &mut SimStats::new());
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&tiled), bits(&oracle), "n={n} lane {i}");
                let mut expect = SimStats::new();
                scan_cost(n, &mut expect);
                assert_eq!(charged, expect, "n={n}");
                if i == 1 && n >= 4 {
                    assert_eq!(tiled.last(), Some(&f64::INFINITY), "n={n}");
                }
            }
        }
    }

    #[test]
    fn probe_count_matches_the_search_loop() {
        // Every insertion point of every small n, and the edges plus a
        // stride of the large ones, against the loop it replaces.
        let check = |n: usize, p: usize| {
            let mut s = SimStats::new();
            let k = binary_search_region_by(n, 0.0, |i| if i >= p { 1.0 } else { -1.0 }, &mut s);
            assert_eq!(k, p.min(n - 1), "n={n} p={p}");
            assert_eq!(region_search_probes(n, p), s.search_steps, "n={n} p={p}");
            assert_eq!(s.warp_cycles, s.search_steps * SEARCH_PROBE_CYCLES);
        };
        for n in 1..=300 {
            for p in 0..=n {
                check(n, p);
            }
        }
        for n in LARGE_N {
            for p in [0, 1, 2, n / 3, n / 2 - 1, n / 2, n / 2 + 1, n - 2, n - 1, n] {
                check(n, p);
            }
            for i in 0..1000 {
                check(n, (i * 2_654_435_761) % (n + 1));
            }
        }
    }

    #[test]
    fn implicit_search_matches_explicit() {
        for n in [1usize, 2, 3, 7, 32, 33, 100] {
            let bounds: Vec<f64> =
                (0..n).map(|i| if i + 1 == n { 1.0 } else { (i + 1) as f64 / n as f64 }).collect();
            for step in 0..50 {
                let r = step as f64 / 50.0;
                let mut s_exp = SimStats::new();
                let mut s_imp = SimStats::new();
                let k_exp = binary_search_region(&bounds, r, &mut s_exp);
                let k_imp = binary_search_region_by(n, r, |i| bounds[i], &mut s_imp);
                assert_eq!(k_exp, k_imp, "n={n} r={r}");
                assert_eq!(s_exp, s_imp, "charges must match for n={n} r={r}");
            }
        }
    }

    #[test]
    fn binary_search_boundary_values() {
        let f = [0.25, 0.5, 0.75, 1.0];
        let mut s = SimStats::new();
        assert_eq!(binary_search_region(&f, 0.0, &mut s), 0);
        // Exact boundary r = F[k] belongs to the next region (half-open).
        assert_eq!(binary_search_region(&f, 0.25, &mut s), 1);
        // r = 1.0 can't occur (uniform is [0,1)) but must not go out of range.
        assert_eq!(binary_search_region(&f, 1.0, &mut s), 3);
    }
}
