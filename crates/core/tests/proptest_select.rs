#![allow(clippy::needless_range_loop)] // index-centric assertions read better here
//! Property tests for the selection machinery: CTPS structure, Theorem 2,
//! and the without-replacement SELECT under every strategy/detector.

use csaw_core::bipartite::{adjust_and_search, updated_ctps, BipartiteOutcome};
use csaw_core::collision::DetectorKind;
use csaw_core::ctps::Ctps;
use csaw_core::select::{select_without_replacement, SelectConfig, SelectStrategy};
use csaw_gpu::stats::SimStats;
use csaw_gpu::warp::{binary_search_region, binary_search_region_by};
use csaw_gpu::Philox;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn arb_biases() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..50.0, 1..40)
}

/// Lanes built to stress the raw-sum search: runs of zeros, biases far
/// below the running sum (absorbed by rounding, or leaving Kogge-Stone
/// sums out of order), all scaled by `2^scale` — near `f64::MAX` at the
/// top, subnormal totals at the bottom.
fn arb_adversarial_lane() -> impl Strategy<Value = (Vec<f64>, i32)> {
    (prop::collection::vec((0u32..6, 0.0f64..1.0), 1..70), 0u32..5).prop_map(|(cells, s)| {
        let lane = cells
            .into_iter()
            .map(|(kind, x)| match kind {
                0 | 1 => 0.0,
                2 => x * 2f64.powi(-60),
                3 => 2f64.powi(-53),
                _ => x + 0.5,
            })
            .collect();
        (lane, [0, 1016, -1070, -1040, 37][s as usize])
    })
}

/// The draws where a rounding could matter: every region edge and its two
/// neighbours, both ends of the unit interval, and past its top. Draws
/// are never negative, so neither is any of these.
fn edge_draws(c: &Ctps) -> Vec<f64> {
    let mut rs = vec![0.0, 1.0 - 1.0 / (1u64 << 53) as f64, 1.0, 1.0 + 1e-9, 2.0, f64::INFINITY];
    for k in 0..c.len() {
        let b = c.bound(k);
        rs.extend([b.next_down(), b, b.next_up()].into_iter().filter(|&r| r >= 0.0));
    }
    rs
}

/// `Ctps::search` on the raw table `raw` and on its normalized copy must
/// both equal the branchy reference search over `fl(S_k / T)`: same
/// index, same charges. This holds in release builds, where no
/// `debug_assert` shadows the branch-free search with the reference.
fn assert_search_exact(raw: &Ctps, norm: &Ctps, r: f64) -> Result<(), TestCaseError> {
    let n = raw.len();
    let mut s_ref = SimStats::new();
    let k_ref = binary_search_region_by(n, r, |i| raw.bound(i), &mut s_ref);
    for table in [raw, norm] {
        let mut s = SimStats::new();
        prop_assert_eq!(table.search(r, &mut s), k_ref, "r={:e}", r);
        prop_assert_eq!(s, s_ref, "charges r={:e}", r);
    }
    Ok(())
}

/// Builds `biases` (when its total is positive and finite) and checks the
/// search of its raw and normalized forms at every edge draw plus `extra`,
/// and that the bipartite adjustment picks the same candidate, at the
/// same cost, on both forms.
fn check_lane(biases: &[f64], extra: &[f64]) -> Result<(), TestCaseError> {
    let Some(raw) = Ctps::build(biases, &mut SimStats::new()) else {
        return Ok(());
    };
    let mut norm = raw.clone();
    norm.normalize();
    for k in 0..raw.len() {
        prop_assert_eq!(norm.bound(k).to_bits(), raw.bound(k).to_bits());
    }
    for &r in edge_draws(&raw).iter().chain(extra) {
        assert_search_exact(&raw, &norm, r)?;
    }
    for hit in 0..raw.len() {
        let width = raw.probability(hit);
        if !(width > 0.0 && width < 1.0) {
            continue;
        }
        for &r_prime in extra {
            let (mut s_raw, mut s_norm) = (SimStats::new(), SimStats::new());
            let taken = |k: usize, _: &mut SimStats| k == hit;
            let on_raw = adjust_and_search(&raw, hit, r_prime, taken, &mut s_raw);
            let on_norm = adjust_and_search(&norm, hit, r_prime, taken, &mut s_norm);
            prop_assert_eq!(on_raw, on_norm, "hit={} r'={:e}", hit, r_prime);
            prop_assert_eq!(s_raw, s_norm);
        }
    }
    Ok(())
}

#[test]
fn raw_and_normalized_search_are_exact_on_adversarial_lanes() {
    let tiny = 2f64.powi(-53);
    let sub = f64::MIN_POSITIVE;
    let lanes: Vec<Vec<f64>> = vec![
        vec![3.0, 6.0, 2.0, 2.0, 2.0],
        // Zero runs, leading, inner and trailing.
        vec![0.0, 0.0, 0.0, 4.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        // Positive biases absorbed into zero-width regions; the second
        // leaves the Kogge-Stone sums out of order (1, 1, 1 + 2⁻⁵², 1).
        vec![1.0, 1e-17, 1e-17, 1.0, 1e-17],
        vec![1.0, tiny, tiny, 0.0],
        (0..64).map(|i| if i % 7 == 0 { 1.0 } else { tiny }).collect(),
        // Totals near f64::MAX.
        vec![f64::MAX / 4.0, 0.0, f64::MAX / 4.0, f64::MAX / 4.0, f64::MAX / 8.0],
        vec![f64::MAX / 2.0, f64::MAX / 2.0 * (1.0 - tiny)],
        // Subnormal totals: every product is subnormal, so every draw
        // takes the per-probe division.
        vec![sub / 8.0, 0.0, sub / 16.0, sub / 4.0],
        vec![f64::from_bits(1), f64::from_bits(3), 0.0, f64::from_bits(2)],
        // A normal total whose products with small draws are subnormal.
        vec![1e-300, 3e-300, 0.0, 2e-300],
    ];
    let mut rng = Philox::new(0xE8AC7);
    // r = 0 and draws whose product with a small total is subnormal force
    // the per-probe fallback on every lane.
    let mut extra = vec![0.0, 1e-10, 1e-20, 1e-300];
    extra.extend((0..200).map(|_| rng.uniform()));
    for biases in &lanes {
        check_lane(biases, &extra).unwrap_or_else(|e| panic!("{biases:?}: {e:?}"));
    }
}

/// `Ctps::search` on a normalized (cached) table — the branch-free,
/// prefetching search — against the branchy `binary_search_region` over
/// the same stored edges, at `r`: same index, same charges.
fn assert_cached_search_exact(norm: &Ctps, edges: &[f64], r: f64) {
    let n = edges.len();
    let mut s_ref = SimStats::new();
    let k_ref = binary_search_region(edges, r, &mut s_ref);
    let mut s = SimStats::new();
    assert_eq!(norm.search(r, &mut s), k_ref, "index n={n} r={r:e}");
    assert_eq!(s, s_ref, "charges n={n} r={r:e}");
}

/// Normalizes the CTPS of `biases` and checks its search at `r = 0`,
/// `r = 1`, on and next to every stored edge, and at `extra`.
fn check_cached_lane(biases: &[f64], extra: &[f64]) -> Vec<f64> {
    let mut norm = Ctps::build(biases, &mut SimStats::new()).expect("a positive total");
    norm.normalize();
    let edges: Vec<f64> = (0..norm.len()).map(|k| norm.bound(k)).collect();
    let mut rs = vec![0.0, 1.0];
    rs.extend(edge_draws(&norm));
    rs.extend_from_slice(extra);
    for r in rs {
        assert_cached_search_exact(&norm, &edges, r);
    }
    edges
}

/// The cached search holds in release builds too, where no `debug_assert`
/// shadows it with the branchy loop: every `n` up to 130 and a few large
/// ones, zero-width regions included, and tables Kogge-Stone rounding
/// leaves out of order.
#[test]
fn cached_search_equals_the_branchy_search_at_every_bound() {
    let mut rng = Philox::new(0xCAC4E);
    let extra: Vec<f64> = (0..64).map(|_| rng.uniform()).collect();
    for n in (1..=130).chain([255, 256, 257, 1000, 4095, 4096, 65_537]) {
        let mut biases: Vec<f64> = (0..n).map(|_| rng.uniform() * 10.0).collect();
        for slot in biases.iter_mut().step_by(5) {
            *slot = 0.0;
        }
        biases[n / 2] = 1.0;
        check_cached_lane(&biases, &extra);
    }
    let tiny = 2f64.powi(-53);
    // Sums 1, 1, 1 + 2⁻⁵², 1 over a total of 1: the stored edges go down.
    let edges = check_cached_lane(&[1.0, tiny, tiny, 0.0], &extra);
    assert!(edges.windows(2).any(|w| w[0] > w[1]), "out of order: {edges:?}");
    let lane: Vec<f64> = (0..64).map(|i| if i % 7 == 0 { 1.0 } else { tiny }).collect();
    check_cached_lane(&lane, &extra);
}

fn arb_positive_biases() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.1f64..50.0, 2..40)
}

fn all_configs() -> Vec<SelectConfig> {
    let mut v = Vec::new();
    for strategy in [SelectStrategy::Repeated, SelectStrategy::Updated, SelectStrategy::Bipartite] {
        for detector in [
            DetectorKind::LinearSearch,
            DetectorKind::ContiguousBitmap { word_bits: 8 },
            DetectorKind::ContiguousBitmap { word_bits: 32 },
            DetectorKind::StridedBitmap { word_bits: 8 },
        ] {
            v.push(SelectConfig { strategy, detector });
        }
    }
    v
}

proptest! {
    /// CTPS regions tile [0,1] and each width equals bias/total.
    #[test]
    fn ctps_regions_tile_unit_interval(biases in arb_positive_biases()) {
        let mut s = SimStats::new();
        let c = Ctps::build(&biases, &mut s).unwrap();
        let total: f64 = biases.iter().sum();
        let mut edge = 0.0;
        for k in 0..c.len() {
            let (l, h) = c.region(k);
            prop_assert!((l - edge).abs() < 1e-9);
            prop_assert!((c.probability(k) - biases[k] / total).abs() < 1e-9);
            edge = h;
        }
        prop_assert!((edge - 1.0).abs() < 1e-12);
    }

    /// `search` inverts `region`: any r inside region k maps back to k.
    #[test]
    fn search_inverts_region(biases in arb_positive_biases(), k_frac in 0.0f64..1.0, r_frac in 0.0f64..1.0) {
        let mut s = SimStats::new();
        let c = Ctps::build(&biases, &mut s).unwrap();
        let k = ((k_frac * c.len() as f64) as usize).min(c.len() - 1);
        let (l, h) = c.region(k);
        let r = l + r_frac * (h - l) * 0.999; // strictly inside
        prop_assert_eq!(c.search(r, &mut s), k);
    }

    /// Random adversarial lanes at every scale: the raw and normalized
    /// searches and the bipartite adjustment stay exact at every region
    /// edge and at random draws.
    #[test]
    fn raw_and_normalized_search_are_exact(case in arb_adversarial_lane(), seed: u64) {
        let (lane, scale) = case;
        let biases: Vec<f64> = lane.iter().map(|&b| b * 2f64.powi(scale)).collect();
        let mut rng = Philox::for_task(seed, 2);
        let extra: Vec<f64> = (0..32).map(|_| rng.uniform()).collect();
        check_lane(&biases, &extra)?;
    }

    /// Theorem 2 for arbitrary biases: removing any single candidate `v_s`
    /// and searching the updated CTPS with r' equals the bipartite
    /// adjustment of r' around region s on the original CTPS.
    #[test]
    fn theorem2_holds_for_arbitrary_biases(
        biases in arb_positive_biases(),
        s_frac in 0.0f64..1.0,
        r_prime in 0.0f64..1.0,
    ) {
        let mut st = SimStats::new();
        let ctps = Ctps::build(&biases, &mut st).unwrap();
        let s = ((s_frac * biases.len() as f64) as usize).min(biases.len() - 1);
        let mut sel = vec![false; biases.len()];
        sel[s] = true;
        let upd = updated_ctps(&biases, &sel, &mut st).unwrap();
        let expect = upd.search(r_prime, &mut st);
        match adjust_and_search(&ctps, s, r_prime, |k, _| sel[k], &mut st) {
            BipartiteOutcome::Selected(got) => prop_assert_eq!(got, expect),
            BipartiteOutcome::Restart => {
                // Only possible on an FP boundary graze; the updated CTPS
                // must then sit on a boundary too (probability ~0 events).
                let (l, h) = upd.region(expect);
                prop_assert!(r_prime - l < 1e-9 || h - r_prime < 1e-9);
            }
        }
    }

    /// SELECT returns exactly min(k, positive-bias candidates) distinct
    /// indices with positive bias, under every strategy and detector.
    #[test]
    fn select_postconditions(
        biases in arb_biases(),
        k in 1usize..12,
        seed: u64,
    ) {
        let positive = biases.iter().filter(|&&b| b > 0.0).count();
        for cfg in all_configs() {
            let mut rng = Philox::for_task(seed, 0);
            let mut stats = SimStats::new();
            let sel = select_without_replacement(&biases, k, cfg, &mut rng, &mut stats);
            prop_assert_eq!(sel.len(), k.min(positive), "{:?}", cfg);
            let mut sorted = sel.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), sel.len(), "duplicates under {:?}", cfg);
            prop_assert!(sel.iter().all(|&i| biases[i] > 0.0));
        }
    }

    /// Selection accounting invariants: one successful selection per
    /// returned index; iterations ≥ selections.
    #[test]
    fn select_accounting(biases in arb_positive_biases(), k in 1usize..8, seed: u64) {
        let mut rng = Philox::for_task(seed, 1);
        let mut stats = SimStats::new();
        let sel = select_without_replacement(
            &biases,
            k,
            SelectConfig::paper_best(),
            &mut rng,
            &mut stats,
        );
        prop_assert_eq!(stats.selections as usize, sel.len());
        prop_assert!(stats.select_iterations >= stats.selections);
    }

    /// Updated sampling zeroes exactly the selected regions.
    #[test]
    fn updated_ctps_mass_conservation(
        biases in arb_positive_biases(),
        mask in prop::collection::vec(any::<bool>(), 2..40),
    ) {
        let n = biases.len().min(mask.len());
        let biases = &biases[..n];
        let mask = &mask[..n];
        let mut st = SimStats::new();
        match updated_ctps(biases, mask, &mut st) {
            Some(upd) => {
                for k in 0..n {
                    if mask[k] {
                        prop_assert!(upd.probability(k) < 1e-12);
                    }
                }
                let remaining: f64 =
                    biases.iter().zip(mask).filter(|(_, &m)| !m).map(|(b, _)| b).sum();
                prop_assert!((upd.total_bias() - remaining).abs() < 1e-9);
            }
            None => prop_assert!(mask.iter().all(|&m| m)),
        }
    }
}
