//! Exact-law validation of SELECT: for tiny candidate pools the
//! without-replacement distribution can be enumerated in closed form
//! (successive weighted draws); every strategy and the reservoir selector
//! must match it — jointly, not just marginally.

use csaw_baselines::reservoir::reservoir_select;
use csaw_core::collision::DetectorKind;
use csaw_core::select::{select_without_replacement, SelectConfig, SelectStrategy};
use csaw_gpu::stats::SimStats;
use csaw_gpu::Philox;
use std::collections::HashMap;

/// Exact probability that the *set* `set` is selected when drawing `k`
/// distinct candidates by successive weighted draws from `biases`:
/// sum over all orderings of the product of conditional probabilities.
fn exact_set_probability(biases: &[f64], set: &[usize]) -> f64 {
    fn perms(items: &[usize]) -> Vec<Vec<usize>> {
        if items.len() <= 1 {
            return vec![items.to_vec()];
        }
        let mut out = Vec::new();
        for (i, &x) in items.iter().enumerate() {
            let mut rest = items.to_vec();
            rest.remove(i);
            for mut p in perms(&rest) {
                p.insert(0, x);
                out.push(p);
            }
        }
        out
    }
    let total: f64 = biases.iter().sum();
    let mut prob = 0.0;
    for order in perms(set) {
        let mut remaining = total;
        let mut p = 1.0;
        for &i in &order {
            p *= biases[i] / remaining;
            remaining -= biases[i];
        }
        prob += p;
    }
    prob
}

fn set_key(mut v: Vec<usize>) -> Vec<usize> {
    v.sort_unstable();
    v
}

fn validate_joint(
    name: &str,
    biases: &[f64],
    k: usize,
    trials: usize,
    mut draw: impl FnMut() -> Vec<usize>,
) {
    let mut counts: HashMap<Vec<usize>, usize> = HashMap::new();
    for _ in 0..trials {
        let sel = set_key(draw());
        assert_eq!(sel.len(), k);
        *counts.entry(sel).or_default() += 1;
    }
    // Enumerate all k-subsets and compare.
    let n = biases.len();
    let mut sets: Vec<Vec<usize>> = Vec::new();
    let mut stack = vec![(0usize, Vec::new())];
    while let Some((start, cur)) = stack.pop() {
        if cur.len() == k {
            sets.push(cur);
            continue;
        }
        for i in start..n {
            let mut next = cur.clone();
            next.push(i);
            stack.push((i + 1, next));
        }
    }
    let mut total_p = 0.0;
    for set in sets {
        let p = exact_set_probability(biases, &set);
        total_p += p;
        let f = counts.get(&set).copied().unwrap_or(0) as f64 / trials as f64;
        assert!((f - p).abs() < 0.012, "{name}: set {set:?} freq {f:.4} vs exact {p:.4}");
    }
    assert!((total_p - 1.0).abs() < 1e-9, "enumeration must cover the law");
}

#[test]
fn repeated_sampling_matches_exact_joint_law() {
    let biases = [5.0, 3.0, 1.0, 1.0];
    let mut rng = Philox::new(11);
    let mut s = SimStats::new();
    let cfg =
        SelectConfig { strategy: SelectStrategy::Repeated, detector: DetectorKind::LinearSearch };
    validate_joint("repeated", &biases, 2, 150_000, || {
        select_without_replacement(&biases, 2, cfg, &mut rng, &mut s)
    });
}

#[test]
fn updated_sampling_matches_exact_joint_law() {
    let biases = [5.0, 3.0, 1.0, 1.0];
    let mut rng = Philox::new(12);
    let mut s = SimStats::new();
    let cfg = SelectConfig {
        strategy: SelectStrategy::Updated,
        detector: DetectorKind::ContiguousBitmap { word_bits: 8 },
    };
    validate_joint("updated", &biases, 2, 150_000, || {
        select_without_replacement(&biases, 2, cfg, &mut rng, &mut s)
    });
}

#[test]
fn bipartite_region_search_matches_exact_joint_law() {
    let biases = [5.0, 3.0, 1.0, 1.0];
    let mut rng = Philox::new(13);
    let mut s = SimStats::new();
    let cfg = SelectConfig::paper_best();
    validate_joint("bipartite", &biases, 2, 150_000, || {
        select_without_replacement(&biases, 2, cfg, &mut rng, &mut s)
    });
}

#[test]
fn reservoir_matches_exact_joint_law() {
    let biases = [5.0, 3.0, 1.0, 1.0];
    let mut rng = Philox::new(14);
    let mut s = SimStats::new();
    validate_joint("reservoir", &biases, 2, 150_000, || {
        reservoir_select(&biases, 2, &mut rng, &mut s)
    });
}

#[test]
fn three_of_five_with_heavy_skew() {
    // Harder case: k=3 of 5 with a dominant candidate.
    let biases = [10.0, 2.0, 1.0, 1.0, 1.0];
    let mut rng = Philox::new(15);
    let mut s = SimStats::new();
    let cfg = SelectConfig::paper_best();
    validate_joint("bipartite-3of5", &biases, 3, 200_000, || {
        select_without_replacement(&biases, 3, cfg, &mut rng, &mut s)
    });
}
