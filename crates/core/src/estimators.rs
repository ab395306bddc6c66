//! Estimators built on sampled data — the downstream consumers the paper's
//! introduction motivates (PageRank estimation, property estimation on
//! graphs too large to scan).
//!
//! Each estimator pairs a sampling algorithm with the reweighting that
//! makes it unbiased:
//!
//! - [`avg_degree_from_walk`]: a stationary simple random walk visits
//!   `v ∝ deg(v)`; the harmonic mean of visited degrees is the classic
//!   unbiased average-degree estimator (Ribeiro & Towsley).
//! - [`degree_histogram_from_mh`]: a Metropolis-Hastings walk visits
//!   uniformly, so plain visit counts estimate the degree distribution.
//! - [`ppr_from_restart_walks`]: restart-walk location frequencies
//!   estimate the personalized PageRank vector.

use crate::algorithms::{MetropolisHastingsWalk, RandomWalkWithRestart, SimpleRandomWalk};
use crate::engine::{RunOptions, Sampler};
use csaw_graph::{Csr, VertexId};

/// Estimates the average degree from `walks` stationary random walks of
/// `length` steps (with `burn_in` discarded): harmonic-mean estimator
/// `n_obs / Σ 1/deg(v_t)`.
pub fn avg_degree_from_walk(
    g: &Csr,
    walks: usize,
    length: usize,
    burn_in: usize,
    seed: u64,
) -> f64 {
    let algo = SimpleRandomWalk { length };
    let seeds = spread_seeds(g, walks, seed);
    let out = Sampler::new(g, &algo)
        .with_options(RunOptions { seed, ..Default::default() })
        .run_single_seeds(&seeds);
    let mut inv_sum = 0.0f64;
    let mut n = 0usize;
    for inst in &out.instances {
        for &(v, _) in inst.iter().skip(burn_in) {
            inv_sum += 1.0 / g.degree(v) as f64;
            n += 1;
        }
    }
    if inv_sum == 0.0 {
        0.0
    } else {
        n as f64 / inv_sum
    }
}

/// Estimates the degree distribution (fraction of vertices with each
/// degree) from Metropolis-Hastings walks, whose stationary distribution
/// is uniform over vertices. Returns `(degree, estimated fraction)`
/// pairs sorted by degree.
///
/// Because the engine records moves only, visits are reweighted by each
/// vertex's move probability (see `tests/distribution_validation.rs` for
/// the derivation).
pub fn degree_histogram_from_mh(
    g: &Csr,
    walks: usize,
    length: usize,
    burn_in: usize,
    seed: u64,
) -> Vec<(usize, f64)> {
    let algo = MetropolisHastingsWalk { length };
    let seeds = spread_seeds(g, walks, seed);
    let out = Sampler::new(g, &algo)
        .with_options(RunOptions { seed, ..Default::default() })
        .run_single_seeds(&seeds);
    let p_move = |v: VertexId| -> f64 {
        let dv = g.degree(v) as f64;
        if dv == 0.0 {
            return 1.0;
        }
        g.neighbors(v).iter().map(|&u| (dv / g.degree(u) as f64).min(1.0)).sum::<f64>() / dv
    };
    let mut weight_by_degree: std::collections::BTreeMap<usize, f64> =
        std::collections::BTreeMap::new();
    let mut total = 0.0f64;
    for inst in &out.instances {
        for &(v, _) in inst.iter().skip(burn_in) {
            // Observed frequency ∝ π(v)·P(move|v); divide the move factor
            // back out to recover uniform π.
            let w = 1.0 / p_move(v);
            *weight_by_degree.entry(g.degree(v)).or_default() += w;
            total += w;
        }
    }
    weight_by_degree.into_iter().map(|(d, w)| (d, w / total)).collect()
}

/// Estimates the personalized PageRank vector of `source` from `walks`
/// restart walks (restart probability `alpha`), counting walker locations
/// after `burn_in` steps.
pub fn ppr_from_restart_walks(
    g: &Csr,
    source: VertexId,
    alpha: f64,
    walks: usize,
    length: usize,
    burn_in: usize,
    seed: u64,
) -> Vec<f64> {
    let algo = RandomWalkWithRestart { length, p_restart: alpha };
    let out = Sampler::new(g, &algo)
        .with_options(RunOptions { seed, ..Default::default() })
        .run_single_seeds(&vec![source; walks]);
    let mut visits = vec![0u64; g.num_vertices()];
    for inst in &out.instances {
        for &(v, _) in inst.iter().skip(burn_in) {
            visits[v as usize] += 1;
        }
    }
    let total: u64 = visits.iter().sum::<u64>().max(1);
    visits.into_iter().map(|c| c as f64 / total as f64).collect()
}

fn spread_seeds(g: &Csr, n: usize, seed: u64) -> Vec<VertexId> {
    // Deterministic spread over non-isolated vertices.
    let nv = g.num_vertices().max(1) as u64;
    (0..n as u64)
        .map(|i| {
            let mut v = ((i.wrapping_mul(2_654_435_761).wrapping_add(seed)) % nv) as VertexId;
            // Nudge off isolated vertices (walks there are empty anyway).
            for _ in 0..8 {
                if g.degree(v) > 0 {
                    break;
                }
                v = (v + 1) % nv as VertexId;
            }
            v
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_graph::generators::{barabasi_albert, ring_lattice, toy_graph};

    #[test]
    fn avg_degree_estimator_on_regular_graph_is_exact_in_expectation() {
        let g = ring_lattice(200, 3); // degree 6 everywhere
        let est = avg_degree_from_walk(&g, 16, 200, 20, 1);
        assert!((est - 6.0).abs() < 0.01, "est {est}");
    }

    #[test]
    fn avg_degree_estimator_on_skewed_graph() {
        let g = barabasi_albert(2000, 3, 7);
        let truth = g.avg_degree();
        let est = avg_degree_from_walk(&g, 64, 400, 50, 2);
        assert!(
            (est - truth).abs() / truth < 0.1,
            "est {est} vs truth {truth} — harmonic reweighting failed"
        );
    }

    #[test]
    fn naive_walk_average_is_biased_but_harmonic_is_not() {
        // Sanity of the statistics: the *plain* mean of visited degrees
        // overestimates (size bias), the harmonic estimator doesn't.
        let g = barabasi_albert(1500, 2, 3);
        let algo = SimpleRandomWalk { length: 300 };
        let out = Sampler::new(&g, &algo).run_single_seeds(&spread_seeds(&g, 32, 5));
        let mut sum = 0.0;
        let mut n = 0usize;
        for inst in &out.instances {
            for &(v, _) in inst.iter().skip(50) {
                sum += g.degree(v) as f64;
                n += 1;
            }
        }
        let naive = sum / n as f64;
        let harmonic = avg_degree_from_walk(&g, 32, 300, 50, 5);
        let truth = g.avg_degree();
        assert!(naive > 1.3 * truth, "size bias should inflate: {naive} vs {truth}");
        assert!((harmonic - truth).abs() / truth < 0.12, "{harmonic} vs {truth}");
    }

    #[test]
    fn mh_degree_histogram_tracks_truth() {
        let g = toy_graph();
        let est = degree_histogram_from_mh(&g, 24, 3000, 100, 4);
        // Ground truth histogram.
        let mut truth: std::collections::BTreeMap<usize, f64> = Default::default();
        for v in 0..13u32 {
            *truth.entry(g.degree(v)).or_default() += 1.0 / 13.0;
        }
        for (d, f) in est {
            let t = truth.get(&d).copied().unwrap_or(0.0);
            assert!((f - t).abs() < 0.05, "degree {d}: est {f} vs truth {t}");
        }
    }

    #[test]
    fn ppr_estimator_sums_to_one_and_peaks_at_source() {
        let g = toy_graph();
        let p = ppr_from_restart_walks(&g, 8, 0.25, 4000, 60, 10, 6);
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        let max_idx = p.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        assert_eq!(max_idx, 8, "PPR mass concentrates at the source");
    }

    #[test]
    fn spread_seeds_avoids_isolated_vertices() {
        let g = csaw_graph::Csr::from_parts(vec![0, 0, 2, 3, 3], vec![2, 3, 1], None);
        let seeds = spread_seeds(&g, 16, 0);
        assert!(seeds.iter().all(|&v| g.degree(v) > 0));
    }
}
