//! Walk-trajectory analysis: cover time and return statistics — the
//! classical quantities that validate a random-walk implementation
//! against theory (a walk with the right transition law has the right
//! cover time; a subtly biased one does not). The return-time check is
//! Kac's lemma: a simple random walk on a connected undirected graph
//! returns to `v` after `2|E| / deg(v)` steps on average.

use csaw_core::algorithms::SimpleRandomWalk;
use csaw_core::engine::{RunOptions, Sampler};
use csaw_graph::generators::{ring_lattice, toy_graph};
use csaw_graph::{Csr, CsrBuilder, VertexId};

/// Measures the cover time of a simple random walk from `source`: steps
/// until every vertex reachable from `source` has been visited, averaged
/// over `trials` independent walks. Returns `None` if any trial fails to
/// cover within `max_steps` (walk too short for this graph).
fn mean_cover_time(
    g: &Csr,
    source: VertexId,
    trials: usize,
    max_steps: usize,
    seed: u64,
) -> Option<f64> {
    let reachable = csaw_graph::traversal::reachable_count(g, source);
    let algo = SimpleRandomWalk { length: max_steps };
    let out = Sampler::new(g, &algo)
        .with_options(RunOptions { seed, ..Default::default() })
        .run_single_seeds(&vec![source; trials]);
    let mut total = 0usize;
    for inst in &out.instances {
        let mut seen = vec![false; g.num_vertices()];
        seen[source as usize] = true;
        let mut count = 1usize;
        let mut covered_at = None;
        for (step, &(_, u)) in inst.iter().enumerate() {
            if !std::mem::replace(&mut seen[u as usize], true) {
                count += 1;
                if count == reachable {
                    covered_at = Some(step + 1);
                    break;
                }
            }
        }
        total += covered_at?;
    }
    Some(total as f64 / trials as f64)
}

/// Mean return time to `vertex` over a long walk: steps between
/// consecutive visits. For a connected undirected graph theory gives
/// `2|E| / deg(v)` — a sharp test of the transition law.
fn mean_return_time(g: &Csr, vertex: VertexId, walk_length: usize, seed: u64) -> Option<f64> {
    let algo = SimpleRandomWalk { length: walk_length };
    let out = Sampler::new(g, &algo)
        .with_options(RunOptions { seed, ..Default::default() })
        .run_single_seeds(&[vertex]);
    let inst = &out.instances[0];
    let mut last: Option<usize> = Some(0);
    let mut gaps = Vec::new();
    for (step, &(_, u)) in inst.iter().enumerate() {
        if u == vertex {
            if let Some(l) = last {
                gaps.push(step + 1 - l);
            }
            last = Some(step + 1);
        }
    }
    if gaps.len() < 8 {
        return None; // not enough returns to average
    }
    Some(gaps.iter().sum::<usize>() as f64 / gaps.len() as f64)
}

#[test]
fn return_time_matches_2m_over_degree() {
    // Theory: E[return to v] = 2|E_undirected| / deg(v) = m_csr / deg(v).
    let g = toy_graph();
    for v in [7u32, 8, 1] {
        let expect = g.num_edges() as f64 / g.degree(v) as f64;
        let measured = mean_return_time(&g, v, 400_000, 3).unwrap();
        assert!(
            (measured - expect).abs() / expect < 0.05,
            "v{v}: measured {measured} vs theory {expect}"
        );
    }
}

#[test]
fn cover_time_scales_superlinearly_on_rings() {
    // Ring cover time is Θ(n²); doubling n should far more than
    // double it.
    let small = mean_cover_time(&ring_lattice(16, 1), 0, 24, 40_000, 5).unwrap();
    let large = mean_cover_time(&ring_lattice(32, 1), 0, 24, 40_000, 5).unwrap();
    assert!(large > 2.8 * small, "ring cover time must scale ~quadratically: {small} -> {large}");
}

#[test]
fn clique_covers_fast() {
    // Complete graph cover time ~ n ln n — tiny.
    let mut b = CsrBuilder::new().symmetrize(true);
    for i in 0..8u32 {
        for j in (i + 1)..8 {
            b = b.add_edge(i, j);
        }
    }
    let g = b.build();
    let t = mean_cover_time(&g, 0, 32, 2_000, 7).unwrap();
    assert!(t < 40.0, "K8 cover time {t}");
}

#[test]
fn uncoverable_returns_none() {
    // Max steps too small to cover.
    let g = ring_lattice(64, 1);
    assert!(mean_cover_time(&g, 0, 4, 80, 1).is_none());
    // Too few returns for the average.
    assert!(mean_return_time(&g, 0, 16, 1).is_none());
}
