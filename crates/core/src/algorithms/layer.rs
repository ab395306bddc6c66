//! Layer sampling (paper §II-A, after Gao et al.'s LGCL): "samples a
//! constant number of neighbors for all vertices present in the frontier
//! in each round" — one shared neighbor pool per layer, unlike neighbor
//! sampling's per-vertex pools. This is the algorithm that breaks
//! vertex-centric frameworks (§III-A) and motivates C-SAW's pool-level
//! SELECT.

use crate::api::{AlgoConfig, Algorithm, EdgeCand, FrontierMode, NeighborSize};
use csaw_graph::{GraphView, VertexId, Weight};

/// Layer sampling with a per-layer budget.
#[derive(Debug, Clone, Copy)]
pub struct LayerSampling {
    /// Neighbors selected per layer (from the union pool).
    pub layer_size: usize,
    /// Number of layers.
    pub depth: usize,
}

impl Algorithm for LayerSampling {
    fn name(&self) -> &'static str {
        "layer-sampling"
    }
    fn config(&self) -> AlgoConfig {
        AlgoConfig {
            depth: self.depth,
            neighbor_size: NeighborSize::Constant(self.layer_size),
            frontier: FrontierMode::SharedLayer,
            without_replacement: true,
        }
    }
    fn edge_bias(&self, g: GraphView<'_>, e: &EdgeCand) -> f64 {
        // Importance ∝ candidate degree (static bias per Table I).
        g.degree(e.u) as f64
    }
    fn edge_bias_lane(
        &self,
        g: GraphView<'_>,
        _v: VertexId,
        _prev: Option<VertexId>,
        neighbors: &[VertexId],
        _weights: Option<&[Weight]>,
        out: &mut Vec<f64>,
    ) {
        g.degree_lane(neighbors, out)
    }
    fn edge_bias_is_static(&self) -> bool {
        // Static per Table I. The shared-layer union pool is still built
        // per step, so expand_layer never consults the per-vertex cache —
        // the flag is accurate but only the per-vertex path exploits it.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Sampler;
    use csaw_graph::generators::{ring_lattice, toy_graph};

    #[test]
    fn per_layer_budget_is_shared_not_per_vertex() {
        let g = ring_lattice(100, 3); // degree 6 everywhere
        let algo = LayerSampling { layer_size: 4, depth: 1 };
        // Instance with many seeds: neighbor sampling would take 4 per
        // seed; layer sampling takes 4 total.
        let out = Sampler::new(&g, &algo).run(&[vec![0, 10, 20, 30, 40]]);
        assert_eq!(out.instances[0].len(), 4);
    }

    #[test]
    fn layers_accumulate_over_depth() {
        let g = ring_lattice(100, 3);
        let algo = LayerSampling { layer_size: 4, depth: 3 };
        let out = Sampler::new(&g, &algo).run(&[vec![0, 50]]);
        // ≤ 4 per layer × 3 layers; positive-bias pools keep it exactly 4
        // on a regular graph until without-replacement bites.
        assert!(out.instances[0].len() <= 12);
        assert!(out.instances[0].len() >= 8);
    }

    #[test]
    fn high_degree_candidates_preferred() {
        let g = toy_graph();
        let algo = LayerSampling { layer_size: 1, depth: 1 };
        let mut hub = 0usize;
        let n = 30_000;
        for i in 0..n {
            let out = Sampler::new(&g, &algo)
                .with_options(crate::engine::RunOptions { seed: i as u64, ..Default::default() })
                .run(&[vec![8]]);
            if out.instances[0][0].1 == 7 {
                hub += 1;
            }
        }
        let f = hub as f64 / n as f64;
        assert!((f - 0.4).abs() < 0.03, "v7 bias 6/15 → 0.4, got {f}");
    }

    #[test]
    fn sampled_edges_are_real() {
        let g = toy_graph();
        let algo = LayerSampling { layer_size: 3, depth: 3 };
        let out = Sampler::new(&g, &algo).run(&[vec![0, 8]]);
        for &(v, u) in &out.instances[0] {
            assert!(g.has_edge(v, u));
        }
    }

    #[test]
    fn empty_frontier_terminates_early() {
        // Star with only out-edges from 0: layer 2's pool is empty.
        let g = csaw_graph::CsrBuilder::new().add_edge(0, 1).add_edge(0, 2).build();
        let algo = LayerSampling { layer_size: 2, depth: 5 };
        let out = Sampler::new(&g, &algo).run(&[vec![0]]);
        assert!(out.instances[0].len() <= 2);
    }
}
