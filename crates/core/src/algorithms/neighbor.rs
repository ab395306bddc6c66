//! Neighbor sampling — constant `NeighborSize` per vertex (paper §II-A,
//! the DGL `NeighborSampler` workload and the GCN mini-batch sampler).

use crate::api::{AlgoConfig, Algorithm, EdgeCand, FrontierMode, NeighborSize};
use csaw_graph::{GraphView, VertexId, Weight};

fn ns_config(ns: usize, depth: usize) -> AlgoConfig {
    AlgoConfig {
        depth,
        neighbor_size: NeighborSize::Constant(ns),
        frontier: FrontierMode::IndependentPerVertex,
        without_replacement: true,
    }
}

/// Unbiased neighbor sampling: each frontier vertex contributes
/// `NeighborSize` uniformly chosen distinct neighbors.
#[derive(Debug, Clone, Copy)]
pub struct UnbiasedNeighborSampling {
    /// Neighbors per vertex.
    pub neighbor_size: usize,
    /// Hops.
    pub depth: usize,
}

impl Algorithm for UnbiasedNeighborSampling {
    fn name(&self) -> &'static str {
        "unbiased-neighbor-sampling"
    }
    fn config(&self) -> AlgoConfig {
        ns_config(self.neighbor_size, self.depth)
    }
    fn edge_bias_is_uniform(&self) -> bool {
        true
    }
}

/// Biased neighbor sampling: neighbors chosen proportionally to the edge
/// weight (falling back to the neighbor's degree on unweighted graphs, a
/// static structural bias).
#[derive(Debug, Clone, Copy)]
pub struct BiasedNeighborSampling {
    /// Neighbors per vertex.
    pub neighbor_size: usize,
    /// Hops.
    pub depth: usize,
}

impl Algorithm for BiasedNeighborSampling {
    fn name(&self) -> &'static str {
        "biased-neighbor-sampling"
    }
    fn config(&self) -> AlgoConfig {
        ns_config(self.neighbor_size, self.depth)
    }
    fn edge_bias(&self, g: GraphView<'_>, e: &EdgeCand) -> f64 {
        if g.is_weighted() {
            e.weight as f64
        } else {
            g.degree(e.u) as f64
        }
    }
    fn edge_bias_lane(
        &self,
        g: GraphView<'_>,
        _v: VertexId,
        _prev: Option<VertexId>,
        neighbors: &[VertexId],
        weights: Option<&[Weight]>,
        out: &mut Vec<f64>,
    ) {
        match (g.is_weighted(), weights) {
            (true, Some(w)) => out.extend(w.iter().map(|&w| w as f64)),
            (true, None) => out.resize(out.len() + neighbors.len(), 1.0),
            (false, _) => g.degree_lane(neighbors, out),
        }
    }
    fn edge_bias_is_static(&self) -> bool {
        true // edge weight or endpoint degree: per-edge, no walk state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Sampler;
    use csaw_graph::generators::toy_graph;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn samples_at_most_ns_distinct_neighbors_per_vertex() {
        let g = toy_graph();
        let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 };
        let out = Sampler::new(&g, &algo).run_single_seeds(&[8u32; 50]);
        for inst in &out.instances {
            let mut per_source: HashMap<u32, HashSet<u32>> = HashMap::new();
            for &(v, u) in inst {
                assert!(g.has_edge(v, u));
                let set = per_source.entry(v).or_default();
                assert!(set.insert(u), "duplicate neighbor {u} sampled from {v}");
            }
            for (v, set) in per_source {
                assert!(set.len() <= 2, "vertex {v} contributed {} > NS", set.len());
            }
        }
    }

    #[test]
    fn unbiased_marginals_are_uniform() {
        let g = toy_graph();
        let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 1 };
        let out = Sampler::new(&g, &algo).run_single_seeds(&vec![8u32; 60_000]);
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for inst in &out.instances {
            for &(_, u) in inst {
                *counts.entry(u).or_default() += 1;
            }
        }
        // Choosing 2 of 5 uniformly without replacement: each neighbor's
        // inclusion probability is 2/5.
        for &u in g.neighbors(8) {
            let f = counts[&u] as f64 / 60_000.0;
            assert!((f - 0.4).abs() < 0.02, "neighbor {u}: inclusion {f}");
        }
    }

    #[test]
    fn biased_marginals_favor_heavy_edges() {
        let g = toy_graph(); // unweighted → degree bias {3,6,2,2,2}
        let algo = BiasedNeighborSampling { neighbor_size: 1, depth: 1 };
        let out = Sampler::new(&g, &algo).run_single_seeds(&vec![8u32; 60_000]);
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for inst in &out.instances {
            *counts.entry(inst[0].1).or_default() += 1;
        }
        let f7 = counts[&7] as f64 / 60_000.0;
        assert!((f7 - 0.4).abs() < 0.02, "v7 (bias 6/15): {f7}");
    }

    #[test]
    fn weighted_graph_uses_edge_weights() {
        let g = toy_graph().with_unit_weights();
        let algo = BiasedNeighborSampling { neighbor_size: 1, depth: 1 };
        // Unit weights → uniform despite degree skew.
        let out = Sampler::new(&g, &algo).run_single_seeds(&vec![8u32; 50_000]);
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for inst in &out.instances {
            *counts.entry(inst[0].1).or_default() += 1;
        }
        for &u in g.neighbors(8) {
            let f = counts[&u] as f64 / 50_000.0;
            assert!((f - 0.2).abs() < 0.02, "neighbor {u}: {f}");
        }
    }

    #[test]
    fn frontier_growth_is_bounded_by_ns_pow_depth() {
        let g = toy_graph();
        let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 };
        let out = Sampler::new(&g, &algo).run_single_seeds(&[8]);
        // Depth 3, NS 2: at most 2 + 4 + 8 = 14 edges.
        assert!(out.instances[0].len() <= 14);
    }
}
