//! First-order random-walk variants (paper §II-A).

use crate::api::{AlgoConfig, Algorithm, EdgeCand, FrontierMode, NeighborSize, UpdateAction};
use csaw_gpu::Philox;
use csaw_graph::{GraphView, VertexId, Weight};

fn walk_config(length: usize) -> AlgoConfig {
    AlgoConfig {
        depth: length,
        neighbor_size: NeighborSize::Constant(1),
        frontier: FrontierMode::IndependentPerVertex,
        without_replacement: false,
    }
}

/// Unbiased simple random walk — the Deepwalk walk generator: every
/// neighbor is equally likely.
#[derive(Debug, Clone, Copy)]
pub struct SimpleRandomWalk {
    /// Walk length in steps.
    pub length: usize,
}

impl Algorithm for SimpleRandomWalk {
    fn name(&self) -> &'static str {
        "simple-random-walk"
    }
    fn config(&self) -> AlgoConfig {
        walk_config(self.length)
    }
    fn edge_bias_is_uniform(&self) -> bool {
        true
    }
}

/// Multi-independent random walk (§II-A): semantically a
/// [`SimpleRandomWalk`] run as many independent instances; the engine's
/// instance dimension provides the independence, so this is a named
/// alias.
#[derive(Debug, Clone, Copy)]
pub struct MultiIndependentRandomWalk {
    /// Walk length in steps.
    pub length: usize,
}

impl Algorithm for MultiIndependentRandomWalk {
    fn name(&self) -> &'static str {
        "multi-independent-random-walk"
    }
    fn config(&self) -> AlgoConfig {
        walk_config(self.length)
    }
    fn edge_bias_is_uniform(&self) -> bool {
        true
    }
}

/// Metropolis-Hastings random walk: propose a uniform neighbor `u`, move
/// with probability `min(1, deg(v)/deg(u))`, otherwise stay at `v`
/// (§II-A: "decides to either explore the sampled neighbor or choose to
/// stay at the same vertex based upon the degree of source and neighbor
/// vertices"). The stationary distribution becomes uniform over vertices.
#[derive(Debug, Clone, Copy)]
pub struct MetropolisHastingsWalk {
    /// Walk length in steps (rejected steps are consumed).
    pub length: usize,
}

impl Algorithm for MetropolisHastingsWalk {
    fn name(&self) -> &'static str {
        "metropolis-hastings-walk"
    }
    fn config(&self) -> AlgoConfig {
        walk_config(self.length)
    }
    fn accept(&self, g: GraphView<'_>, e: &EdgeCand, rng: &mut Philox) -> Option<VertexId> {
        let dv = g.degree(e.v) as f64;
        let du = g.degree(e.u) as f64;
        if du <= dv || rng.uniform() < dv / du {
            None // move accepted
        } else {
            Some(e.v) // stay
        }
    }
    fn edge_bias_is_uniform(&self) -> bool {
        true
    }
}

/// Random walk with jump: with probability `p_jump`, teleport to a vertex
/// chosen uniformly at random (§II-A); also jumps out of dead ends.
#[derive(Debug, Clone, Copy)]
pub struct RandomWalkWithJump {
    /// Walk length in steps.
    pub length: usize,
    /// Teleport probability per step.
    pub p_jump: f64,
}

impl Algorithm for RandomWalkWithJump {
    fn name(&self) -> &'static str {
        "random-walk-with-jump"
    }
    fn config(&self) -> AlgoConfig {
        walk_config(self.length)
    }
    fn update(
        &self,
        g: GraphView<'_>,
        e: &EdgeCand,
        _home: VertexId,
        rng: &mut Philox,
    ) -> UpdateAction {
        if rng.chance(self.p_jump) {
            UpdateAction::Add(rng.below(g.num_vertices() as u64) as VertexId)
        } else {
            UpdateAction::Add(e.u)
        }
    }
    fn on_dead_end(
        &self,
        g: GraphView<'_>,
        _v: VertexId,
        _home: VertexId,
        rng: &mut Philox,
    ) -> UpdateAction {
        UpdateAction::Add(rng.below(g.num_vertices() as u64) as VertexId)
    }
    fn edge_bias_is_uniform(&self) -> bool {
        true
    }
}

/// Random walk with restart: with probability `p_restart`, return to the
/// instance's home seed (the personalized-PageRank walk); dead ends also
/// restart.
#[derive(Debug, Clone, Copy)]
pub struct RandomWalkWithRestart {
    /// Walk length in steps.
    pub length: usize,
    /// Restart probability per step.
    pub p_restart: f64,
}

impl Algorithm for RandomWalkWithRestart {
    fn name(&self) -> &'static str {
        "random-walk-with-restart"
    }
    fn config(&self) -> AlgoConfig {
        walk_config(self.length)
    }
    fn update(
        &self,
        _g: GraphView<'_>,
        e: &EdgeCand,
        home: VertexId,
        rng: &mut Philox,
    ) -> UpdateAction {
        if rng.chance(self.p_restart) {
            UpdateAction::Add(home)
        } else {
            UpdateAction::Add(e.u)
        }
    }
    fn on_dead_end(
        &self,
        _g: GraphView<'_>,
        _v: VertexId,
        home: VertexId,
        _rng: &mut Philox,
    ) -> UpdateAction {
        UpdateAction::Add(home)
    }
    fn edge_bias_is_uniform(&self) -> bool {
        true
    }
}

/// Static biased random walk — biased Deepwalk (§II-A): "the degree of
/// each neighbor is used as its bias". This is the Fig. 9a workload.
#[derive(Debug, Clone, Copy)]
pub struct BiasedRandomWalk {
    /// Walk length in steps.
    pub length: usize,
}

impl Algorithm for BiasedRandomWalk {
    fn name(&self) -> &'static str {
        "biased-random-walk"
    }
    fn config(&self) -> AlgoConfig {
        walk_config(self.length)
    }
    fn edge_bias(&self, g: GraphView<'_>, e: &EdgeCand) -> f64 {
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
        true // degree of the endpoint: per-edge, no walk state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Sampler;
    use csaw_graph::generators::{ring_lattice, toy_graph};
    use std::collections::HashMap;

    #[test]
    fn simple_walk_uniform_over_neighbors() {
        let g = toy_graph();
        let algo = SimpleRandomWalk { length: 1 };
        // 40k instances from v8: first hop should be uniform over its 5
        // neighbors.
        let seeds = vec![8u32; 40_000];
        let out = Sampler::new(&g, &algo).run_single_seeds(&seeds);
        let mut counts: HashMap<VertexId, usize> = HashMap::new();
        for inst in &out.instances {
            *counts.entry(inst[0].1).or_default() += 1;
        }
        for &u in g.neighbors(8) {
            let f = counts[&u] as f64 / 40_000.0;
            assert!((f - 0.2).abs() < 0.02, "neighbor {u}: {f}");
        }
    }

    #[test]
    fn biased_walk_prefers_high_degree() {
        let g = toy_graph();
        let algo = BiasedRandomWalk { length: 1 };
        let seeds = vec![8u32; 60_000];
        let out = Sampler::new(&g, &algo).run_single_seeds(&seeds);
        let mut counts: HashMap<VertexId, usize> = HashMap::new();
        for inst in &out.instances {
            *counts.entry(inst[0].1).or_default() += 1;
        }
        // Fig. 1 biases {3,6,2,2,2}/15 for {5,7,9,10,11}.
        let f7 = counts[&7] as f64 / 60_000.0;
        let f5 = counts[&5] as f64 / 60_000.0;
        assert!((f7 - 0.4).abs() < 0.02, "v7 {f7}");
        assert!((f5 - 0.2).abs() < 0.02, "v5 {f5}");
    }

    #[test]
    fn mh_walk_visits_uniformly_on_ring() {
        // On a regular graph MH accepts everything; stationary = uniform.
        let g = ring_lattice(20, 2);
        let algo = MetropolisHastingsWalk { length: 2000 };
        let out = Sampler::new(&g, &algo).run_single_seeds(&[0, 5, 10]);
        let mut visits = [0usize; 20];
        for inst in &out.instances {
            for &(_, u) in inst {
                visits[u as usize] += 1;
            }
        }
        let total: usize = visits.iter().sum();
        let mean = total as f64 / 20.0;
        for (v, &c) in visits.iter().enumerate() {
            assert!((c as f64 - mean).abs() < 0.25 * mean, "vertex {v}: {c} visits vs mean {mean}");
        }
    }

    #[test]
    fn mh_walk_equalizes_skewed_visits() {
        // On the toy graph, MH should visit low-degree vertices far more
        // often than a simple walk does relative to hubs.
        let g = toy_graph();
        let run_ratio = |simple: bool| {
            let mut visits = [0usize; 13];
            let out = if simple {
                Sampler::new(&g, &SimpleRandomWalk { length: 5000 }).run_single_seeds(&[0, 4, 8])
            } else {
                Sampler::new(&g, &MetropolisHastingsWalk { length: 5000 })
                    .run_single_seeds(&[0, 4, 8])
            };
            for inst in &out.instances {
                for &(_, u) in inst {
                    visits[u as usize] += 1;
                }
            }
            // Hub v7 (deg 6) vs leaf v1 (deg 2).
            visits[7] as f64 / visits[1].max(1) as f64
        };
        assert!(run_ratio(true) > 1.5 * run_ratio(false));
    }

    #[test]
    fn jump_walk_escapes_dead_ends() {
        // Directed chain 0 -> 1 -> 2; plain walk dies at 2, jumping walk
        // keeps going for the full length.
        let g = csaw_graph::CsrBuilder::new().add_edge(0, 1).add_edge(1, 2).build();
        let plain = Sampler::new(&g, &SimpleRandomWalk { length: 50 }).run_single_seeds(&[0]);
        assert!(plain.instances[0].len() <= 2);
        let jump = Sampler::new(&g, &RandomWalkWithJump { length: 50, p_jump: 0.2 })
            .run_single_seeds(&[0]);
        assert!(jump.instances[0].len() > 10, "jumps should sustain the walk");
    }

    #[test]
    fn restart_walk_returns_home() {
        let g = toy_graph();
        let algo = RandomWalkWithRestart { length: 3000, p_restart: 0.3 };
        let out = Sampler::new(&g, &algo).run_single_seeds(&[12]);
        // With p=0.3 the walk re-sources from 12 roughly 30% of steps.
        let from_home = out.instances[0].iter().filter(|&&(v, _)| v == 12).count() as f64;
        let frac = from_home / out.instances[0].len() as f64;
        assert!(frac > 0.2, "home fraction {frac}");
    }

    #[test]
    fn multi_independent_fan_out() {
        let seeds = vec![3; 5];
        let g = toy_graph();
        let algo = MultiIndependentRandomWalk { length: 10 };
        let out = Sampler::new(&g, &algo).run_single_seeds(&seeds);
        assert_eq!(out.instances.len(), 5);
        // Independence: instances differ despite identical seeds.
        assert!(out.instances.iter().any(|i| i != &out.instances[0]));
    }

    #[test]
    fn walk_lengths_are_exact_on_connected_graph() {
        let g = ring_lattice(16, 2);
        for algo_len in [1usize, 7, 100] {
            let out =
                Sampler::new(&g, &SimpleRandomWalk { length: algo_len }).run_single_seeds(&[0]);
            assert_eq!(out.instances[0].len(), algo_len);
        }
    }
}
