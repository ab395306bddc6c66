//! KnightKing-style walker-centric random-walk engine (SOSP'19 comparator
//! of Fig. 9a).
//!
//! KnightKing's design, as the paper characterizes it (§VII): a
//! walker-centric model that "pre-computes the alias table for static
//! transition probability, and resorts to dartboard for the dynamic
//! counterpart". This engine does exactly that:
//!
//! - static biases (uniform / degree) → one alias table per vertex built
//!   up front (preprocessing, priced separately);
//! - dynamic biases (node2vec-style) → dartboard rejection at runtime;
//! - walkers advance in bulk over a rayon thread pool, one logical thread
//!   per walker batch (`# threads = # cores` as profiled in §VI-A).

use crate::dartboard::Dartboard;
use crate::BaselineOutput;
use csaw_core::alias::AliasTable;
use csaw_gpu::cost::CpuWork;
use csaw_gpu::stats::SimStats;
use csaw_gpu::Philox;
use csaw_graph::{Csr, VertexId};
use rayon::prelude::*;

/// Which bias the walk uses — determines alias vs. dartboard machinery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WalkBias {
    /// Uniform over neighbors (Deepwalk).
    Unbiased,
    /// Static: neighbor degree (biased Deepwalk — the Fig. 9a workload).
    Degree,
    /// Dynamic: rejection-sampled degree bias, exercising the dartboard
    /// path KnightKing uses when precomputation is impossible.
    DynamicDegree,
    /// Second-order node2vec bias via KnightKing's signature rejection
    /// scheme: propose a uniform neighbor, accept with
    /// `bias / max(1, 1/p, 1/q)` — O(1) expected trials without
    /// materializing the dynamic distribution.
    Node2vec {
        /// Return parameter.
        p: f64,
        /// In-out parameter.
        q: f64,
    },
}

/// The walker engine.
#[derive(Debug)]
pub struct KnightKing<'g> {
    graph: &'g Csr,
    bias: WalkBias,
    /// Per-vertex alias tables (static biases only).
    alias: Vec<Option<AliasTable>>,
    /// Preprocessing cost of building them.
    preprocess: CpuWork,
}

impl<'g> KnightKing<'g> {
    /// Builds the engine; for static biases this precomputes one alias
    /// table per vertex (the cost KnightKing pays before walking).
    pub fn new(graph: &'g Csr, bias: WalkBias) -> Self {
        let mut preprocess = CpuWork::default();
        let alias = match bias {
            WalkBias::Unbiased | WalkBias::DynamicDegree | WalkBias::Node2vec { .. } => Vec::new(),
            WalkBias::Degree => {
                let mut stats = SimStats::new();
                let tables: Vec<Option<AliasTable>> = (0..graph.num_vertices() as VertexId)
                    .map(|v| {
                        let biases: Vec<f64> =
                            graph.neighbors(v).iter().map(|&u| graph.degree(u) as f64).collect();
                        AliasTable::build(&biases, &mut stats)
                    })
                    .collect();
                preprocess.ops = stats.warp_cycles;
                preprocess.bytes = graph.num_edges() as u64 * 12; // prob+alias rows
                tables
            }
        };
        KnightKing { graph, bias, alias, preprocess }
    }

    /// Runs `length`-step walks, one per seed, in parallel. Counts the
    /// engine's logical work for the POWER9 cost model.
    pub fn run(&self, seeds: &[VertexId], length: usize, seed: u64) -> BaselineOutput {
        let t0 = std::time::Instant::now();
        let results: Vec<(Vec<(VertexId, VertexId)>, CpuWork)> = seeds
            .par_iter()
            .enumerate()
            .map(|(i, &s)| self.walk_one(s, length, Philox::for_task(seed, i as u64)))
            .collect();

        let mut work = CpuWork::default();
        let mut instances = Vec::with_capacity(results.len());
        for (path, w) in results {
            work.merge(&w);
            instances.push(path);
        }
        // Walker engines advance all walkers one hop per bulk-synchronous
        // superstep; the walk length is the superstep count.
        work.supersteps = length as u64;
        BaselineOutput {
            instances,
            work,
            preprocess: self.preprocess,
            wall_seconds: t0.elapsed().as_secs_f64(),
        }
    }

    fn walk_one(
        &self,
        start: VertexId,
        length: usize,
        mut rng: Philox,
    ) -> (Vec<(VertexId, VertexId)>, CpuWork) {
        let g = self.graph;
        let mut work = CpuWork::default();
        let mut path = Vec::with_capacity(length);
        let mut v = start;
        let mut prev: Option<VertexId> = None;
        let mut sim = SimStats::new();
        for _ in 0..length {
            let deg = g.degree(v);
            // Walker state fetch + degree lookup: dependent random access.
            work.random_accesses += 1;
            // Per-step walker message handling: pack, route to the owning
            // bucket, unpack (the walker-centric engine's step protocol).
            work.ops += 30;
            if deg == 0 {
                break;
            }
            let idx = match self.bias {
                WalkBias::Unbiased => {
                    work.ops += 2;
                    rng.below(deg as u64) as usize
                }
                WalkBias::Degree => {
                    // O(1) alias lookup: one random row + the coin.
                    work.random_accesses += 1;
                    work.ops += 4;
                    self.alias[v as usize]
                        .as_ref()
                        .expect("positive-degree vertex has a table")
                        .sample(&mut rng, &mut sim)
                }
                WalkBias::Node2vec { p, q } => {
                    // Rejection against the envelope M = max(1, 1/p, 1/q):
                    // each trial proposes a uniform neighbor and accepts
                    // with bias/M; the bias needs one `has_edge` probe
                    // against prev's adjacency per trial.
                    let envelope = (1.0f64).max(1.0 / p).max(1.0 / q);
                    loop {
                        work.ops += 6;
                        let cand = rng.below(deg as u64) as usize;
                        let u = g.neighbors(v)[cand];
                        work.random_accesses += 1;
                        let bias = match prev {
                            None => 1.0,
                            Some(t) if u == t => 1.0 / p,
                            Some(t) => {
                                // Binary search of prev's adjacency.
                                work.random_accesses +=
                                    (g.degree(t).max(2) as f64).log2().ceil() as u64;
                                if g.has_edge(u, t) {
                                    1.0
                                } else {
                                    1.0 / q
                                }
                            }
                        };
                        if rng.uniform() < bias / envelope {
                            break cand;
                        }
                    }
                }
                WalkBias::DynamicDegree => {
                    // Dartboard: build bars lazily (one pass) + rejection
                    // throws; KnightKing's dynamic-bias path.
                    let biases: Vec<f64> =
                        g.neighbors(v).iter().map(|&u| g.degree(u) as f64).collect();
                    work.ops += deg as u64; // bar scan
                    work.bytes += deg as u64 * 4;
                    let before = sim.select_iterations;
                    let d = Dartboard::build(&biases, &mut sim)
                        .expect("positive-degree vertex has bars");
                    let pick = d.sample(&mut rng, &mut sim);
                    let throws = sim.select_iterations - before;
                    work.ops += 4 * throws;
                    work.random_accesses += throws;
                    pick
                }
            };
            let u = g.neighbors(v)[idx];
            work.random_accesses += 1; // neighbor array fetch
            work.bytes += 4;
            path.push((v, u));
            prev = Some(v);
            v = u;
        }
        (path, work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_graph::generators::{rmat, toy_graph, RmatParams};
    use std::collections::HashMap;

    #[test]
    fn walks_are_valid_paths() {
        let g = toy_graph();
        for bias in [
            WalkBias::Unbiased,
            WalkBias::Degree,
            WalkBias::DynamicDegree,
            WalkBias::Node2vec { p: 0.5, q: 2.0 },
        ] {
            let kk = KnightKing::new(&g, bias);
            let out = kk.run(&[0, 8], 25, 7);
            for inst in &out.instances {
                assert_eq!(inst.len(), 25, "{bias:?}");
                for &(v, u) in inst {
                    assert!(g.has_edge(v, u));
                }
                for w in inst.windows(2) {
                    assert_eq!(w[0].1, w[1].0);
                }
            }
            assert!(out.work.ops > 0 && out.work.random_accesses > 0);
        }
    }

    #[test]
    fn degree_bias_matches_alias_distribution() {
        let g = toy_graph();
        let kk = KnightKing::new(&g, WalkBias::Degree);
        let out = kk.run(&vec![8u32; 60_000], 1, 3);
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for inst in &out.instances {
            *counts.entry(inst[0].1).or_default() += 1;
        }
        // Fig. 1 biases {3,6,2,2,2}/15.
        let f7 = counts[&7] as f64 / 60_000.0;
        assert!((f7 - 0.4).abs() < 0.02, "v7: {f7}");
    }

    #[test]
    fn static_and_dynamic_degree_agree_statistically() {
        let g = toy_graph();
        let a = KnightKing::new(&g, WalkBias::Degree).run(&vec![8u32; 40_000], 1, 5);
        let b = KnightKing::new(&g, WalkBias::DynamicDegree).run(&vec![8u32; 40_000], 1, 6);
        let freq = |out: &BaselineOutput, u: u32| {
            out.instances.iter().filter(|i| i[0].1 == u).count() as f64 / out.instances.len() as f64
        };
        for u in [5u32, 7, 9, 10, 11] {
            assert!((freq(&a, u) - freq(&b, u)).abs() < 0.02, "vertex {u}");
        }
    }

    #[test]
    fn preprocessing_charged_separately() {
        let g = rmat(8, 4, RmatParams::GRAPH500, 1);
        let kk = KnightKing::new(&g, WalkBias::Degree);
        assert!(kk.preprocess.ops > 0);
        let out = kk.run(&[0], 4, 0);
        assert!(out.preprocess.ops > 0);
        assert!(out.work.ops < out.preprocess.ops + out.work.ops);
        // Unbiased pays no preprocessing.
        let out2 = KnightKing::new(&g, WalkBias::Unbiased).run(&[0], 4, 0);
        assert_eq!(out2.preprocess, CpuWork::default());
    }

    /// KnightKing's rejection-sampled node2vec must match C-SAW's
    /// ITS-based node2vec distribution — the two systems implement the
    /// same walk by different machinery.
    #[test]
    fn node2vec_rejection_matches_csaw_its() {
        use csaw_core::algorithms::Node2Vec;
        use csaw_core::engine::Sampler;
        let g = toy_graph();
        let (p, q) = (0.25, 4.0);
        // Second hop distribution from v8 with first hop fixed by looking
        // at walks of length 2 whose first hop was to v7.
        let kk = KnightKing::new(&g, WalkBias::Node2vec { p, q });
        let kk_out = kk.run(&vec![8u32; 80_000], 2, 21);
        let cs_out =
            Sampler::new(&g, &Node2Vec { length: 2, p, q }).run_single_seeds(&vec![8u32; 80_000]);
        let second_hop = |instances: &[Vec<(u32, u32)>]| {
            let mut counts: HashMap<u32, usize> = HashMap::new();
            let mut total = 0usize;
            for inst in instances {
                if inst.len() == 2 && inst[0].1 == 7 {
                    *counts.entry(inst[1].1).or_default() += 1;
                    total += 1;
                }
            }
            counts.into_iter().map(|(k, c)| (k, c as f64 / total as f64)).collect::<HashMap<_, _>>()
        };
        let a = second_hop(&kk_out.instances);
        let b = second_hop(&cs_out.instances);
        for &u in g.neighbors(7) {
            let fa = a.get(&u).copied().unwrap_or(0.0);
            let fb = b.get(&u).copied().unwrap_or(0.0);
            assert!((fa - fb).abs() < 0.02, "u={u}: knightking {fa} vs csaw {fb}");
        }
    }

    #[test]
    fn dead_ends_truncate_walks() {
        let g = csaw_graph::CsrBuilder::new().add_edge(0, 1).build();
        let out = KnightKing::new(&g, WalkBias::Unbiased).run(&[0], 10, 1);
        assert_eq!(out.instances[0], vec![(0, 1)]);
    }

    #[test]
    fn modeled_seps_is_finite_and_positive() {
        let g = rmat(9, 6, RmatParams::GRAPH500, 2);
        let kk = KnightKing::new(&g, WalkBias::Degree);
        let out = kk.run(&(0..128u32).collect::<Vec<_>>(), 64, 9);
        let cfg = csaw_gpu::config::CpuConfig::power9();
        let s = out.seps(&cfg);
        assert!(s.is_finite() && s > 0.0);
    }
}
