//! GraphSAINT-style multi-dimensional random walk sampler (the Fig. 9b
//! comparator).
//!
//! GraphSAINT's C++ sampler runs frontier sampling (MDRW) with a
//! degree-weighted frontier pool per instance, multi-threaded across
//! instances. This reimplementation keeps the pool in a Fenwick tree:
//! O(log F) degree-proportional selection and O(log F) replacement per
//! step — a *stronger* baseline than a linear rescan.

use crate::fenwick::Fenwick;
use crate::BaselineOutput;
use csaw_gpu::cost::CpuWork;
use csaw_gpu::Philox;
use csaw_graph::{Csr, VertexId};
use rayon::prelude::*;

/// Frontier-pool selection structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PoolScan {
    /// Linear rescan of the degree array per step, as in the comparator's
    /// C++ sampler (default).
    #[default]
    Linear,
    /// Fenwick-tree selection — an improved baseline.
    Fenwick,
}

/// The MDRW sampler.
#[derive(Debug, Clone, Copy)]
pub struct GraphSaintMdrw {
    /// Edges sampled per instance (the budget).
    pub budget: usize,
    /// Pool selection structure.
    pub scan: PoolScan,
}

impl GraphSaintMdrw {
    /// The comparator configuration: linear pool rescan.
    pub fn published(budget: usize) -> Self {
        GraphSaintMdrw { budget, scan: PoolScan::Linear }
    }
}

impl GraphSaintMdrw {
    /// Runs one instance per seed pool, in parallel across instances.
    pub fn run(&self, graph: &Csr, pools: &[Vec<VertexId>], seed: u64) -> BaselineOutput {
        let results: Vec<(Vec<(VertexId, VertexId)>, CpuWork)> = pools
            .par_iter()
            .enumerate()
            .map(|(i, pool)| self.run_one(graph, pool, Philox::for_task(seed, i as u64)))
            .collect();
        let mut work = CpuWork::default();
        let mut instances = Vec::with_capacity(results.len());
        for (edges, w) in results {
            work.merge(&w);
            instances.push(edges);
        }
        BaselineOutput { instances, work, preprocess: CpuWork::default() }
    }

    fn run_one(
        &self,
        g: &Csr,
        seeds: &[VertexId],
        mut rng: Philox,
    ) -> (Vec<(VertexId, VertexId)>, CpuWork) {
        let mut work = CpuWork::default();
        let mut pool: Vec<VertexId> = seeds.to_vec();
        let mut degrees: Vec<f64> = pool.iter().map(|&v| g.degree(v) as f64).collect();
        let mut fen = Fenwick::new(&degrees);
        let f = pool.len().max(1) as u64;
        work.ops += f; // structure build
        work.bytes += f * 8;

        let logf = (pool.len().max(2) as f64).log2().ceil() as u64;
        let mut out = Vec::with_capacity(self.budget);
        for _ in 0..self.budget {
            // Degree-proportional pool selection.
            let j = match self.scan {
                PoolScan::Fenwick => {
                    work.ops += 2 * logf;
                    work.random_accesses += logf;
                    fen.select(rng.uniform() * fen.total())
                }
                PoolScan::Linear => {
                    // Rescan the degree array: one streaming pass.
                    work.ops += f;
                    work.bytes += f * 8;
                    let total: f64 = degrees.iter().sum();
                    if total > 0.0 {
                        let mut target = rng.uniform() * total;
                        let mut pick = None;
                        for (i, &d) in degrees.iter().enumerate() {
                            if d > target {
                                pick = Some(i);
                                break;
                            }
                            target -= d;
                        }
                        pick.or_else(|| degrees.iter().rposition(|&d| d > 0.0))
                    } else {
                        None
                    }
                }
            };
            let Some(j) = j else {
                break; // every pool vertex is a dead end
            };
            let v = pool[j];
            let deg = g.degree(v);
            debug_assert!(deg > 0, "zero-degree vertices carry zero weight");
            let u = g.neighbors(v)[rng.below(deg as u64) as usize];
            work.random_accesses += 2; // row pointer + neighbor fetch
            work.bytes += 8;
            out.push((v, u));
            // Replace v with u in the pool (Fig. 4's UPDATE).
            pool[j] = u;
            degrees[j] = g.degree(u) as f64;
            if self.scan == PoolScan::Fenwick {
                fen.set(j, degrees[j]);
                work.ops += 2 * logf;
                work.random_accesses += logf;
            }
        }
        (out, work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_graph::generators::{rmat, toy_graph, RmatParams};

    #[test]
    fn budget_is_honored() {
        let g = toy_graph();
        let s = GraphSaintMdrw::published(40);
        let out = s.run(&g, &[vec![8, 0, 3], vec![1, 12]], 4);
        assert_eq!(out.instances.len(), 2);
        for inst in &out.instances {
            assert_eq!(inst.len(), 40);
            for &(v, u) in inst {
                assert!(g.has_edge(v, u));
            }
        }
    }

    #[test]
    fn pool_replacement_chains_frontier() {
        // Single-vertex pool: consecutive edges must chain like a walk.
        let g = toy_graph();
        let s = GraphSaintMdrw::published(10);
        let out = s.run(&g, &[vec![8]], 1);
        for w in out.instances[0].windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
    }

    #[test]
    fn degree_weighted_pool_selection() {
        let g = toy_graph();
        let s = GraphSaintMdrw::published(1);
        let pools: Vec<Vec<u32>> = vec![vec![7, 1]; 60_000];
        let out = s.run(&g, &pools, 2);
        // deg(7)=6, deg(1)=2 → 7 sources 75% of first edges.
        let from7 = out.instances.iter().filter(|i| i[0].0 == 7).count() as f64;
        let f = from7 / 60_000.0;
        assert!((f - 0.75).abs() < 0.02, "{f}");
    }

    #[test]
    fn all_dead_pool_terminates() {
        let g = csaw_graph::CsrBuilder::new().with_num_vertices(3).add_edge(0, 1).build();
        // Vertices 1 and 2 have no out-edges.
        let s = GraphSaintMdrw::published(5);
        let out = s.run(&g, &[vec![1, 2]], 3);
        assert!(out.instances[0].is_empty());
    }

    #[test]
    fn work_scales_with_budget() {
        let g = rmat(9, 6, RmatParams::GRAPH500, 3);
        let s1 = GraphSaintMdrw::published(50).run(&g, &[(0..64).collect()], 4);
        let s2 = GraphSaintMdrw::published(100).run(&g, &[(0..64).collect()], 4);
        assert!(s2.work.ops > s1.work.ops);
        assert!(s2.work.random_accesses > s1.work.random_accesses);
    }

    #[test]
    fn deterministic() {
        let g = toy_graph();
        let s = GraphSaintMdrw::published(20);
        let a = s.run(&g, &[vec![8, 0]], 9);
        let b = s.run(&g, &[vec![8, 0]], 9);
        assert_eq!(a.instances, b.instances);
    }
}
