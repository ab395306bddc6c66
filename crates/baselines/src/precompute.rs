//! Static-bias probability pre-computation (ablation A7).
//!
//! §VII: "KnightKing pre-computes the alias table for static transition
//! probability... However, not all sampling and random walk algorithms
//! could have deterministic probabilities that support pre-computation",
//! and "large graphs cannot afford to index the probabilities of all
//! vertices". This module makes that trade-off measurable inside C-SAW:
//! a per-vertex CTPS cache for *static* edge biases, with its build cost
//! and memory footprint accounted, so the harness can show when caching
//! beats recomputing the CTPS every step (long walks, static bias) and
//! what it costs (one f64 per edge of device memory).
//!
//! The eager all-vertices build here and the lazy budgeted
//! [`csaw_core::ctps_cache::CtpsCache`] share the same per-vertex builder
//! ([`csaw_core::ctps_cache::build_vertex_ctps`]), so the two strategies
//! are the endpoints of one budget axis: this cache is the 100%-budget,
//! paid-up-front point of the lazy cache's sweep. It lives with the
//! baselines because only the A7 ablation calls it: with the lazy cache
//! at a near-total hit share, the serving path has no gap for it to close.

use csaw_core::api::Algorithm;
use csaw_core::ctps::Ctps;
use csaw_core::ctps_cache::build_vertex_ctps;
use csaw_gpu::stats::{Ledger, SimStats};
use csaw_gpu::Philox;
use csaw_graph::{Csr, VertexId};

/// Eagerly-built per-vertex CTPS tables for a static edge bias.
pub struct EagerCtpsCache {
    tables: Vec<Option<Ctps>>,
    /// Work spent building the tables (priced separately, like
    /// KnightKing's alias preprocessing).
    pub build_stats: SimStats,
}

impl EagerCtpsCache {
    /// Builds one CTPS per vertex using `algo`'s `EDGEBIAS` with no walk
    /// context (`prev = None`) — only valid for static biases, which by
    /// definition ignore runtime state. Each table is stored normalized,
    /// as the lazy cache stores its entries.
    pub fn build<A: Algorithm>(g: &Csr, algo: &A) -> Self {
        let mut build_stats = SimStats::new();
        let mut biases: Vec<f64> = Vec::new();
        let mut scratch = Ctps::empty();
        let tables: Vec<Option<Ctps>> = (0..g.num_vertices() as VertexId)
            .map(|v| {
                build_vertex_ctps(g.view(), algo, v, &mut biases, &mut scratch, &mut build_stats)
                    .then(|| {
                        scratch.normalize();
                        scratch.clone()
                    })
            })
            .collect();
        EagerCtpsCache { tables, build_stats }
    }

    /// Device bytes the cache occupies: one f64 bound per edge.
    pub fn size_bytes(&self) -> usize {
        self.tables.iter().flatten().map(|t| t.len() * 8).sum()
    }

    /// Samples one neighbor *index* of `v` from the cached CTPS; `None`
    /// for zero-degree / zero-bias vertices. Costs one cached-table read
    /// (the gather the cache trades for the per-step scan).
    pub fn sample_neighbor(
        &self,
        v: VertexId,
        rng: &mut Philox,
        stats: &mut SimStats,
    ) -> Option<usize> {
        let t = self.tables[v as usize].as_ref()?;
        stats.read_gmem(8 * t.len().min(8)); // binary search touches few bounds
        Some(t.sample_one(rng, stats))
    }

    /// Runs `length`-step walks under the cached tables, the fast path
    /// for static-bias random walks. Returns (per-instance paths, stats).
    pub fn run_walks(
        &self,
        g: &Csr,
        seeds: &[VertexId],
        length: usize,
        seed: u64,
    ) -> (Vec<Vec<(VertexId, VertexId)>>, SimStats) {
        let mut stats = SimStats::new();
        let mut out = Vec::with_capacity(seeds.len());
        for (i, &s) in seeds.iter().enumerate() {
            let mut rng = Philox::for_task(seed, i as u64);
            let mut path = Vec::with_capacity(length);
            let mut v = s;
            for _ in 0..length {
                let Some(idx) = self.sample_neighbor(v, &mut rng, &mut stats) else {
                    break;
                };
                let u = g.neighbors(v)[idx];
                path.push((v, u));
                v = u;
            }
            stats.sampled_edges += path.len() as u64;
            out.push(path);
        }
        (out, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_core::algorithms::BiasedRandomWalk;
    use csaw_core::engine::Sampler;
    use csaw_gpu::Device;
    use csaw_graph::generators::{rmat, toy_graph, RmatParams};
    use std::collections::HashMap;

    #[test]
    fn cached_tables_match_direct_ctps() {
        let g = toy_graph();
        let algo = BiasedRandomWalk { length: 1 };
        let cache = EagerCtpsCache::build(&g, &algo);
        // v8's cached CTPS must equal the Fig. 1b values.
        let t = cache.tables[8].as_ref().unwrap();
        assert!((t.bound(0) - 0.2).abs() < 1e-12);
        assert!((t.bound(1) - 0.6).abs() < 1e-12);
        assert!(cache.tables.iter().flatten().count() == 13, "every vertex has neighbors");
    }

    #[test]
    fn cache_size_is_one_f64_per_edge() {
        let g = toy_graph();
        let cache = EagerCtpsCache::build(&g, &BiasedRandomWalk { length: 1 });
        assert_eq!(cache.size_bytes(), g.num_edges() * 8);
    }

    #[test]
    fn cached_walk_distribution_matches_engine() {
        let g = toy_graph();
        let algo = BiasedRandomWalk { length: 1 };
        let cache = EagerCtpsCache::build(&g, &algo);
        let seeds = vec![8u32; 60_000];
        let (paths, _) = cache.run_walks(&g, &seeds, 1, 3);
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for p in &paths {
            *counts.entry(p[0].1).or_default() += 1;
        }
        let f7 = counts[&7] as f64 / seeds.len() as f64;
        assert!((f7 - 0.4).abs() < 0.02, "degree bias via cache: {f7}");

        // Engine path agrees.
        let out = Sampler::new(&g, &algo).run_single_seeds(&seeds);
        let mut counts2: HashMap<u32, usize> = HashMap::new();
        for inst in &out.instances {
            *counts2.entry(inst[0].1).or_default() += 1;
        }
        let f7e = counts2[&7] as f64 / seeds.len() as f64;
        assert!((f7 - f7e).abs() < 0.02);
    }

    #[test]
    fn per_step_work_is_cheaper_than_recomputing() {
        let g = rmat(10, 8, RmatParams::GRAPH500, 1);
        let algo = BiasedRandomWalk { length: 64 };
        let seeds: Vec<u32> = (0..64).collect();
        let cache = EagerCtpsCache::build(&g, &algo);
        let (_, cached) = cache.run_walks(&g, &seeds, 64, 5);
        let engine = Sampler::new(&g, &algo).with_device(Device::v100()).run_single_seeds(&seeds);
        let per = |s: &SimStats| s.warp_cycles as f64 / s.sampled_edges.max(1) as f64;
        assert!(
            per(&cached) < per(&engine.stats),
            "cached {} vs on-the-fly {} cycles/edge",
            per(&cached),
            per(&engine.stats)
        );
        // ...but the build cost is where the paper says it is: a full
        // pass over every edge.
        assert!(cache.build_stats.scan_steps > 0);
    }

    #[test]
    fn dead_ends_truncate() {
        // Directed chain 0 -> 1 -> 2: from 1 the degree bias of neighbor
        // 2 is zero (2 has no out-edges), so the cached walk stops after
        // one hop — the same place the engine's select_one would stop.
        let g = csaw_graph::CsrBuilder::new().add_edge(0, 1).add_edge(1, 2).build();
        let cache = EagerCtpsCache::build(&g, &BiasedRandomWalk { length: 10 });
        let (paths, _) = cache.run_walks(&g, &[0], 10, 1);
        assert_eq!(paths[0], vec![(0, 1)]);
    }
}
