//! Per-depth frontier profiling.
//!
//! §VI-C explains several out-of-memory trends with "active vertices
//! increase exponentially with depth during sampling". This profiler runs
//! a per-vertex-frontier algorithm breadth-first, one depth per step
//! across all instances — the unified-memory comparator's loop
//! ([`crate::unified`]) without its page cache — and reports the frontier
//! size and sampled-edge count at every depth: the quantitative form of
//! that claim.

use crate::unified::run_interleaved;
use csaw_core::api::Algorithm;
use csaw_core::engine::RunOptions;
use csaw_gpu::stats::SimStats;
use csaw_graph::{Csr, VertexId};

/// One depth level's aggregate activity across all instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepthProfile {
    /// Depth (0 = expansion of the seeds).
    pub depth: usize,
    /// Frontier vertices expanded at this depth (all instances).
    pub frontier: u64,
    /// Edges sampled at this depth.
    pub edges: u64,
}

/// Profiles `algo` (per-vertex frontier modes only) over single-seed
/// instances, returning the per-depth activity up to and including the
/// first depth whose frontier is empty.
pub fn profile_depths<A: Algorithm>(
    g: &Csr,
    algo: &A,
    seeds: &[VertexId],
    seed: u64,
) -> Vec<DepthProfile> {
    let opts = RunOptions { seed, ..Default::default() };
    let mut out = Vec::new();
    run_interleaved(g, algo, &opts, seeds, (), &mut SimStats::new(), |depth, frontier, edges| {
        out.push(DepthProfile { depth, frontier, edges })
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_core::algorithms::{SimpleRandomWalk, UnbiasedNeighborSampling};
    use csaw_graph::generators::{ring_lattice, rmat, toy_graph, RmatParams};

    #[test]
    fn profiler_counts_exactly_the_engine_edges() {
        // The profiler drives the same StepKernel with the same keys as
        // the engine, so its per-depth edge counts sum to exactly the
        // engine's sampled edges — not an approximation.
        let g = rmat(9, 4, RmatParams::GRAPH500, 5);
        let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 };
        let seeds: Vec<u32> = (0..16).collect();
        let prof = profile_depths(&g, &algo, &seeds, 0x5eed);
        let eng = csaw_core::engine::Sampler::new(&g, &algo).run_single_seeds(&seeds);
        assert_eq!(prof.iter().map(|p| p.edges).sum::<u64>(), eng.sampled_edges());
    }

    #[test]
    fn neighbor_sampling_frontier_grows_geometrically() {
        let g = rmat(11, 8, RmatParams::GRAPH500, 1);
        let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 5 };
        let seeds: Vec<u32> = (0..64).map(|i| i * 31 % 2048).collect();
        let prof = profile_depths(&g, &algo, &seeds, 1);
        assert_eq!(prof[0].frontier, 64);
        // Early depths roughly double (before without-replacement bites).
        assert!(prof[1].frontier as f64 > 1.5 * prof[0].frontier as f64);
        assert!(prof[2].frontier as f64 > 1.5 * prof[1].frontier as f64);
        // Total edges across depths = frontier inflow.
        let total_edges: u64 = prof.iter().map(|p| p.edges).sum();
        assert!(total_edges > 0);
    }

    #[test]
    fn walk_frontier_stays_one() {
        let g = ring_lattice(50, 2);
        let algo = SimpleRandomWalk { length: 10 };
        let prof = profile_depths(&g, &algo, &[0, 10], 2);
        assert_eq!(prof.len(), 10);
        for p in &prof {
            assert_eq!(p.frontier, 2, "one walker per instance at depth {}", p.depth);
            assert_eq!(p.edges, 2);
        }
    }

    #[test]
    fn exhausted_frontier_stops_early() {
        // Star graph: depth 1 takes the spokes, depth 2 re-adds the hub
        // (filtered), frontier dies.
        let mut b = csaw_graph::CsrBuilder::new().symmetrize(true);
        for i in 1..=4u32 {
            b = b.add_edge(0, i);
        }
        let g = b.build();
        let algo = UnbiasedNeighborSampling { neighbor_size: 4, depth: 10 };
        let prof = profile_depths(&g, &algo, &[0], 3);
        assert!(prof.len() <= 3, "profile must stop when the frontier empties: {prof:?}");
    }

    #[test]
    fn the_depth_whose_frontier_died_is_reported() {
        // The star again: the spokes' only offer is the visited hub, so
        // depth 2 expands nothing — and still gets its row.
        let g =
            csaw_graph::CsrBuilder::new().symmetrize(true).extend_edges([(0, 1), (0, 2)]).build();
        let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 10 };
        let prof = profile_depths(&g, &algo, &[0], 3);
        let rows: Vec<_> = prof.iter().map(|p| (p.depth, p.frontier, p.edges)).collect();
        assert_eq!(rows, [(0, 1, 2), (1, 2, 2), (2, 0, 0)]);
    }

    /// Cross-validation against the engine: the profiler's total edge
    /// count must statistically match a full engine run of the same
    /// workload (different RNG keying, same law).
    #[test]
    fn totals_match_engine_statistically() {
        use csaw_core::engine::Sampler;
        let g = rmat(10, 6, RmatParams::GRAPH500, 7);
        let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 4 };
        let seeds: Vec<u32> = (0..256).map(|i| i * 13 % 1024).collect();
        let prof_total: u64 = profile_depths(&g, &algo, &seeds, 9).iter().map(|p| p.edges).sum();
        let engine_total = Sampler::new(&g, &algo).run_single_seeds(&seeds).sampled_edges();
        let ratio = prof_total as f64 / engine_total as f64;
        assert!((ratio - 1.0).abs() < 0.05, "profiler {prof_total} vs engine {engine_total}");
    }

    #[test]
    fn toy_graph_depth_zero_matches_seed_count() {
        let g = toy_graph();
        let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 2 };
        let prof = profile_depths(&g, &algo, &[0, 5, 8], 4);
        assert_eq!(prof[0].frontier, 3);
        assert!(prof[0].edges <= 6);
    }
}
