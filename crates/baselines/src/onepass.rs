//! One-pass sampling (paper §II-A): "only goes through the original graph
//! once to extract a sample. Random node and random edge sampling belong
//! to this category."
//!
//! Unlike the traversal algorithms, these need no frontier or bias
//! machinery — each warp scans a vertex range, draws per-element coins
//! from its counter-based stream, and emits kept elements. Three samplers
//! are provided:
//!
//! - [`random_node`]: keep each vertex independently, induce the edges
//!   among kept vertices;
//! - [`random_edge`]: keep each undirected edge independently;
//! - [`ties`]: Totally Induced Edge Sampling (Ahmed et al.) — sample
//!   edges, then induce *all* edges among the touched vertices, a
//!   one-pass method known to preserve degree structure far better than
//!   plain random edge sampling.

use csaw_gpu::stats::{Ledger, SimStats};
use csaw_gpu::{launch, Philox};
use csaw_graph::{Csr, CsrBuilder, VertexId};

/// Output of a one-pass sampler.
#[derive(Debug, Clone)]
pub struct OnePassOutput {
    /// The sampled subgraph over *original* vertex ids (isolated sampled
    /// vertices are kept as zero-degree vertices up to the original max
    /// id present).
    pub edges: Vec<(VertexId, VertexId)>,
    /// The sampled vertex set (node sampling) or the touched endpoints
    /// (edge samplers), sorted.
    pub vertices: Vec<VertexId>,
    /// Counted device work.
    pub stats: SimStats,
}

impl OnePassOutput {
    /// Builds a dense-relabelled CSR of the sample, returning the
    /// `new -> old` id map.
    pub fn induce_subgraph(&self) -> (Csr, Vec<VertexId>) {
        let mut back = self.vertices.clone();
        back.sort_unstable();
        back.dedup();
        let fwd: std::collections::HashMap<VertexId, VertexId> =
            back.iter().enumerate().map(|(i, &v)| (v, i as VertexId)).collect();
        let mut b = CsrBuilder::new().with_num_vertices(back.len());
        for &(v, u) in &self.edges {
            b = b.add_edge(fwd[&v], fwd[&u]);
        }
        (b.build(), back)
    }
}

/// Deterministic per-edge coin shared by both directions of an undirected
/// edge: keyed by the canonical (min, max) pair.
fn edge_kept(seed: u64, v: VertexId, u: VertexId, fraction: f64) -> bool {
    let (a, b) = if v < u { (v, u) } else { (u, v) };
    let mut rng = Philox::for_task(seed ^ 0xED6E, ((a as u64) << 32) | b as u64);
    rng.chance(fraction)
}

/// Random node sampling: each vertex survives with probability
/// `fraction`; the sample is the subgraph induced on survivors.
pub fn random_node(g: &Csr, fraction: f64, seed: u64) -> OnePassOutput {
    assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
    let n = g.num_vertices() as VertexId;
    // Phase 1: per-vertex coins (warp-strided scan of the vertex array).
    // Keep the launch's stats alongside its outputs — the coin flips are
    // real device work, not free.
    let (kept, coin_stats) = launch((0..n).collect(), |v| {
        let mut rng = Philox::for_task(seed, v as u64);
        let mut s = SimStats::new();
        s.rng_draws += 1;
        s.warp_cycles += 4;
        (rng.chance(fraction), s)
    });
    // Phase 2: one pass over the kept vertices' adjacency, inducing edges.
    let (outputs, edge_stats) = launch((0..n).collect(), |v| {
        let mut s = SimStats::new();
        if !kept[v as usize] {
            return (Vec::new(), s);
        }
        let nbrs = g.neighbors(v);
        s.read_gmem(16 + 4 * nbrs.len());
        let out: Vec<(VertexId, VertexId)> =
            nbrs.iter().filter(|&&u| kept[u as usize]).map(|&u| (v, u)).collect();
        s.sampled_edges += out.len() as u64;
        (out, s)
    });
    let stats = edge_stats.into_iter().chain(coin_stats).sum();
    let edges: Vec<(VertexId, VertexId)> = outputs.into_iter().flatten().collect();
    let vertices: Vec<VertexId> = (0..n).filter(|&v| kept[v as usize]).collect();
    OnePassOutput { edges, vertices, stats }
}

/// Random edge sampling: each undirected edge survives with probability
/// `fraction` (both directions kept together).
pub fn random_edge(g: &Csr, fraction: f64, seed: u64) -> OnePassOutput {
    assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
    let n = g.num_vertices() as VertexId;
    let (outputs, task_stats) = launch((0..n).collect(), |v| {
        let mut s = SimStats::new();
        let nbrs = g.neighbors(v);
        s.read_gmem(16 + 4 * nbrs.len());
        s.rng_draws += nbrs.len() as u64;
        s.warp_cycles += nbrs.len() as u64; // one coin per entry
        let out: Vec<(VertexId, VertexId)> =
            nbrs.iter().filter(|&&u| edge_kept(seed, v, u, fraction)).map(|&u| (v, u)).collect();
        s.sampled_edges += out.len() as u64;
        (out, s)
    });
    let stats = task_stats.into_iter().sum();
    let edges: Vec<(VertexId, VertexId)> = outputs.into_iter().flatten().collect();
    let mut vertices: Vec<VertexId> = edges.iter().flat_map(|&(v, u)| [v, u]).collect();
    vertices.sort_unstable();
    vertices.dedup();
    OnePassOutput { edges, vertices, stats }
}

/// Totally Induced Edge Sampling: sample edges as in [`random_edge`],
/// then add *every* original edge whose endpoints were both touched.
pub fn ties(g: &Csr, fraction: f64, seed: u64) -> OnePassOutput {
    let seeded = random_edge(g, fraction, seed);
    let in_set: std::collections::HashSet<VertexId> = seeded.vertices.iter().copied().collect();
    // Induction pass over the touched vertices only.
    let (outputs, task_stats) = launch(seeded.vertices.clone(), |v| {
        let mut s = SimStats::new();
        let nbrs = g.neighbors(v);
        s.read_gmem(16 + 4 * nbrs.len());
        let out: Vec<(VertexId, VertexId)> =
            nbrs.iter().filter(|u| in_set.contains(u)).map(|&u| (v, u)).collect();
        s.sampled_edges += out.len() as u64;
        (out, s)
    });
    let stats = seeded.stats + task_stats.into_iter().sum::<SimStats>();
    let edges: Vec<(VertexId, VertexId)> = outputs.into_iter().flatten().collect();
    OnePassOutput { edges, vertices: seeded.vertices, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_graph::generators::{rmat, toy_graph, RmatParams};

    #[test]
    fn random_node_keeps_roughly_fraction() {
        let g = rmat(12, 4, RmatParams::GRAPH500, 1);
        let out = random_node(&g, 0.3, 7);
        let frac = out.vertices.len() as f64 / g.num_vertices() as f64;
        assert!((frac - 0.3).abs() < 0.02, "kept {frac}");
        // Every sampled edge connects two kept vertices and exists.
        let kept: std::collections::HashSet<_> = out.vertices.iter().copied().collect();
        for &(v, u) in &out.edges {
            assert!(kept.contains(&v) && kept.contains(&u));
            assert!(g.has_edge(v, u));
        }
    }

    #[test]
    fn random_node_extremes() {
        let g = toy_graph();
        let all = random_node(&g, 1.0, 1);
        assert_eq!(all.vertices.len(), 13);
        assert_eq!(all.edges.len(), g.num_edges());
        let none = random_node(&g, 0.0, 1);
        assert!(none.vertices.is_empty());
        assert!(none.edges.is_empty());
    }

    #[test]
    fn random_edge_keeps_roughly_fraction_and_symmetry() {
        let g = rmat(12, 4, RmatParams::GRAPH500, 2);
        let out = random_edge(&g, 0.25, 9);
        let frac = out.edges.len() as f64 / g.num_edges() as f64;
        assert!((frac - 0.25).abs() < 0.02, "kept {frac}");
        // Undirected consistency: (v,u) kept iff (u,v) kept.
        let set: std::collections::HashSet<_> = out.edges.iter().copied().collect();
        for &(v, u) in &out.edges {
            assert!(set.contains(&(u, v)), "asymmetric keep ({v},{u})");
        }
    }

    #[test]
    fn ties_superset_of_seed_edges_and_induced_closed() {
        let g = rmat(10, 4, RmatParams::GRAPH500, 3);
        let seeded = random_edge(&g, 0.15, 11);
        let induced = ties(&g, 0.15, 11);
        let tset: std::collections::HashSet<_> = induced.edges.iter().copied().collect();
        for e in &seeded.edges {
            assert!(tset.contains(e), "TIES must contain its seed edges");
        }
        // Closure: every original edge among touched vertices is present.
        let vs: std::collections::HashSet<_> = induced.vertices.iter().copied().collect();
        for &v in &induced.vertices {
            for &u in g.neighbors(v) {
                if vs.contains(&u) {
                    assert!(tset.contains(&(v, u)), "missing induced edge ({v},{u})");
                }
            }
        }
        assert!(induced.edges.len() >= seeded.edges.len());
    }

    #[test]
    fn induce_subgraph_round_trips() {
        let g = toy_graph();
        let out = random_node(&g, 0.7, 4);
        let (sub, back) = out.induce_subgraph();
        assert_eq!(sub.num_vertices(), back.len());
        for v in 0..sub.num_vertices() as u32 {
            for &u in sub.neighbors(v) {
                assert!(g.has_edge(back[v as usize], back[u as usize]));
            }
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let g = toy_graph();
        let a = random_edge(&g, 0.5, 13);
        let b = random_edge(&g, 0.5, 13);
        assert_eq!(a.edges, b.edges);
        let c = random_edge(&g, 0.5, 14);
        assert_ne!(a.edges, c.edges);
    }

    #[test]
    fn stats_track_one_pass_work() {
        let g = rmat(10, 4, RmatParams::MILD, 5);
        let out = random_edge(&g, 0.5, 1);
        // One pass: bytes read ≈ one CSR scan.
        assert!(out.stats.gmem_bytes as usize >= 4 * g.num_edges());
        assert!(out.stats.rng_draws as usize >= g.num_edges());
        assert_eq!(out.stats.sampled_edges as usize, out.edges.len());

        // random_node conservation: exactly one coin per vertex, and the
        // phase-1 coin-flip cycles must survive into the merged totals.
        // With fraction 0 the induction phase does no work at all, so the
        // totals are exactly the phase-1 launch — this regressed when only
        // `outputs` was taken from that launch (warp_cycles read 0 here).
        let n = g.num_vertices() as u64;
        let none = random_node(&g, 0.0, 3);
        assert_eq!(none.stats.rng_draws, n, "one coin per vertex, counted once");
        assert_eq!(none.stats.warp_cycles, 4 * n, "phase-1 cycles merged, not dropped");
        assert_eq!(none.stats.sampled_edges, 0);
        // And with a real fraction the coins are still counted exactly
        // once (the old code re-added `n` draws by hand; a merge on top of
        // that would have doubled them).
        let half = random_node(&g, 0.5, 3);
        assert_eq!(half.stats.rng_draws, n);
        assert!(half.stats.warp_cycles >= 4 * n);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn rejects_bad_fraction() {
        random_node(&toy_graph(), 1.5, 0);
    }
}
