//! Property tests for graph construction and partitioning invariants.

use csaw_graph::{Csr, CsrBuilder, PartitionSet};
use proptest::prelude::*;

fn arb_edges() -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0u32..200, 0u32..200), 0..400)
}

proptest! {
    /// The unweighted build (degree count, scatter, per-row sort) gives
    /// the weighted build's rows (one stable global sort) on the same
    /// edges: with self loops and duplicates, under every policy, and
    /// with a vertex count inferred, given above the inferred one, or
    /// given below it.
    #[test]
    fn unweighted_build_matches_weighted_build(
        edges in prop::collection::vec((0u32..24, 0u32..24), 0..160),
        symmetrize: bool,
        dedup: bool,
        drop_self_loops: bool,
        n in prop::option::of(0usize..30),
    ) {
        let build = |weighted| {
            let b = CsrBuilder::new();
            let b = if let Some(n) = n { b.with_num_vertices(n) } else { b };
            b.symmetrize(symmetrize)
                .dedup(dedup)
                .drop_self_loops(drop_self_loops)
                .weighted(weighted)
                .extend_edges(edges.iter().copied())
                .build()
        };
        let (lean, sorted) = (build(false), build(true));
        prop_assert_eq!(lean.row_ptr(), sorted.row_ptr());
        prop_assert_eq!(lean.col(), sorted.col());
        prop_assert!(lean.weights().is_none());
    }

    /// Any edge list builds a structurally valid CSR.
    #[test]
    fn builder_always_produces_valid_csr(edges in arb_edges(), symmetrize: bool, dedup: bool) {
        let g = CsrBuilder::new()
            .symmetrize(symmetrize)
            .dedup(dedup)
            .extend_edges(edges)
            .build();
        prop_assert!(g.validate().is_ok());
    }

    /// Adjacency lists come out sorted (a `has_edge` precondition).
    #[test]
    fn adjacency_lists_are_sorted(edges in arb_edges()) {
        let g = CsrBuilder::new().extend_edges(edges).build();
        for v in 0..g.num_vertices() as u32 {
            let n = g.neighbors(v);
            prop_assert!(n.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    /// Symmetrized graphs contain every reverse edge.
    #[test]
    fn symmetrize_means_symmetric(edges in arb_edges()) {
        let g = CsrBuilder::new().symmetrize(true).extend_edges(edges).build();
        for v in 0..g.num_vertices() as u32 {
            for &u in g.neighbors(v) {
                prop_assert!(g.has_edge(u, v), "missing {u}->{v}");
            }
        }
    }

    /// `has_edge` agrees with a linear membership scan.
    #[test]
    fn has_edge_matches_linear_scan(edges in arb_edges(), probe in (0u32..200, 0u32..200)) {
        let g = CsrBuilder::new().with_num_vertices(200).extend_edges(edges).build();
        let (v, u) = probe;
        prop_assert_eq!(g.has_edge(v, u), g.neighbors(v).contains(&u));
    }

    /// Equal-range partitioning covers every vertex exactly once and
    /// preserves each vertex's full neighbor list, for any k.
    #[test]
    fn partitions_cover_and_preserve(edges in arb_edges(), k in 1usize..12) {
        let g = CsrBuilder::new().with_num_vertices(200).extend_edges(edges).build();
        let ps = PartitionSet::equal_ranges(&g, k);
        let mut owned = vec![0u8; g.num_vertices()];
        for p in ps.parts() {
            for v in p.start..p.end {
                owned[v as usize] += 1;
                prop_assert_eq!(p.neighbors(v), g.neighbors(v));
            }
        }
        prop_assert!(owned.iter().all(|&c| c == 1));
        // O(1) lookup agrees with ownership.
        for v in 0..g.num_vertices() as u32 {
            prop_assert!(ps.get(ps.partition_of(v)).owns(v));
        }
    }

    /// Binary CSR serialization round-trips arbitrary graphs.
    #[test]
    fn binary_io_round_trips(edges in arb_edges(), weighted: bool) {
        let g = CsrBuilder::new().weighted(weighted).extend_edges(edges).build();
        let mut buf = Vec::new();
        csaw_graph::io::write_binary_csr(&g, &mut buf).unwrap();
        let g2 = csaw_graph::io::read_binary_csr(std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(g, g2);
    }

    /// Degree sums equal the CSR entry count.
    #[test]
    fn degrees_sum_to_edges(edges in arb_edges()) {
        let g: Csr = CsrBuilder::new().extend_edges(edges).build();
        let sum: usize = (0..g.num_vertices() as u32).map(|v| g.degree(v)).sum();
        prop_assert_eq!(sum, g.num_edges());
    }
}

proptest! {
    /// Relabeling by any permutation preserves the degree multiset and
    /// edge count.
    #[test]
    fn relabel_preserves_degree_multiset(edges in arb_edges(), seed: u64) {
        use csaw_graph::reorder::relabel;
        let g = CsrBuilder::new().with_num_vertices(200).extend_edges(edges).build();
        // Deterministic pseudo-random permutation from the seed.
        let n = g.num_vertices();
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let mut state = seed | 1;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let h = relabel(&g, &perm);
        prop_assert_eq!(h.num_edges(), g.num_edges());
        let degs = |g: &Csr| {
            let mut d: Vec<usize> = (0..g.num_vertices() as u32).map(|v| g.degree(v)).collect();
            d.sort_unstable();
            d
        };
        prop_assert_eq!(degs(&g), degs(&h));
        prop_assert!(h.validate().is_ok());
    }

    /// BFS distances satisfy the triangle property along edges:
    /// |d(u) - d(v)| <= 1 for every edge (u, v) in a symmetrized graph.
    #[test]
    fn bfs_distances_are_lipschitz_on_edges(edges in arb_edges()) {
        use csaw_graph::traversal::bfs_distances;
        let g = CsrBuilder::new()
            .with_num_vertices(200)
            .symmetrize(true)
            .extend_edges(edges)
            .build();
        let d = bfs_distances(&g, 0);
        for v in 0..g.num_vertices() as u32 {
            for &u in g.neighbors(v) {
                let (dv, du) = (d[v as usize], d[u as usize]);
                if dv != u32::MAX {
                    prop_assert!(du != u32::MAX && du.abs_diff(dv) <= 1, "edge ({v},{u})");
                }
            }
        }
    }

    /// Component labels are consistent: same component iff connected by
    /// an edge path (checked locally: every edge joins equal labels), and
    /// sizes sum to n.
    #[test]
    fn components_partition_the_graph(edges in arb_edges()) {
        use csaw_graph::traversal::connected_components;
        let g = CsrBuilder::new()
            .with_num_vertices(150)
            .symmetrize(true)
            .extend_edges(edges)
            .build();
        let (labels, count) = connected_components(&g);
        prop_assert!(labels.iter().all(|&l| (l as usize) < count));
        for v in 0..g.num_vertices() as u32 {
            for &u in g.neighbors(v) {
                prop_assert_eq!(labels[v as usize], labels[u as usize]);
            }
        }
    }

    /// The degree-KS distance is a metric-ish: zero on identical inputs,
    /// bounded by 1, symmetric.
    #[test]
    fn degree_ks_properties(e1 in arb_edges(), e2 in arb_edges()) {
        use csaw_graph::quality::degree_ks;
        let a = CsrBuilder::new().with_num_vertices(100).extend_edges(e1).build();
        let b = CsrBuilder::new().with_num_vertices(100).extend_edges(e2).build();
        prop_assert!(degree_ks(&a, &a) < 1e-12);
        let d = degree_ks(&a, &b);
        prop_assert!((0.0..=1.0).contains(&d));
        prop_assert!((d - degree_ks(&b, &a)).abs() < 1e-12);
    }
}
