//! Property tests for one-pass sampling and the reservoir selector.

use csaw_baselines::onepass::{random_edge, random_node, ties};
use csaw_baselines::reservoir::reservoir_select;
use csaw_gpu::stats::SimStats;
use csaw_gpu::Philox;
use csaw_graph::CsrBuilder;
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = csaw_graph::Csr> {
    prop::collection::vec((0u32..60, 0u32..60), 0..200).prop_map(|edges| {
        CsrBuilder::new().with_num_vertices(60).symmetrize(true).extend_edges(edges).build()
    })
}

proptest! {
    /// Node sampling: sampled edges ⊆ original, endpoints all kept.
    #[test]
    fn random_node_is_induced_subgraph(g in arb_graph(), frac in 0.0f64..=1.0, seed: u64) {
        let out = random_node(&g, frac, seed);
        let kept: std::collections::HashSet<u32> = out.vertices.iter().copied().collect();
        for &(v, u) in &out.edges {
            prop_assert!(g.has_edge(v, u));
            prop_assert!(kept.contains(&v) && kept.contains(&u));
        }
        // Completeness: every original edge between kept vertices appears.
        for &v in &out.vertices {
            for &u in g.neighbors(v) {
                if kept.contains(&u) {
                    prop_assert!(out.edges.contains(&(v, u)));
                }
            }
        }
    }

    /// Edge sampling keeps both directions together and is a subset.
    #[test]
    fn random_edge_is_symmetric_subset(g in arb_graph(), frac in 0.0f64..=1.0, seed: u64) {
        let out = random_edge(&g, frac, seed);
        let set: std::collections::HashSet<(u32, u32)> = out.edges.iter().copied().collect();
        for &(v, u) in &out.edges {
            prop_assert!(g.has_edge(v, u));
            prop_assert!(set.contains(&(u, v)));
        }
        if frac == 1.0 {
            prop_assert_eq!(out.edges.len(), g.num_edges());
        }
        if frac == 0.0 {
            prop_assert!(out.edges.is_empty());
        }
    }

    /// TIES is closed under induction and contains its seed edges.
    #[test]
    fn ties_is_closed(g in arb_graph(), frac in 0.0f64..0.5, seed: u64) {
        let out = ties(&g, frac, seed);
        let vs: std::collections::HashSet<u32> = out.vertices.iter().copied().collect();
        let es: std::collections::HashSet<(u32, u32)> = out.edges.iter().copied().collect();
        for &v in &out.vertices {
            for &u in g.neighbors(v) {
                if vs.contains(&u) {
                    prop_assert!(es.contains(&(v, u)), "missing induced edge ({v},{u})");
                }
            }
        }
    }

    /// Reservoir selection: k distinct positive-bias winners, always.
    #[test]
    fn reservoir_postconditions(
        biases in prop::collection::vec(0.0f64..20.0, 1..50),
        k in 1usize..10,
        seed: u64,
    ) {
        let mut rng = Philox::for_task(seed, 0);
        let mut s = SimStats::new();
        let sel = reservoir_select(&biases, k, &mut rng, &mut s);
        let positive = biases.iter().filter(|&&b| b > 0.0).count();
        prop_assert_eq!(sel.len(), k.min(positive));
        let mut sorted = sel.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), sel.len());
        prop_assert!(sel.iter().all(|&i| biases[i] > 0.0));
    }
}
