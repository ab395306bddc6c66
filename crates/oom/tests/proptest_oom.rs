//! Property tests for the out-of-memory scheduler: over arbitrary
//! graphs, seeds, and configurations, the §V-B correctness properties
//! must hold.

use csaw_core::algorithms::UnbiasedNeighborSampling;
use csaw_gpu::config::DeviceConfig;
use csaw_graph::CsrBuilder;
use csaw_oom::{OomConfig, OomRunner};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = csaw_graph::Csr> {
    prop::collection::vec((0u32..80, 0u32..80), 1..300).prop_map(|edges| {
        CsrBuilder::new().with_num_vertices(80).symmetrize(true).extend_edges(edges).build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sampled edges are always real edges, and no instance exceeds its
    /// depth budget (≤ NS^1 + NS^2 + ... + NS^depth edges).
    #[test]
    fn samples_are_valid_and_depth_bounded(
        g in arb_graph(),
        seeds in prop::collection::vec(0u32..80, 1..24),
        parts in 1usize..6,
        depth in 1usize..4,
    ) {
        let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth };
        let cfg = OomConfig {
            num_partitions: parts,
            num_kernels: 2.min(parts),
            resident_partitions: 2.min(parts),
            ..OomConfig::full()
        };
        let out = OomRunner::new(&g, &algo, cfg)
            .with_device(DeviceConfig::tiny(1 << 16))
            .run(&seeds);
        prop_assert_eq!(out.sample.instances.len(), seeds.len());
        let bound: usize = (1..=depth).map(|d| 2usize.pow(d as u32)).sum();
        for inst in &out.sample.instances {
            prop_assert!(inst.len() <= bound, "depth bound violated: {} > {bound}", inst.len());
            for &(v, u) in inst {
                prop_assert!(g.has_edge(v, u));
            }
        }
    }

    /// Scheduling policy never changes the sample (§V-B correctness),
    /// for arbitrary inputs — the generalization of the unit test.
    #[test]
    fn policies_agree_on_arbitrary_inputs(
        g in arb_graph(),
        seeds in prop::collection::vec(0u32..80, 1..16),
    ) {
        let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 };
        let mut reference = None;
        for (_, cfg) in OomConfig::figure13_ladder() {
            let out = OomRunner::new(&g, &algo, cfg)
                .with_device(DeviceConfig::tiny(1 << 16))
                .run(&seeds);
            let c = out.sample.sorted_instances();
            match &reference {
                None => reference = Some(c),
                Some(r) => prop_assert_eq!(r, &c),
            }
        }
    }

    /// Memory safety invariant: the runner never admits more resident
    /// bytes than its budget (observed through transfers: every byte
    /// shipped corresponds to a partition that fit at admission time —
    /// exercised here simply by not panicking under tiny budgets and by
    /// the run completing with full output).
    #[test]
    fn tiny_memory_budgets_still_complete(
        g in arb_graph(),
        seeds in prop::collection::vec(0u32..80, 1..12),
    ) {
        let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 2 };
        let out = OomRunner::new(&g, &algo, OomConfig::full())
            .with_device(DeviceConfig::tiny(1))
            .run(&seeds);
        prop_assert_eq!(out.sample.instances.len(), seeds.len());
        prop_assert!(out.sim_seconds >= 0.0);
    }
}
