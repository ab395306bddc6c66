//! Property test for the disk tier's decoded-run pool: for any graph,
//! any lookup sequence and any budget — from "admits nothing" to "holds
//! everything" — every gather serves exactly the CSR's slices, the
//! counters stay conserved, and resident bytes never exceed the budget.

use csaw_core::residency::{DiskAccess, DiskRunConfig};
use csaw_core::step::NeighborAccess;
use csaw_gpu::stats::SimStats;
use csaw_graph::store::write_store;
use csaw_graph::{CsrBuilder, DiskStore};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

const VERTICES: u32 = 64;

fn tmp_dir(name: &str) -> PathBuf {
    let base =
        std::env::var_os("CSAW_DISK_TMPDIR").map(PathBuf::from).unwrap_or_else(std::env::temp_dir);
    let dir = base.join(format!("csaw-residency-prop-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_lookup_sequence_at_any_budget_serves_the_csr(
        edges in prop::collection::vec((0u32..VERTICES, 0u32..VERTICES), 0..400),
        lookups in prop::collection::vec((0u32..VERTICES, 0usize..4), 1..300),
        budget_permille in 0usize..1100,
        partitions in 1usize..6,
        weighted: bool,
        case in 0u32..1_000_000,
    ) {
        let g = CsrBuilder::new().with_num_vertices(VERTICES as usize).extend_edges(edges).build();
        let g = if weighted {
            let w = (0..g.num_edges()).map(|i| 1.0 + (i % 7) as f32).collect();
            g.with_weights(w)
        } else {
            g
        };
        let dir = tmp_dir(&format!("{case}"));
        write_store(&dir, &g, partitions, 0).expect("write");
        let store = Arc::new(DiskStore::open(&dir).expect("open"));
        let budget = store.total_decoded_bytes() * budget_permille / 1000;
        let mut access =
            DiskAccess::new(&DiskRunConfig { store, pool_budget: budget, shared: None });
        let mut stats = SimStats::new();
        for &(v, probes) in &lookups {
            let gat = access.gather(v, &mut stats);
            // Hook-style probes of v's first neighbours through the
            // shared view, while v's own slices are still held.
            for &u in gat.neighbors.iter().take(probes) {
                prop_assert_eq!(gat.graph.neighbors(u), g.neighbors(u));
                prop_assert_eq!(gat.graph.neighbor_weights(u), g.neighbor_weights(u));
            }
            prop_assert_eq!(gat.neighbors, g.neighbors(v));
            prop_assert_eq!(gat.weights, g.neighbor_weights(v));
            let snap = access.snapshot();
            prop_assert!(snap.is_conserved(), "{:?}", snap);
            prop_assert!(snap.bytes <= budget as u64, "{:?}", snap);
        }
        access.flush_stats(&mut stats);
        let snap = access.snapshot();
        prop_assert_eq!(stats.disk_pool_lookups, snap.lookups);
        prop_assert_eq!(stats.disk_pool_misses, snap.misses);
        if budget_permille >= 1000 {
            prop_assert_eq!(snap.evictions, 0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
