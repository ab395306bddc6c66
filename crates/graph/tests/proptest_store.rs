//! Property tests for the on-disk partitioned CSR store: the
//! fixed-width delta records round-trip arbitrary graphs exactly, and
//! arbitrary single-byte corruption of any store file surfaces as a
//! typed [`StoreError`] (or decodes to the identical adjacency when the
//! flip lands in bytes the format never reads) — never a panic.

use csaw_graph::store::{segment_name, write_store};
use csaw_graph::{Csr, CsrBuilder, DiskStore};
use proptest::prelude::*;
use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    let base =
        std::env::var_os("CSAW_DISK_TMPDIR").map(PathBuf::from).unwrap_or_else(std::env::temp_dir);
    let dir = base.join(format!("csaw-store-prop-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn arb_edges() -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0u32..96, 0u32..96), 0..256)
}

fn build(edges: Vec<(u32, u32)>, weighted: bool) -> Csr {
    let g = CsrBuilder::new().with_num_vertices(96).extend_edges(edges).build();
    if weighted {
        let w = (0..g.num_edges()).map(|i| 1.0 + (i % 7) as f32).collect();
        g.with_weights(w)
    } else {
        g
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Writing any graph and reading it back through segment decode
    /// reproduces every adjacency list and weight list bit-for-bit, for
    /// any partition count.
    #[test]
    fn codec_round_trips_any_graph(
        edges in arb_edges(),
        k in 1usize..9,
        weighted: bool,
        case in 0u32..1_000_000,
    ) {
        let g = build(edges, weighted);
        let dir = tmp_dir(&format!("rt-{case}"));
        write_store(&dir, &g, k, 3).expect("write");
        let store = DiskStore::open(&dir).expect("open");
        prop_assert_eq!(store.num_vertices(), g.num_vertices());
        prop_assert_eq!(store.num_edges(), g.num_edges());
        prop_assert_eq!(store.is_weighted(), g.is_weighted());
        for p in 0..store.num_partitions() {
            let d = store.decode_partition(p).expect("decode");
            for v in 0..g.num_vertices() as u32 {
                if !d.owns(v) {
                    continue;
                }
                prop_assert_eq!(store.degree(v), g.degree(v));
                prop_assert_eq!(d.neighbors(v), g.neighbors(v));
                prop_assert_eq!(d.neighbor_weights(v), g.neighbor_weights(v));
                // The single-vertex path must agree with the full decode.
                let mut col = Vec::new();
                let mut ws = if g.is_weighted() { Some(Vec::new()) } else { None };
                let pages = store.decode_vertex(v, &mut col, ws.as_mut()).expect("run");
                prop_assert!(pages >= 1);
                prop_assert_eq!(col.as_slice(), g.neighbors(v));
                prop_assert_eq!(ws.as_deref(), g.neighbor_weights(v));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Unsorted rows of arbitrary ids (negative deltas) over up to
    /// 70 000 vertices, so records 1, 2 and 3 bytes wide all occur,
    /// between zero-degree vertices: both decode paths give them back
    /// exactly, weights too.
    #[test]
    fn unsorted_wide_rows_round_trip(
        rows in prop::collection::vec(prop::collection::vec(any::<u32>(), 0..12), 1..24),
        n in 1usize..70_000,
        k in 1usize..5,
        weighted: bool,
        case in 0u32..1_000_000,
    ) {
        let n = n.max(rows.len());
        let mut row_ptr = vec![0];
        let mut col = Vec::new();
        for r in &rows {
            col.extend(r.iter().map(|&u| u % n as u32));
            row_ptr.push(col.len());
        }
        row_ptr.resize(n + 1, col.len());
        let weights = weighted.then(|| (0..col.len()).map(|i| 0.25 + i as f32).collect());
        let g = Csr::from_parts(row_ptr, col, weights);
        let dir = tmp_dir(&format!("wide-{case}"));
        write_store(&dir, &g, k, 0).expect("write");
        let store = DiskStore::open(&dir).expect("open");
        prop_assert_eq!(&store.load_csr().expect("load"), &g);
        for v in 0..rows.len() as u32 {
            let mut col = Vec::new();
            let mut ws = if weighted { Some(Vec::new()) } else { None };
            store.decode_vertex(v, &mut col, ws.as_mut()).expect("run");
            prop_assert_eq!(col.as_slice(), g.neighbors(v));
            prop_assert_eq!(ws.as_deref(), g.neighbor_weights(v));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Flipping one arbitrary byte anywhere in the store never panics:
    /// open + full decode either fails with a typed error or still
    /// yields exactly the original adjacency (the flip landed in bytes
    /// the reader ignores, e.g. trailing slack the index never points
    /// at).
    #[test]
    fn single_byte_corruption_is_typed_or_harmless(
        edges in arb_edges(),
        k in 1usize..5,
        pick_meta: bool,
        pos in 0usize..10_000,
        bit in 0u32..8,
        case in 0u32..1_000_000,
    ) {
        let g = build(edges, false);
        let dir = tmp_dir(&format!("corrupt-{case}"));
        write_store(&dir, &g, k, 0).expect("write");
        let path = if pick_meta {
            dir.join("store.meta")
        } else {
            dir.join(segment_name(pos % k))
        };
        let mut bytes = std::fs::read(&path).expect("read store file");
        if !bytes.is_empty() {
            let i = pos % bytes.len();
            bytes[i] ^= 1 << bit;
            std::fs::write(&path, &bytes).expect("rewrite store file");
        }
        // Everything below must return, not panic.
        if let Ok(store) = DiskStore::open(&dir) {
            for p in 0..store.num_partitions() {
                match store.decode_partition(p) {
                    Err(_) => {}
                    Ok(d) => {
                        for v in 0..g.num_vertices() as u32 {
                            if d.owns(v) {
                                prop_assert_eq!(
                                    d.neighbors(v),
                                    g.neighbors(v),
                                    "silent corruption of v{}'s adjacency",
                                    v
                                );
                            }
                        }
                    }
                }
            }
            // The single-vertex path under corruption: typed error or
            // the exact original run, never a panic.
            for v in 0..g.num_vertices() as u32 {
                let mut col = Vec::new();
                if store.decode_vertex(v, &mut col, None).is_ok() {
                    prop_assert_eq!(
                        col.as_slice(),
                        g.neighbors(v),
                        "silent corruption of v{}'s run",
                        v
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
