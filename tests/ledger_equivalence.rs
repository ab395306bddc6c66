//! The two ledgers sample the same.
//!
//! A [`Sampler`] serves by default: its kernel charges a `ServeLedger`,
//! which keeps the operational counters and compiles the V100 cost model
//! away. [`Sampler::modeled`] charges a `SimStats`, every counter. This suite runs every Table-I algorithm both ways, in
//! both schedules, over the three storages a run can read — the resident
//! CSR, the disk tier and a mutated snapshot's overlay — and holds the
//! pair to three things: bit-identical instances, equal operational
//! counters (totals and per instance), and model counters that read zero
//! served and are charged when modeled, whenever an edge was sampled.

use csaw::core::algorithms::registry::{AlgoSpec, AlgorithmId};
use csaw::core::api::Algorithm;
use csaw::core::engine::{ExecMode, RunOptions, Sampler};
use csaw::core::residency::DiskRunConfig;
use csaw::core::SampleOutput;
use csaw::graph::generators::{rmat, RmatParams};
use csaw::graph::store::write_store;
use csaw::graph::{Csr, DiskStore, EdgeEdit, MutableGraph, VertexId};
use std::path::PathBuf;
use std::sync::Arc;

/// Holds a served run to its modeled twin.
fn assert_same(label: &str, served: &SampleOutput, modeled: &SampleOutput) {
    assert_eq!(served.instances, modeled.instances, "{label}: samples");
    assert_eq!(served.stats, modeled.stats.operational(), "{label}: operational counters");
    assert_eq!(served.instance_stats.len(), modeled.instance_stats.len(), "{label}");
    for (i, (s, m)) in served.instance_stats.iter().zip(&modeled.instance_stats).enumerate() {
        assert_eq!(*s, m.operational(), "{label}: instance {i}'s operational counters");
    }
    assert_eq!(served.stats, served.stats.operational(), "{label}: served run charged the model");
    // Every modeled gather costs its bytes, its transactions and a round trip.
    let m = &modeled.stats;
    if modeled.sampled_edges() > 0 {
        assert!(m.warp_cycles > 0 && m.gmem_bytes > 0 && m.gmem_transactions > 0, "{label}: {m:?}");
    }
}

/// Twenty-four instances of three seeds each: one seed set shape every
/// frontier mode takes (a pool for layer sampling and the
/// multi-dimensional walk, three walkers for the per-vertex modes).
fn seed_sets(g: &Csr) -> Vec<Vec<VertexId>> {
    let n = g.num_vertices() as VertexId;
    (0..24u32).map(|i| (0..3).map(|j| (i * 37 + j * 101) % n).collect()).collect()
}

/// Every Table-I algorithm, short enough for a test.
fn algorithms() -> Vec<(AlgorithmId, Box<dyn Algorithm>)> {
    AlgorithmId::ALL
        .into_iter()
        .map(|id| (id, AlgoSpec::new(id).with_depth(6).build().expect("registry specs are valid")))
        .collect()
}

/// Runs `algo` served and modeled on `g` under `opts` in both schedules.
fn both_ways(label: &str, g: &Csr, algo: &dyn Algorithm, opts: &RunOptions) {
    let sets = seed_sets(g);
    for exec in [ExecMode::InstanceMajor, ExecMode::DepthSync] {
        let opts = RunOptions { exec, ..opts.clone() };
        let served = Sampler::new(g, &algo).with_options(opts.clone()).run(&sets);
        let modeled = Sampler::new(g, &algo).modeled().with_options(opts).run(&sets);
        assert!(served.sampled_edges() > 0, "{label} {exec:?}: sampled nothing");
        assert_same(&format!("{label} {exec:?}"), &served, &modeled);
    }
}

fn graph() -> Csr {
    rmat(9, 6, RmatParams::GRAPH500, 31)
}

#[test]
fn ledgers_agree_on_the_resident_csr() {
    let g = graph();
    for (id, algo) in algorithms() {
        both_ways(&format!("{id:?} csr"), &g, algo.as_ref(), &RunOptions::default());
    }
}

/// Over the disk tier the served and the modeled run each get a fresh
/// pool: a worker's warm pool is keyed by the store it serves, and every
/// run opens the store anew (all handles stay open, so no two share an
/// address), so neither run finds decoded runs another left (the pool
/// counters are operational and must agree). One host thread keeps every
/// instance on the pool its run started.
#[test]
fn ledgers_agree_on_the_disk_tier() {
    let g = graph();
    let base =
        std::env::var_os("CSAW_DISK_TMPDIR").map(PathBuf::from).unwrap_or_else(std::env::temp_dir);
    let dir = base.join(format!("csaw-ledger-eq-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_store(&dir, &g, 8, 0).expect("write store");
    let mut opened = vec![Arc::new(DiskStore::open(&dir).expect("open store"))];
    let budget = opened[0].total_decoded_bytes() / 4;
    let sets = seed_sets(&g);
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("one thread");
    pool.install(|| {
        for (id, algo) in algorithms() {
            let algo = algo.as_ref();
            for exec in [ExecMode::InstanceMajor, ExecMode::DepthSync] {
                let label = format!("{id:?} disk {exec:?}");
                let [served, modeled] = [false, true].map(|modeled| {
                    opened.push(Arc::new(DiskStore::open(&dir).expect("open store")));
                    let store = Arc::clone(opened.last().expect("just opened"));
                    let disk = Some(DiskRunConfig { store, pool_budget: budget, shared: None });
                    let opts = RunOptions { exec, disk, ..RunOptions::default() };
                    let sampler = Sampler::new(&g, &algo).with_options(opts);
                    let sampler = if modeled { sampler.modeled() } else { sampler };
                    sampler.run(&sets)
                });
                assert!(served.stats.disk_pool_lookups > 0, "{label}: the disk tier never served");
                assert_same(&label, &served, &modeled);
            }
        }
    });
    drop(opened);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ledgers_agree_on_a_snapshot_overlay() {
    let g = graph();
    let n = g.num_vertices() as VertexId;
    let mut hubs: Vec<VertexId> = (0..n).collect();
    hubs.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    let mut edits = Vec::new();
    for &h in &hubs[..6] {
        edits.push(EdgeEdit::Delete { src: h, dst: g.neighbors(h)[0] });
        edits.push(EdgeEdit::Insert { src: h, dst: (h * 7 + 3) % n, weight: 1.0 });
    }
    let mut mg = MutableGraph::new(g);
    mg.apply_batch(&edits).expect("edits apply");
    let snap = mg.snapshot();
    let opts = RunOptions { snapshot: Some(snap.clone()), ..RunOptions::default() };
    for (id, algo) in algorithms() {
        both_ways(&format!("{id:?} snapshot"), snap.base(), algo.as_ref(), &opts);
    }
}
