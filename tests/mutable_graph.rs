//! The mutable-graph epoch contract, end to end: any interleaving of
//! edits and compactions yields an overlay whose merged adjacency is
//! edge-multiset-identical to a CSR rebuilt from scratch, and walks
//! launched in epoch E see exactly snapshot E — bit-identical to a
//! from-scratch run on the compacted CSR of E, unperturbed by
//! later-epoch mutations, on every runtime (engine, out-of-memory
//! scheduler, service).

use csaw::core::algorithms::{BiasedRandomWalk, UnbiasedNeighborSampling};
use csaw::core::ctps_cache::CtpsCache;
use csaw::core::engine::{RunOptions, Sampler};
use csaw::core::step::CsrAccess;
use csaw::core::{Algorithm, LayeredAccess, NeighborAccess};
use csaw::gpu::config::DeviceConfig;
use csaw::gpu::stats::SimStats;
use csaw::graph::generators::{rmat, toy_graph, RmatParams};
use csaw::graph::{Csr, CsrBuilder, EdgeEdit, GraphSnapshot, MutableGraph};
use csaw::oom::{OomConfig, OomRunner};
use csaw::service::{
    MutationRequest, RequestAlgo, SamplingRequest, SamplingService, ServiceConfig,
};
use proptest::prelude::*;
use std::sync::Arc;

/// One step of an edit/compact interleaving, encoded with fractional
/// slots so it is valid against any intermediate graph state.
#[derive(Debug, Clone)]
enum Step {
    /// Insert edge (src, dst) — skipped if already present, so the naive
    /// model stays exact (duplicate-copy semantics have their own unit
    /// tests in `csaw_graph::dynamic`).
    Insert { src_frac: f64, dst_frac: f64, weight: f32 },
    /// Delete the `pick`-th existing edge; no-op on an empty graph.
    Delete { pick: f64 },
    /// Reweight the `pick`-th existing edge; no-op on an empty graph.
    Reweight { pick: f64, weight: f32 },
    /// Fold the overlay into a fresh base.
    Compact,
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    let step =
        (0u32..8, 0.0f64..1.0, 0.0f64..1.0, 0.5f64..4.0).prop_map(
            |(kind, a, b, weight)| match kind {
                0..=2 => Step::Insert { src_frac: a, dst_frac: b, weight: weight as f32 },
                3 | 4 => Step::Delete { pick: a },
                5 | 6 => Step::Reweight { pick: a, weight: weight as f32 },
                _ => Step::Compact,
            },
        );
    prop::collection::vec(step, 0..30)
}

/// Naive reference: a plain edge list mutated in lockstep with the
/// overlay, rebuilt into a CSR from scratch at the end, plus each
/// vertex's last-edit epoch for the cache-tag oracle.
#[derive(Debug, Clone)]
struct Model {
    n: usize,
    edges: Vec<(u32, u32, f32)>,
    epoch: u64,
    edited: Vec<u64>,
}

impl Model {
    /// The model of `g` at epoch 0.
    fn of(g: &Csr) -> Self {
        let n = g.num_vertices();
        let edges = (0..n as u32)
            .flat_map(|v| {
                let ws = g.neighbor_weights(v);
                g.neighbors(v)
                    .iter()
                    .enumerate()
                    .map(move |(i, &d)| (v, d, ws.map_or(1.0, |w| w[i])))
            })
            .collect();
        Model { n, edges, epoch: 0, edited: vec![0; n] }
    }

    fn has(&self, src: u32, dst: u32) -> bool {
        self.edges.iter().any(|&(s, d, _)| s == src && d == dst)
    }

    /// A one-edit batch on `src` succeeded.
    fn stamp(&mut self, src: u32) {
        self.epoch += 1;
        self.edited[src as usize] = self.epoch;
    }

    /// The 1-hop cache tag, computed independently of the overlay: the
    /// last-edit epoch maxed over `v` and its current neighbors.
    fn tag(&self, v: u32) -> u64 {
        self.edges
            .iter()
            .filter(|&&(s, _, _)| s == v)
            .map(|&(_, d, _)| self.edited[d as usize])
            .fold(self.edited[v as usize], u64::max)
    }

    fn tags(&self) -> Vec<u64> {
        (0..self.n as u32).map(|v| self.tag(v)).collect()
    }

    fn to_csr(&self) -> Csr {
        // Keep self-loops and duplicates: the overlay allows both, so the
        // scratch rebuild must not normalize them away.
        let mut b = CsrBuilder::new()
            .with_num_vertices(self.n)
            .dedup(false)
            .drop_self_loops(false)
            .weighted(true);
        for &(s, d, w) in &self.edges {
            b = b.add_weighted_edge(s, d, w);
        }
        b.build()
    }
}

/// Applies `steps` to both representations; invalid picks degrade to
/// no-ops on both sides identically.
fn apply_steps(mg: &mut MutableGraph, model: &mut Model, steps: &[Step]) {
    for step in steps {
        apply_step(mg, model, step);
    }
}

fn apply_step(mg: &mut MutableGraph, model: &mut Model, step: &Step) {
    let pick = |p: f64, len: usize| ((p * len as f64) as usize).min(len - 1);
    let (src, edit) = match *step {
        Step::Insert { src_frac, dst_frac, weight } => {
            let src = pick(src_frac, model.n) as u32;
            let dst = pick(dst_frac, model.n) as u32;
            if model.has(src, dst) {
                return;
            }
            model.edges.push((src, dst, weight));
            (src, EdgeEdit::Insert { src, dst, weight })
        }
        Step::Delete { .. } | Step::Reweight { .. } if model.edges.is_empty() => return,
        Step::Delete { pick: p } => {
            let (src, dst, _) = model.edges.remove(pick(p, model.edges.len()));
            (src, EdgeEdit::Delete { src, dst })
        }
        Step::Reweight { pick: p, weight } => {
            let i = pick(p, model.edges.len());
            model.edges[i].2 = weight;
            let (src, dst, _) = model.edges[i];
            (src, EdgeEdit::Reweight { src, dst, weight })
        }
        Step::Compact => {
            mg.compact();
            return;
        }
    };
    mg.apply_batch(&[edit]).unwrap();
    model.stamp(src);
}

/// Every vertex's `entry_version` in `snap` equals `want`.
fn check_tags(snap: &GraphSnapshot, want: &[u64]) -> Result<(), prop::test_runner::TestCaseError> {
    for (v, &tag) in want.iter().enumerate() {
        prop_assert_eq!(
            snap.entry_version(v as u32),
            tag,
            "vertex {} at epoch {}",
            v,
            snap.epoch()
        );
    }
    Ok(())
}

/// `v`'s adjacency as a sorted (dst, weight-bits) multiset.
fn edge_multiset(neighbors: &[u32], weights: Option<&[f32]>) -> Vec<(u32, u32)> {
    let mut out: Vec<(u32, u32)> = neighbors
        .iter()
        .enumerate()
        .map(|(i, &d)| (d, weights.map_or(1.0f32, |w| w[i]).to_bits()))
        .collect();
    out.sort_unstable();
    out
}

fn sorted(mut instances: Vec<Vec<(u32, u32)>>) -> Vec<Vec<(u32, u32)>> {
    for inst in &mut instances {
        inst.sort_unstable();
    }
    instances
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any interleaving of edits and compactions: the overlay's
    /// snapshot access's gather is edge-multiset-identical (per vertex) to a
    /// CSR rebuilt from scratch, and snapshot walks are bit-identical to
    /// walks on that rebuilt CSR.
    #[test]
    fn overlay_gather_matches_scratch_rebuild(steps in arb_steps()) {
        // Start from a weighted seed graph so reweights always have
        // targets and the overlay materializes non-trivial bases.
        let seed_graph = toy_graph().with_unit_weights();
        let mut model = Model::of(&seed_graph);
        let mut mg = MutableGraph::new(seed_graph);
        apply_steps(&mut mg, &mut model, &steps);

        let scratch = model.to_csr();
        let snap = mg.snapshot();
        let mut csr = CsrAccess { graph: snap.base() };
        let mut access = LayeredAccess::new(&mut csr, Some(&snap), ());
        let mut stats = SimStats::new();
        prop_assert_eq!(snap.view().num_edges(), scratch.num_edges());
        for v in 0..model.n as u32 {
            let got = access.gather(v, &mut stats);
            let got_set = edge_multiset(got.neighbors, got.weights);
            let want_set = edge_multiset(scratch.neighbors(v), scratch.neighbor_weights(v));
            prop_assert_eq!(got_set, want_set, "vertex {}", v);
        }

        // Walk bit-identity: the snapshot run equals a from-scratch run
        // on the rebuilt CSR (same RNG keying, same logical adjacency).
        let algo = BiasedRandomWalk { length: 3 };
        let seeds: Vec<u32> = (0..8).map(|i| i * 3 % model.n as u32).collect();
        let on_snap = Sampler::new(snap.base(), &algo)
            .with_snapshot(snap.clone())
            .run_single_seeds(&seeds);
        let on_scratch = Sampler::new(&scratch, &algo).run_single_seeds(&seeds);
        prop_assert_eq!(on_snap.instances, on_scratch.instances);
    }

    /// The same interleavings against an independent cache-tag oracle:
    /// every vertex's `entry_version` equals the model's last-edit epoch
    /// maxed over the vertex and its current neighbors, after every step.
    /// `Compact` steps put reads across folds. Part-way the graph is
    /// cloned and the two lineages take different steps, interleaved.
    /// Every snapshot is read again right after a newer one moved the
    /// memo past it, and all of them once more at the end.
    #[test]
    fn entry_version_matches_a_one_hop_oracle(
        steps in arb_steps(),
        other in arb_steps(),
        fork in 0.0f64..1.0
    ) {
        let seed_graph = toy_graph().with_unit_weights();
        let mut model = Model::of(&seed_graph);
        let mut mg = MutableGraph::new(seed_graph);
        let mut taken = Vec::new();
        observe(&mg, &model, &mut taken)?;
        let split = (fork * steps.len() as f64) as usize;
        for step in &steps[..split] {
            apply_step(&mut mg, &mut model, step);
            observe(&mg, &model, &mut taken)?;
        }

        let (mut forked, mut forked_model) = (mg.clone(), model.clone());
        for i in 0..other.len().max(steps.len() - split) {
            if let Some(step) = steps.get(split + i) {
                apply_step(&mut mg, &mut model, step);
                observe(&mg, &model, &mut taken)?;
            }
            if let Some(step) = other.get(i) {
                apply_step(&mut forked, &mut forked_model, step);
                observe(&forked, &forked_model, &mut taken)?;
            }
        }
        for (snap, want) in taken.iter().rev().chain(&taken) {
            check_tags(snap, want)?;
        }
    }
}

/// Checks a fresh snapshot of `mg` against the oracle, re-reads the
/// snapshot taken before it, and keeps the fresh one.
fn observe(
    mg: &MutableGraph,
    model: &Model,
    taken: &mut Vec<(GraphSnapshot, Vec<u64>)>,
) -> Result<(), prop::test_runner::TestCaseError> {
    let (snap, want) = (mg.snapshot(), model.tags());
    check_tags(&snap, &want)?;
    if let Some((older, older_want)) = taken.last() {
        check_tags(older, older_want)?;
    }
    taken.push((snap, want));
    Ok(())
}

/// Edits that are undone leave no overlay behind: an insert and a
/// reweight undone by a later batch, and an insert undone within one
/// batch. The view is the bare CSR again, walks equal the compacted
/// CSR's, which is the input graph, and the tags still moved.
#[test]
fn undone_edits_retire_their_deltas() {
    let g = toy_graph().with_unit_weights();
    let mut mg = MutableGraph::new(g.clone());
    mg.apply_batch(&[
        EdgeEdit::Insert { src: 0, dst: 9, weight: 2.5 },
        EdgeEdit::Reweight { src: 3, dst: 7, weight: 0.5 },
    ])
    .unwrap();
    assert_eq!(mg.overlay_vertices(), 2);
    mg.apply_batch(&[
        EdgeEdit::Delete { src: 0, dst: 9 },
        EdgeEdit::Reweight { src: 3, dst: 7, weight: 1.0 },
        EdgeEdit::Insert { src: 8, dst: 0, weight: 1.0 },
        EdgeEdit::Delete { src: 8, dst: 0 },
    ])
    .unwrap();
    let snap = mg.snapshot();
    assert_eq!(snap.epoch(), 2);
    assert_eq!(snap.overlay_vertices(), 0);
    assert!(snap.overlay().is_none(), "the view is the bare CSR again");
    for v in [0, 3, 8] {
        assert_eq!(snap.entry_version(v), 2, "vertex {v} was edited at epoch 2");
    }
    assert_eq!(snap.entry_version(9), 2, "8 is a neighbor of 9");

    let compacted = snap.to_csr();
    assert_eq!(compacted, g);
    let algo = BiasedRandomWalk { length: 8 };
    let seeds: Vec<u32> = (0..13).collect();
    let on_snap =
        Sampler::new(snap.base(), &algo).with_snapshot(snap.clone()).run_single_seeds(&seeds);
    let on_compacted = Sampler::new(&compacted, &algo).run_single_seeds(&seeds);
    assert_eq!(on_snap.instances, on_compacted.instances);
    assert_eq!(mg.compact(), 0, "nothing is left to fold");
}

#[test]
fn epoch_walks_are_frozen_against_later_mutations() {
    let mut mg = MutableGraph::new(toy_graph().with_unit_weights());
    mg.apply_batch(&[
        EdgeEdit::Insert { src: 0, dst: 9, weight: 2.5 },
        EdgeEdit::Delete { src: 8, dst: 5 },
        EdgeEdit::Reweight { src: 3, dst: 7, weight: 0.5 },
    ])
    .unwrap();
    let s1 = mg.snapshot();
    let algo = BiasedRandomWalk { length: 8 };
    let seeds: Vec<u32> = (0..13).collect();
    let run = |snap: &GraphSnapshot| {
        Sampler::new(snap.base(), &algo).with_snapshot(snap.clone()).run_single_seeds(&seeds)
    };

    // Contract half 1: the epoch-1 run equals a from-scratch run on the
    // compacted CSR of epoch 1.
    let out1 = run(&s1);
    let compacted = s1.to_csr();
    let scratch = Sampler::new(&compacted, &algo).run_single_seeds(&seeds);
    assert_eq!(out1.instances, scratch.instances);

    // Contract half 2: later-epoch mutations and compactions never
    // perturb walks launched against the epoch-1 snapshot.
    mg.apply_batch(&[EdgeEdit::Insert { src: 5, dst: 0, weight: 1.0 }]).unwrap();
    mg.compact();
    mg.apply_batch(&[EdgeEdit::Delete { src: 0, dst: 9 }]).unwrap();
    let out2 = run(&s1);
    assert_eq!(out1.instances, out2.instances);

    // And the live graph's own walks see the epoch-3 adjacency, which
    // differs from epoch 1's (edge (0, 9) is gone again).
    let s3 = mg.snapshot();
    assert_eq!(s3.epoch(), 3);
    assert!(!s3.view().has_edge(0, 9));
    assert!(s1.view().has_edge(0, 9));
}

/// Snapshot walks on the engine and on the out-of-memory scheduler equal
/// each other and a from-scratch run on the epoch's compacted CSR, for
/// two edit shapes: a mix of hub-adjacent and leaf inserts plus a delete
/// of a base edge, and walks seeded at the hubs while inserts land on
/// the coldest vertices, at overlay fractions 0, 1 and 25%. The empty
/// overlay also samples exactly what the untouched input graph does.
#[test]
fn engine_and_oom_agree_on_snapshot_walks() {
    let g = rmat(9, 6, RmatParams::GRAPH500, 22);
    let n = g.num_vertices() as u32;
    let probe = {
        let v = (0..n).find(|&v| g.degree(v) > 0).expect("rmat graph has edges");
        (v, g.neighbors(v)[0])
    };
    let mixed = vec![
        EdgeEdit::Insert { src: 3, dst: 250, weight: 1.0 },
        EdgeEdit::Insert { src: 250, dst: 3, weight: 1.0 },
        EdgeEdit::Insert { src: 7, dst: 400, weight: 1.0 },
        EdgeEdit::Delete { src: probe.0, dst: probe.1 },
    ];
    let strided: Vec<u32> = (0..48).map(|i| i * 11 % n).collect();
    let mut by_degree: Vec<u32> = (0..n).collect();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    let (hot, rest) = by_degree.split_at(32);
    let cold: Vec<u32> = rest.iter().rev().copied().filter(|&v| g.degree(v) > 0).collect();
    let cold_edits = |pct: usize| -> Vec<EdgeEdit> {
        let touched = (n as usize * pct / 100).min(cold.len());
        cold[..touched]
            .iter()
            .flat_map(|&v| {
                [1, 7].map(|d| EdgeEdit::Insert { src: v, dst: (v + d) % n, weight: 1.0 })
            })
            .collect()
    };
    let cases =
        [(mixed, &strided[..]), (cold_edits(0), hot), (cold_edits(1), hot), (cold_edits(25), hot)];
    let algos: [Box<dyn Algorithm>; 2] = [
        Box::new(UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 }),
        Box::new(BiasedRandomWalk { length: 8 }),
    ];

    for (edits, seeds) in cases {
        let mut mg = MutableGraph::new(g.clone());
        mg.apply_batch(&edits).unwrap();
        let snap = mg.snapshot();
        let compacted = snap.to_csr();
        for algo in &algos {
            let label = format!("{} after {} edits", algo.name(), edits.len());
            let engine =
                Sampler::new(snap.base(), algo).with_snapshot(snap.clone()).run_single_seeds(seeds);
            let oom = OomRunner::new(snap.base(), algo, OomConfig::default())
                .with_device(DeviceConfig::tiny(1 << 20))
                .with_snapshot(snap.clone())
                .run(seeds);
            assert_eq!(sorted(engine.instances.clone()), sorted(oom.instances), "{label}");

            let scratch = Sampler::new(&compacted, algo).run_single_seeds(seeds);
            assert_eq!(engine.instances, scratch.instances, "{label}: snapshot vs compacted");
            if edits.is_empty() {
                let untouched = Sampler::new(&g, algo).run_single_seeds(seeds);
                assert_eq!(engine.instances, untouched.instances, "{label}: empty overlay");
            }
        }
    }
}

#[test]
fn service_mutations_apply_atomically_and_walks_track_epochs() {
    let graph = Arc::new(toy_graph());
    let svc = SamplingService::with_engine(Arc::clone(&graph), ServiceConfig::default());
    let spec = RequestAlgo::by_name("biased-walk").unwrap();
    let algo = csaw::core::AlgoSpec::by_name("biased-walk").unwrap().build().unwrap();
    let submit = |svc: &SamplingService| {
        svc.submit(SamplingRequest::new(spec.clone(), vec![0, 8]).with_rng_seed(7))
            .unwrap()
            .wait()
            .unwrap()
    };
    // Solo reference at a given instance base (each submit advances the
    // key's base by two instances): `snapshot = None` is the pre-mutation
    // graph, `Some` the epoch-1 overlay.
    let solo = |snapshot: Option<&GraphSnapshot>, instance_base: u32| {
        let g = snapshot.map_or(&*graph, |s| s.base());
        Sampler::new(g, &algo)
            .with_options(RunOptions {
                seed: 7,
                instance_base,
                snapshot: snapshot.cloned(),
                ..RunOptions::default()
            })
            .run_single_seeds(&[0, 8])
            .instances
    };
    let r0 = submit(&svc);
    assert_eq!(r0.output.instances, solo(None, r0.instance_base));

    // A rejected batch is fully atomic: epoch unchanged, nothing applied,
    // and walks still match the unmutated solo reference.
    let err = svc
        .mutate(MutationRequest::new(vec![
            EdgeEdit::Insert { src: 8, dst: 0, weight: 1.0 },
            EdgeEdit::Delete { src: 0, dst: 999 },
        ]))
        .unwrap_err();
    assert!(matches!(err, csaw::graph::EditError::VertexOutOfRange { .. }));
    assert_eq!(svc.graph_epoch(), 0);
    let ra = submit(&svc);
    assert_eq!(ra.output.instances, solo(None, ra.instance_base));

    // A successful mutation advances the epoch and is visible to the
    // next batch; the response is bit-identical to a solo engine run on
    // the mutated snapshot.
    let resp =
        svc.mutate(MutationRequest::new(vec![EdgeEdit::Insert { src: 8, dst: 0, weight: 1.0 }]));
    let resp = resp.unwrap();
    assert_eq!(resp.epoch, 1);
    assert_eq!(resp.overlay_vertices, 1);
    assert_eq!(svc.graph_epoch(), 1);
    let mut solo_mg = MutableGraph::from_arc(Arc::clone(&graph));
    solo_mg.apply_batch(&[EdgeEdit::Insert { src: 8, dst: 0, weight: 1.0 }]).unwrap();
    let snap1 = solo_mg.snapshot();
    let r1 = submit(&svc);
    assert_eq!(r1.output.instances, solo(Some(&snap1), r1.instance_base));

    // Compaction folds the overlay without changing walks or the epoch:
    // the post-fold service still matches the *uncompacted* epoch-1
    // snapshot reference.
    assert_eq!(svc.compact(), 1);
    assert_eq!(svc.graph_epoch(), 1);
    let r2 = submit(&svc);
    assert_eq!(r2.output.instances, solo(Some(&snap1), r2.instance_base));

    let snap = svc.shutdown();
    assert_eq!(snap.mutations, 1);
    assert_eq!(snap.compactions, 1);
    assert_eq!(snap.graph_epoch, 1);
    assert_eq!(snap.overlay_vertices, 0, "gauge reflects the fold");
    assert!(snap.fully_accounted());
}

#[test]
fn untouched_hot_vertices_keep_cache_entries_across_epochs() {
    let algo = BiasedRandomWalk { length: 1 };
    let cache = Arc::new(CtpsCache::new(1 << 20));
    let mut mg = MutableGraph::new(toy_graph());
    let seeds = vec![8u32; 4];
    let run = |mg: &MutableGraph| {
        let snap = mg.snapshot();
        Sampler::new(snap.base(), &algo)
            .with_options(RunOptions {
                ctps_cache: Some(Arc::clone(&cache)),
                snapshot: Some(snap.clone()),
                ..RunOptions::default()
            })
            .run_single_seeds(&seeds)
    };

    run(&mg);
    let warm = cache.snapshot();
    assert!(warm.promotions > 0, "walk promoted vertex 8's table");
    assert!(warm.hits > 0, "repeated seeds hit the promoted table");
    assert_eq!(warm.evictions_stale, 0);

    // Mutating a vertex the walk never expands leaves every cached
    // entry valid: same tag (version 0), pure hits, no stale drops.
    mg.apply_batch(&[EdgeEdit::Insert { src: 0, dst: 3, weight: 1.0 }]).unwrap();
    run(&mg);
    let after_cold_edit = cache.snapshot();
    assert_eq!(after_cold_edit.evictions_stale, 0, "untouched vertices keep entries");
    assert_eq!(after_cold_edit.promotions, warm.promotions, "nothing re-promoted");
    assert!(after_cold_edit.hits > warm.hits);

    // Compaction doesn't invalidate either (versions are retained).
    mg.compact();
    run(&mg);
    let after_compact = cache.snapshot();
    assert_eq!(after_compact.evictions_stale, 0);
    assert_eq!(after_compact.promotions, warm.promotions);

    // Mutating the hot vertex itself invalidates exactly its entry:
    // one stale drop, one re-promotion at the new version tag.
    mg.apply_batch(&[EdgeEdit::Insert { src: 8, dst: 0, weight: 1.0 }]).unwrap();
    run(&mg);
    let after_hot_edit = cache.snapshot();
    assert_eq!(after_hot_edit.evictions_stale, 1, "only the mutated vertex went stale");
    assert_eq!(after_hot_edit.promotions, warm.promotions + 1);
    assert!(after_hot_edit.is_conserved());
}
