//! The EDGEBIAS lane hook against the per-edge hook it stands in for.
//!
//! The step kernel fills a vertex's bias lane with one
//! `Algorithm::edge_bias_lane` call. Debug builds check every lane
//! against `edge_bias` bit for bit; this suite holds the same contract in
//! release, where that check is compiled out: every registry algorithm's
//! lane equals its per-edge biases on a bare CSR and under a mutation
//! overlay (both arms of `GraphView::degree_lane`), weighted and not,
//! with and without a walk predecessor. It also pins that the boxed,
//! shared and borrowed trait objects the registry and the service hand to
//! the engine reach an override instead of the per-edge default.

use csaw::core::algorithms::registry::{AlgoSpec, AlgorithmId};
use csaw::core::api::{AlgoConfig, Algorithm, EdgeCand, FrontierMode, NeighborSize};
use csaw::core::engine::Sampler;
use csaw::graph::generators::{rmat, toy_graph, RmatParams};
use csaw::graph::{Csr, EdgeEdit, GraphView, MutableGraph, VertexId, Weight};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn bits(lane: &[f64]) -> Vec<u64> {
    lane.iter().map(|b| b.to_bits()).collect()
}

/// rmat-8 with non-integer weights that differ edge to edge.
fn weighted_rmat() -> Csr {
    let g = rmat(8, 6, RmatParams::GRAPH500, 3);
    let weights: Vec<Weight> =
        (0..g.num_edges()).map(|i| 0.25 + (i % 7) as Weight * 0.375).collect();
    g.with_weights(weights)
}

/// `g` with its six largest hubs mutated: one edge deleted and one
/// inserted out of each, one inserted into each. Biases that read
/// `degree(u)` see the overlay's degrees.
fn mutated_hubs(g: &Csr) -> MutableGraph {
    let n = g.num_vertices() as VertexId;
    let mut hubs: Vec<VertexId> = (0..n).collect();
    hubs.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    // Unweighted graphs take only unit-weight inserts.
    let (out_w, in_w) = if g.is_weighted() { (2.5, 0.75) } else { (1.0, 1.0) };
    let mut edits = Vec::new();
    for &h in &hubs[..6] {
        edits.push(EdgeEdit::Delete { src: h, dst: g.neighbors(h)[0] });
        edits.push(EdgeEdit::Insert { src: h, dst: (h * 7 + 3) % n, weight: out_w });
        edits.push(EdgeEdit::Insert { src: (h * 13 + 5) % n, dst: h, weight: in_w });
    }
    let mut mg = MutableGraph::new(g.clone());
    mg.apply_batch(&edits).expect("edits are valid");
    mg
}

/// Every vertex's lane through `algo.edge_bias_lane`, appended behind a
/// sentinel the hook must keep, equals the sentinel followed by the
/// per-edge `edge_bias` values, bit for bit.
fn assert_lanes_match(algo: &dyn Algorithm, g: GraphView<'_>, label: &str) -> usize {
    let n = g.num_vertices() as VertexId;
    let mut lane = Vec::new();
    let mut checked = 0;
    for v in 0..n {
        let (neighbors, weights) = (g.neighbors(v), g.neighbor_weights(v));
        for prev in [None, neighbors.first().copied(), Some((v + 1) % n)] {
            lane.clear();
            lane.push(-1.0);
            algo.edge_bias_lane(g, v, prev, neighbors, weights, &mut lane);
            let per_edge: Vec<f64> = std::iter::once(-1.0)
                .chain(neighbors.iter().enumerate().map(|(i, &u)| {
                    let weight = weights.map_or(1.0, |w| w[i]);
                    algo.edge_bias(g, &EdgeCand { v, u, weight, prev })
                }))
                .collect();
            assert_eq!(bits(&lane), bits(&per_edge), "{label}: {} v{v} prev {prev:?}", algo.name());
            checked += neighbors.len();
        }
    }
    checked
}

#[test]
fn every_registry_lane_equals_its_per_edge_biases() {
    let (toy, weighted, unweighted) =
        (toy_graph(), weighted_rmat(), rmat(8, 6, RmatParams::GRAPH500, 3));
    let (snap, weighted_snap) =
        (mutated_hubs(&unweighted).snapshot(), mutated_hubs(&weighted).snapshot());
    let moved = (0..unweighted.num_vertices() as VertexId)
        .filter(|&u| snap.view().degree(u) != unweighted.degree(u))
        .count();
    assert!(moved > 0, "the overlay changed no degree");
    let views = [
        ("toy", toy.view()),
        ("rmat-8", unweighted.view()),
        ("weighted rmat-8", weighted.view()),
        ("rmat-8 snapshot", snap.view()),
        ("weighted rmat-8 snapshot", weighted_snap.view()),
    ];
    for id in AlgorithmId::ALL {
        let algo = AlgoSpec::new(id).build().expect("registry defaults are valid");
        for (label, g) in views {
            assert!(assert_lanes_match(&*algo, g, label) > 0, "{label}: no edges checked");
        }
    }
}

/// A degree-biased sampler that counts its lane calls.
struct CountingLanes {
    calls: Arc<AtomicUsize>,
}

impl Algorithm for CountingLanes {
    fn name(&self) -> &'static str {
        "counting-lanes"
    }
    fn config(&self) -> AlgoConfig {
        AlgoConfig {
            depth: 2,
            neighbor_size: NeighborSize::Constant(2),
            frontier: FrontierMode::IndependentPerVertex,
            without_replacement: true,
        }
    }
    fn edge_bias(&self, g: GraphView<'_>, e: &EdgeCand) -> f64 {
        g.degree(e.u) as f64
    }
    fn edge_bias_lane(
        &self,
        g: GraphView<'_>,
        _v: VertexId,
        _prev: Option<VertexId>,
        neighbors: &[VertexId],
        _weights: Option<&[Weight]>,
        out: &mut Vec<f64>,
    ) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        g.degree_lane(neighbors, out)
    }
}

/// Runs `algo` as the engine runs a registry or service algorithm —
/// monomorphized over the wrapper — and returns its sampled edges.
fn sample<A: Algorithm>(g: &Csr, algo: &A) -> Vec<Vec<(VertexId, VertexId)>> {
    Sampler::new(g, algo).run_single_seeds(&[8, 7, 0, 12]).instances
}

#[test]
fn trait_objects_reach_an_overriding_lane_hook() {
    let g = toy_graph();
    let calls = Arc::new(AtomicUsize::new(0));
    let bare = CountingLanes { calls: Arc::clone(&calls) };
    let expect = sample(&g, &bare);
    let per_run = calls.swap(0, Ordering::Relaxed);
    assert!(per_run > 0, "the kernel never called the lane hook");

    let boxed: Box<dyn Algorithm> = Box::new(CountingLanes { calls: Arc::clone(&calls) });
    let shared: Arc<dyn Algorithm> = Arc::new(CountingLanes { calls: Arc::clone(&calls) });
    let borrowed: &dyn Algorithm = &bare;
    let check = |label: &str, out: Vec<Vec<(VertexId, VertexId)>>| {
        assert_eq!(out, expect, "{label}");
        assert_eq!(calls.swap(0, Ordering::Relaxed), per_run, "{label} skipped the override");
    };
    check("Box", sample(&g, &boxed));
    check("Arc", sample(&g, &shared));
    check("&dyn", sample(&g, &borrowed));
}
