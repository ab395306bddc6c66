//! Engine edge cases and failure injection: degenerate graphs, extreme
//! parameters, and misuse that must degrade gracefully rather than panic.

use csaw::core::algorithms::*;
use csaw::core::api::*;
use csaw::core::engine::Sampler;
use csaw::graph::{Csr, CsrBuilder, GraphView};

#[test]
fn depth_zero_samples_nothing() {
    struct Noop;
    impl Algorithm for Noop {
        fn name(&self) -> &'static str {
            "noop"
        }
        fn config(&self) -> AlgoConfig {
            AlgoConfig {
                depth: 0,
                neighbor_size: NeighborSize::Constant(2),
                frontier: FrontierMode::IndependentPerVertex,
                without_replacement: true,
            }
        }
    }
    let g = csaw::graph::generators::toy_graph();
    let out = Sampler::new(&g, &Noop).run_single_seeds(&[0, 8]);
    assert_eq!(out.sampled_edges(), 0);
    assert_eq!(out.instances.len(), 2);
}

#[test]
fn neighbor_size_zero_is_inert() {
    struct ZeroNs;
    impl Algorithm for ZeroNs {
        fn name(&self) -> &'static str {
            "zero-ns"
        }
        fn config(&self) -> AlgoConfig {
            AlgoConfig {
                depth: 3,
                neighbor_size: NeighborSize::Constant(0),
                frontier: FrontierMode::IndependentPerVertex,
                without_replacement: true,
            }
        }
    }
    let g = csaw::graph::generators::toy_graph();
    let out = Sampler::new(&g, &ZeroNs).run_single_seeds(&[8]);
    assert_eq!(out.sampled_edges(), 0);
}

#[test]
fn all_seeds_isolated() {
    let g = Csr::empty(10);
    let walk = SimpleRandomWalk { length: 10 };
    let out = Sampler::new(&g, &walk).run_single_seeds(&[0, 5, 9]);
    assert_eq!(out.sampled_edges(), 0);
    let ns = UnbiasedNeighborSampling { neighbor_size: 2, depth: 2 };
    let out = Sampler::new(&g, &ns).run_single_seeds(&[1]);
    assert_eq!(out.sampled_edges(), 0);
}

#[test]
fn self_loops_are_walkable_when_kept() {
    // A vertex whose only edge is a self loop: the walk stays put forever
    // but must still terminate at the configured length.
    let g = CsrBuilder::new().drop_self_loops(false).add_edge(0, 0).build();
    let walk = SimpleRandomWalk { length: 7 };
    let out = Sampler::new(&g, &walk).run_single_seeds(&[0]);
    assert_eq!(out.instances[0], vec![(0, 0); 7]);
}

#[test]
fn huge_neighbor_size_saturates_at_degree() {
    let g = csaw::graph::generators::toy_graph();
    let ns = UnbiasedNeighborSampling { neighbor_size: 10_000, depth: 1 };
    let out = Sampler::new(&g, &ns).run_single_seeds(&[8]);
    assert_eq!(out.instances[0].len(), 5, "v8 has 5 neighbors");
}

#[test]
fn duplicate_seeds_make_independent_instances() {
    let g = csaw::graph::generators::toy_graph();
    let walk = SimpleRandomWalk { length: 40 };
    let out = Sampler::new(&g, &walk).run_single_seeds(&[8; 8]);
    let distinct: std::collections::HashSet<_> =
        out.instances.iter().map(|i| format!("{i:?}")).collect();
    assert!(distinct.len() > 1);
}

#[test]
fn mdrw_pool_with_duplicates_and_isolated() {
    let g = CsrBuilder::new().with_num_vertices(5).symmetrize(true).add_edge(0, 1).build();
    let algo = MultiDimRandomWalk { budget: 10 };
    // Pool mixes a connected pair with isolated vertices (zero bias).
    let out = Sampler::new(&g, &algo).run(&[vec![0, 0, 3, 4]]);
    // Isolated pool entries carry zero degree bias and are never picked;
    // the 0<->1 pair ping-pongs for the whole budget.
    assert_eq!(out.instances[0].len(), 10);
    assert!(out.instances[0].iter().all(|&(v, u)| (v == 0 || v == 1) && (u == 0 || u == 1)));
}

#[test]
fn forest_fire_pf_one_is_rejected_like_behavior_documented() {
    // pf = 0.999...: realize() caps at the degree, so this must not hang.
    let g = csaw::graph::generators::toy_graph();
    let algo = ForestFire { pf: 0.999, depth: 2 };
    let out = Sampler::new(&g, &algo).run_single_seeds(&[8]);
    assert!(out.sampled_edges() > 0);
}

#[test]
fn update_discard_everything_terminates_early() {
    struct DropAll;
    impl Algorithm for DropAll {
        fn name(&self) -> &'static str {
            "drop-all"
        }
        fn config(&self) -> AlgoConfig {
            AlgoConfig {
                depth: 50,
                neighbor_size: NeighborSize::Constant(1),
                frontier: FrontierMode::IndependentPerVertex,
                without_replacement: false,
            }
        }
        fn update(
            &self,
            _g: GraphView<'_>,
            _e: &EdgeCand,
            _home: u32,
            _rng: &mut csaw::gpu::Philox,
        ) -> UpdateAction {
            UpdateAction::Discard
        }
    }
    let g = csaw::graph::generators::toy_graph();
    let out = Sampler::new(&g, &DropAll).run_single_seeds(&[8]);
    // One edge sampled, then the frontier dies.
    assert_eq!(out.instances[0].len(), 1);
}

#[test]
fn weighted_graph_with_uniform_weights_matches_unweighted_distribution() {
    use std::collections::HashMap;
    let gw = csaw::graph::generators::toy_graph().with_unit_weights();
    let algo = BiasedNeighborSampling { neighbor_size: 1, depth: 1 };
    // On the weighted copy the bias is the (unit) weight -> uniform.
    let out = Sampler::new(&gw, &algo).run_single_seeds(&vec![8; 40_000]);
    let mut counts: HashMap<u32, usize> = HashMap::new();
    for inst in &out.instances {
        *counts.entry(inst[0].1).or_default() += 1;
    }
    for &u in gw.neighbors(8) {
        let f = counts[&u] as f64 / 40_000.0;
        assert!((f - 0.2).abs() < 0.02, "neighbor {u}: {f}");
    }
}

#[test]
fn checked_runs_reject_bad_seed_ids_with_typed_errors() {
    use csaw::core::engine::RunError;
    let g = csaw::graph::generators::toy_graph(); // 13 vertices
    let walk = SimpleRandomWalk { length: 4 };
    let s = Sampler::new(&g, &walk);
    // Out-of-range single seed: the error pins the instance and vertex.
    match s.run_single_seeds_checked(&[0, 99]) {
        Err(RunError::SeedOutOfRange { instance, vertex, num_vertices }) => {
            assert_eq!((instance, vertex, num_vertices), (1, 99, 13));
        }
        other => panic!("expected SeedOutOfRange, got {other:?}"),
    }
    // Empty seed *set* (an instance with no seeds) is an error...
    match s.run_checked(&[vec![0], vec![]]) {
        Err(RunError::EmptySeedSet { instance }) => assert_eq!(instance, 1),
        other => panic!("expected EmptySeedSet, got {other:?}"),
    }
    // ...but an empty *list* of sets is a valid zero-instance run.
    let out = s.run_checked(&[]).unwrap();
    assert_eq!(out.instances.len(), 0);
    // Valid seeds pass through to a normal run, bit-identical to the
    // unchecked entry point.
    let checked = s.run_single_seeds_checked(&[0, 8]).unwrap();
    let unchecked = s.run_single_seeds(&[0, 8]);
    assert_eq!(checked.instances, unchecked.instances);
}

/// Option combinations no launch can serve come back as typed errors
/// from the checked entry points, before any task starts — not as a
/// panic inside every launched task.
#[test]
fn checked_runs_reject_unservable_options_with_typed_errors() {
    use csaw::core::engine::{ExecMode, RunError, RunOptions};
    use csaw::core::residency::DiskRunConfig;
    use csaw::graph::store::write_store;
    use csaw::graph::{DiskStore, MutableGraph};
    let g = csaw::graph::generators::toy_graph();
    let walk = SimpleRandomWalk { length: 4 };

    let base = std::env::var_os("CSAW_DISK_TMPDIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    let dir = base.join(format!("csaw-disk-edge-cases-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_store(&dir, &g, 2, 0).expect("write store");
    let store = std::sync::Arc::new(DiskStore::open(&dir).expect("open store"));
    // A snapshot over the disk tier is servable: the overlay sits above
    // the store that holds the snapshot's base.
    let both = RunOptions {
        snapshot: Some(MutableGraph::new(g.clone()).snapshot()),
        disk: Some(DiskRunConfig { store, pool_budget: 1 << 16, shared: None }),
        ..Default::default()
    };
    for exec in [ExecMode::InstanceMajor, ExecMode::DepthSync] {
        let s = Sampler::new(&g, &walk).with_options(RunOptions { exec, ..both.clone() });
        let plain = Sampler::new(&g, &walk).run_single_seeds(&[0, 8]);
        assert_eq!(s.run_single_seeds_checked(&[0, 8]).unwrap().instances, plain.instances);
    }
    let _ = std::fs::remove_dir_all(&dir);

    let zero = RunOptions { exec: ExecMode::DepthSync, batch_chunk: Some(0), ..Default::default() };
    let s = Sampler::new(&g, &walk).with_options(zero);
    assert_eq!(s.run_single_seeds_checked(&[0, 8]).unwrap_err(), RunError::ZeroBatchChunk);
    // The options are judged before the seeds: nothing ran.
    assert_eq!(s.run_checked(&[vec![99]]).unwrap_err(), RunError::ZeroBatchChunk);
    assert!(RunError::ZeroBatchChunk.to_string().contains("chunk"));
}

#[test]
fn run_error_messages_name_the_problem() {
    use csaw::core::engine::RunError;
    let oob = RunError::SeedOutOfRange { instance: 3, vertex: 42, num_vertices: 10 };
    let msg = oob.to_string();
    assert!(msg.contains("42") && msg.contains("10"), "{msg}");
    let empty = RunError::EmptySeedSet { instance: 3 };
    assert!(empty.to_string().contains('3'), "{empty}");
}

#[test]
fn snowball_on_star_graph_is_one_shot() {
    let mut b = CsrBuilder::new().symmetrize(true);
    for i in 1..=6u32 {
        b = b.add_edge(0, i);
    }
    let g = b.build();
    let out = Sampler::new(&g, &Snowball { depth: 4 }).run_single_seeds(&[0]);
    // Depth 1 takes all 6 spokes; depth 2 adds the 6 back-edges to the
    // (visited) hub — filtered; nothing further.
    assert_eq!(out.instances[0].len(), 6 + 6);
}
