//! Cross-crate integration tests: run every Table-I algorithm end-to-end
//! on generated graphs and check structural invariants of the samples.

use csaw::core::algorithms::*;
use csaw::core::api::{Algorithm, FrontierMode};
use csaw::core::engine::{RunOptions, Sampler};
use csaw::gpu::Device;
use csaw::graph::generators::{barabasi_albert, rmat, toy_graph, RmatParams};
use csaw::graph::Csr;

fn check_edges_are_real(g: &Csr, out: &csaw::core::SampleOutput) {
    for inst in &out.instances {
        for &(v, u) in inst {
            assert!(g.has_edge(v, u), "sampled non-edge ({v}, {u})");
        }
    }
}

fn run_all_algorithms(g: &Csr, seeds: &[u32]) {
    macro_rules! run {
        ($algo:expr) => {{
            let algo = $algo;
            let out = if algo.config().frontier == FrontierMode::BiasedReplace {
                Sampler::new(g, &algo).run(&[seeds.to_vec()])
            } else {
                Sampler::new(g, &algo).run_single_seeds(seeds)
            };
            check_edges_are_real(g, &out);
            assert!(out.sampled_edges() > 0, "{} sampled nothing", algo.name());
            out
        }};
    }

    run!(SimpleRandomWalk { length: 12 });
    run!(MetropolisHastingsWalk { length: 12 });
    run!(RandomWalkWithJump { length: 12, p_jump: 0.15 });
    run!(RandomWalkWithRestart { length: 12, p_restart: 0.15 });
    run!(MultiIndependentRandomWalk { length: 12 });
    run!(BiasedRandomWalk { length: 12 });
    run!(Node2Vec { length: 12, p: 0.5, q: 2.0 });
    run!(UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 });
    run!(BiasedNeighborSampling { neighbor_size: 2, depth: 3 });
    run!(ForestFire::paper(3));
    run!(Snowball { depth: 2 });
    run!(LayerSampling { layer_size: 4, depth: 3 });
    run!(MultiDimRandomWalk { budget: 24 });
}

#[test]
fn all_algorithms_on_toy_graph() {
    let g = toy_graph();
    run_all_algorithms(&g, &[8, 0, 3, 12]);
}

#[test]
fn all_algorithms_on_rmat() {
    let g = rmat(10, 8, RmatParams::GRAPH500, 77);
    let seeds: Vec<u32> = (0..16).map(|i| i * 61 % 1024).collect();
    run_all_algorithms(&g, &seeds);
}

#[test]
fn all_algorithms_on_barabasi_albert() {
    let g = barabasi_albert(600, 3, 5);
    let seeds: Vec<u32> = (0..16).map(|i| i * 37 % 600).collect();
    run_all_algorithms(&g, &seeds);
}

#[test]
fn all_algorithms_on_weighted_graph() {
    let g = rmat(9, 6, RmatParams::MILD, 3).with_unit_weights();
    let seeds: Vec<u32> = (0..8).map(|i| i * 63 % 512).collect();
    run_all_algorithms(&g, &seeds);
}

#[test]
fn samples_differ_across_instances_but_runs_are_reproducible() {
    let g = rmat(9, 6, RmatParams::GRAPH500, 8);
    let algo = SimpleRandomWalk { length: 30 };
    let seeds = vec![5u32; 16];
    let a = Sampler::new(&g, &algo).run_single_seeds(&seeds);
    let b = Sampler::new(&g, &algo).run_single_seeds(&seeds);
    assert_eq!(a.instances, b.instances, "same run options, same output");
    assert!(
        a.instances.iter().any(|i| i != &a.instances[0]),
        "independent instances from the same seed must diverge"
    );
}

#[test]
fn thread_count_does_not_change_results() {
    // Counter-based RNG keying means the rayon pool size is irrelevant.
    let g = rmat(9, 4, RmatParams::GRAPH500, 10);
    let algo = BiasedNeighborSampling { neighbor_size: 2, depth: 3 };
    let seeds: Vec<u32> = (0..64).collect();

    // Modeled, so the cost model's charges are held to it too.
    let run = || Sampler::new(&g, &algo).with_device(Device::v100()).run_single_seeds(&seeds);
    let baseline = run();
    let single = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap().install(run);
    assert_eq!(baseline.instances, single.instances);
    assert_eq!(baseline.stats, single.stats);
}

#[test]
fn select_strategy_changes_work_not_validity() {
    use csaw::core::collision::DetectorKind;
    use csaw::core::select::{SelectConfig, SelectStrategy};
    let g = rmat(9, 8, RmatParams::GRAPH500, 12).with_unit_weights();
    let algo = BiasedNeighborSampling { neighbor_size: 4, depth: 2 };
    let seeds: Vec<u32> = (0..64).collect();
    for strategy in [SelectStrategy::Repeated, SelectStrategy::Updated, SelectStrategy::Bipartite] {
        for detector in [
            DetectorKind::LinearSearch,
            DetectorKind::ContiguousBitmap { word_bits: 8 },
            DetectorKind::StridedBitmap { word_bits: 8 },
        ] {
            let out = Sampler::new(&g, &algo)
                .with_options(RunOptions {
                    seed: 3,
                    select: SelectConfig { strategy, detector },
                    ..Default::default()
                })
                .run_single_seeds(&seeds);
            check_edges_are_real(&g, &out);
            assert!(out.sampled_edges() > 0);
        }
    }
}
