//! Validation for the adaptive method chooser.
//!
//! `MethodPolicy::ForceIts` is pinned bit-for-bit by `step_golden`, and
//! `MethodPolicy::Adaptive` only ever changes a dynamic-bias draw: every
//! other algorithm is held to the `ForceIts` run bit for bit. Rejection
//! consumes different Philox draws, so where it runs (node2vec) this
//! suite checks the only property the chooser is allowed to rely on:
//! every method samples the *same target distribution*. Pearson
//! chi-square against the exact bias-derived probabilities is the
//! arbiter, at the primitive level (ITS vs alias vs rejection over
//! identical bias arrays) and end-to-end through the engine (Adaptive vs
//! the exact per-step distribution for a static-bias walk and for
//! node2vec).

use csaw::baselines::alias::AliasTable;
use csaw::core::algorithms::{
    BiasedNeighborSampling, BiasedRandomWalk, ForestFire, LayerSampling, MetropolisHastingsWalk,
    MultiDimRandomWalk, MultiIndependentRandomWalk, Node2Vec, RandomWalkWithJump,
    RandomWalkWithRestart, SimpleRandomWalk, Snowball, UnbiasedNeighborSampling,
};
use csaw::core::api::Algorithm;
use csaw::core::ctps_cache::{entry_bytes, CtpsCache};
use csaw::core::engine::{drive_pool, ExecMode, PoolBufs, RunOptions, Sampler};
use csaw::core::method::MethodPolicy;
use csaw::core::select::{select_one, select_one_rejection};
use csaw::core::step::{CsrAccess, StepKernel, StepScratch};
use csaw::gpu::stats::SimStats;
use csaw::gpu::Philox;
use csaw::graph::generators::{rmat, toy_graph, RmatParams};
use csaw::graph::quality::chi_square_stat;
use csaw::graph::{Csr, CsrBuilder, VertexId};
use std::sync::Arc;

/// A comfortably loose chi-square acceptance threshold (~99.99th
/// percentile for the df sizes used here): failures mean a broken
/// sampler, not an unlucky seed — the seeds below are fixed.
fn chi2_threshold(df: usize) -> f64 {
    df as f64 + 4.0 * (2.0 * df as f64).sqrt() + 7.0
}

fn counts_its(biases: &[f64], draws: usize, seed: u64) -> Vec<u64> {
    let mut rng = Philox::new(seed);
    let mut stats = SimStats::new();
    let mut counts = vec![0u64; biases.len()];
    for _ in 0..draws {
        counts[select_one(biases, &mut rng, &mut stats).expect("positive mass")] += 1;
    }
    counts
}

fn counts_alias(biases: &[f64], draws: usize, seed: u64) -> Vec<u64> {
    let mut rng = Philox::new(seed);
    let mut stats = SimStats::new();
    let table = AliasTable::build(biases, &mut stats).expect("valid biases");
    let mut counts = vec![0u64; biases.len()];
    for _ in 0..draws {
        counts[table.sample(&mut rng, &mut stats)] += 1;
    }
    counts
}

fn counts_rejection(biases: &[f64], draws: usize, seed: u64) -> Vec<u64> {
    let mut rng = Philox::new(seed);
    let mut stats = SimStats::new();
    let bound = biases.iter().cloned().fold(0.0, f64::max);
    let mut counts = vec![0u64; biases.len()];
    for _ in 0..draws {
        // Restarting an exhausted cap is itself exact — the kernel falls
        // back to ITS instead only to bound worst-case work.
        let i = loop {
            if let Some(i) =
                select_one_rejection(biases.len(), bound, 64, |j| biases[j], &mut rng, &mut stats)
            {
                break i;
            }
        };
        counts[i] += 1;
    }
    counts
}

/// All three primitives against the exact distribution on one array.
fn assert_three_way(biases: &[f64], draws: usize, seed: u64) {
    let df = biases.iter().filter(|&&b| b > 0.0).count() - 1;
    for (name, counts) in [
        ("its", counts_its(biases, draws, seed)),
        ("alias", counts_alias(biases, draws, seed ^ 0xA11A5)),
        ("rejection", counts_rejection(biases, draws, seed ^ 0x7E7EC7)),
    ] {
        let stat = chi_square_stat(&counts, biases);
        assert!(
            stat < chi2_threshold(df.max(1)),
            "{name} diverged from the bias distribution: chi2 {stat:.1} over df {df} \
             (counts {counts:?})"
        );
    }
}

#[test]
fn methods_agree_on_a_skewed_array() {
    assert_three_way(&[8.0, 4.0, 2.0, 1.0, 1.0, 1.0, 1.0, 2.0], 300_000, 11);
}

#[test]
fn methods_agree_on_a_uniform_array() {
    assert_three_way(&[1.0; 16], 300_000, 12);
}

#[test]
fn methods_agree_on_a_single_survivor_array() {
    // Zero-bias candidates must never be selected by ANY method.
    let biases = [0.0, 0.0, 7.5, 0.0];
    for counts in [
        counts_its(&biases, 20_000, 13),
        counts_alias(&biases, 20_000, 14),
        counts_rejection(&biases, 20_000, 15),
    ] {
        assert_eq!(counts, vec![0, 0, 20_000, 0]);
    }
}

#[test]
fn methods_agree_on_a_large_draw_count() {
    // ~1e6 draws over a 32-category power-law-ish array: tight enough to
    // catch a subtly mis-scaled acceptance test or alias row.
    let biases: Vec<f64> = (0..32).map(|i| 1.0 / (1.0 + i as f64)).collect();
    assert_three_way(&biases, 1_000_000, 16);
}

fn toy_opts(policy: MethodPolicy, cache: bool) -> RunOptions {
    RunOptions {
        method_policy: policy,
        ctps_cache: cache.then(|| Arc::new(CtpsCache::new(1 << 20))),
        ..RunOptions::default()
    }
}

/// End-to-end: Adaptive biased random walk (static bias → the cached ITS
/// path) must reproduce the exact degree-proportional first-hop
/// distribution, served from the CTPS cache and never by the chooser.
#[test]
fn adaptive_biased_walk_matches_exact_distribution() {
    let g = toy_graph();
    let algo = BiasedRandomWalk { length: 1 };
    let seeds = vec![8u32; 40_000];
    let out = Sampler::new(&g, &algo)
        .with_options(toy_opts(MethodPolicy::Adaptive, true))
        .run_single_seeds(&seeds);

    let nbrs = g.neighbors(8);
    let probs: Vec<f64> = nbrs.iter().map(|&u| g.degree(u) as f64).collect();
    let mut counts = vec![0u64; nbrs.len()];
    for inst in &out.instances {
        let dest = inst[0].1;
        counts[nbrs.iter().position(|&u| u == dest).expect("hop must be a neighbor")] += 1;
    }
    let stat = chi_square_stat(&counts, &probs);
    assert!(
        stat < chi2_threshold(nbrs.len() - 1),
        "adaptive biased walk diverged: chi2 {stat:.1} (counts {counts:?})"
    );
    assert!(out.stats.ctps_cache_hits > 0, "40k expansions of one vertex must hit the CTPS cache");
    let methods = (out.stats.method_its, out.stats.method_rejection);
    assert_eq!(methods, (0, 0), "a static bias never reaches the chooser");
}

/// Node2vec probe graph where vertex 1 (degree 4 — enough for the
/// rejection chooser) splits its neighbors into the three distance
/// classes relative to prev = 0: return (0), common neighbor (2), and
/// explore-only (3, 4).
fn probe_graph() -> Csr {
    CsrBuilder::new()
        .symmetrize(true)
        .add_edge(0, 1)
        .add_edge(0, 2)
        .add_edge(1, 2)
        .add_edge(1, 3)
        .add_edge(1, 4)
        .build()
}

/// End-to-end: Adaptive node2vec (dynamic bias → rejection path) must
/// reproduce the exact second-order hop distribution.
#[test]
fn adaptive_node2vec_matches_exact_distribution() {
    let g = probe_graph();
    let algo = Node2Vec { length: 2, p: 0.1, q: 1.0 };
    let seeds = vec![0u32; 60_000];
    let out = Sampler::new(&g, &algo)
        .with_options(toy_opts(MethodPolicy::Adaptive, false))
        .run_single_seeds(&seeds);

    // Second hops of walks whose first hop was 1, prev = 0. Biases:
    // u=0 → 1/p = 10, u=2 → 1 (neighbor of 0), u=3 → 1/q = 1, u=4 → 1.
    let classes: [VertexId; 4] = [0, 2, 3, 4];
    let probs = [10.0, 1.0, 1.0, 1.0];
    let mut counts = [0u64; 4];
    let mut walks = 0u64;
    for inst in &out.instances {
        if inst.len() == 2 && inst[0].1 == 1 {
            counts[classes.iter().position(|&u| u == inst[1].1).expect("real neighbor")] += 1;
            walks += 1;
        }
    }
    assert!(walks > 10_000, "first hop 0→1 has probability 1/2, got {walks}");
    let stat = chi_square_stat(&counts, &probs);
    assert!(
        stat < chi2_threshold(3),
        "adaptive node2vec diverged: chi2 {stat:.1} (counts {counts:?})"
    );
    assert!(out.stats.method_rejection > 0, "degree-4 dynamic bias must exercise rejection");
    assert!(
        out.stats.rejection_trials >= out.stats.method_rejection,
        "every rejection-served expansion throws at least once"
    );
}

/// The thirteen Table-I algorithms with the same parameters as the
/// `step_golden` pins.
fn registry() -> Vec<(Box<dyn Algorithm>, bool)> {
    // (algorithm, uses single-vertex seeds — false = 3-vertex pools)
    vec![
        (Box::new(SimpleRandomWalk { length: 4 }), true),
        (Box::new(MetropolisHastingsWalk { length: 4 }), true),
        (Box::new(RandomWalkWithJump { length: 4, p_jump: 0.25 }), true),
        (Box::new(RandomWalkWithRestart { length: 4, p_restart: 0.25 }), true),
        (Box::new(MultiIndependentRandomWalk { length: 4 }), true),
        (Box::new(BiasedRandomWalk { length: 4 }), true),
        (Box::new(Node2Vec { length: 4, p: 0.5, q: 2.0 }), true),
        (Box::new(UnbiasedNeighborSampling { neighbor_size: 2, depth: 2 }), true),
        (Box::new(BiasedNeighborSampling { neighbor_size: 2, depth: 2 }), true),
        (Box::new(ForestFire { pf: 0.6, depth: 2 }), true),
        (Box::new(Snowball { depth: 2 }), true),
        (Box::new(LayerSampling { layer_size: 3, depth: 2 }), false),
        (Box::new(MultiDimRandomWalk { budget: 5 }), false),
    ]
}

fn seed_sets(singles: bool) -> Vec<Vec<VertexId>> {
    if singles {
        vec![vec![0], vec![8]]
    } else {
        vec![vec![0, 5, 8], vec![2, 7, 12]]
    }
}

/// `ForceIts` — explicit or by default, with or without a CTPS cache —
/// is one bit-identical sampling process across every Table-I algorithm,
/// and never ticks a method counter.
#[test]
fn force_its_is_bit_identical_to_the_default_for_all_algorithms() {
    let g = toy_graph();
    for (algo, singles) in registry() {
        let sets = seed_sets(singles);
        let default_out = Sampler::new(&g, &algo).run(&sets);
        for cache in [false, true] {
            let out = Sampler::new(&g, &algo)
                .with_options(toy_opts(MethodPolicy::ForceIts, cache))
                .run(&sets);
            assert_eq!(
                out.instances,
                default_out.instances,
                "{}: explicit ForceIts (cache={cache}) diverged from the default",
                algo.name()
            );
            let s = &out.stats;
            assert_eq!(
                (s.method_its, s.method_rejection),
                (0, 0),
                "{}: ForceIts must not tick method counters",
                algo.name()
            );
        }
    }
}

/// `Adaptive` changes only dynamic-bias draws: for every Table-I
/// algorithm but node2vec — the one with an `edge_bias_bound` — it is the
/// `ForceIts` run bit for bit, the same instances and the same `SimStats`
/// (the chooser never runs, so even its two counters stay zero), with and
/// without a CTPS cache, instance-major and depth-synchronous. Both runs
/// are modeled, so the equality covers the cost model's charges too. One
/// worker thread, so the cache's hit/miss counts repeat exactly.
#[test]
fn adaptive_equals_force_its_except_node2vec() {
    let g = rmat(9, 8, RmatParams::MILD, 11);
    let n = g.num_vertices() as VertexId;
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    for (algo, singles) in registry() {
        let per = if singles { 1 } else { 3 };
        let sets: Vec<Vec<VertexId>> =
            (0..48).map(|i| (0..per).map(|j| ((i * per + j) * 131) % n).collect()).collect();
        for exec in [ExecMode::InstanceMajor, ExecMode::DepthSync] {
            for cache in [false, true] {
                let run = |policy| {
                    let opts = RunOptions { exec, ..toy_opts(policy, cache) };
                    let sampler = Sampler::new(&g, &algo).with_options(opts).modeled();
                    pool.install(|| sampler.run(&sets))
                };
                let (its, adaptive) = (run(MethodPolicy::ForceIts), run(MethodPolicy::Adaptive));
                let what = format!("{} ({exec:?}, cache={cache})", algo.name());
                if algo.name() == "node2vec" {
                    assert!(adaptive.stats.method_rejection > 0, "{what}: rejection never ran");
                    continue;
                }
                assert_eq!(
                    adaptive.instances, its.instances,
                    "{what}: Adaptive changed the sample"
                );
                assert_eq!(adaptive.stats, its.stats, "{what}: Adaptive changed the ledger");
            }
        }
    }
}

/// `Adaptive` picks its method from the expansion's own inputs, so a
/// rejection-served node2vec sample is a function of the seeds and the
/// options alone: a rerun of one `Sampler`, another thread count, a solo
/// run of the last instance at its `instance_base` and the
/// depth-synchronous schedule all draw it bit for bit. A small `p` or a
/// small `q` skews the bias far below its bound, so many picks exhaust
/// the rejection cap and fall back to ITS.
#[test]
fn adaptive_node2vec_is_a_function_of_its_inputs() {
    let g = rmat(12, 8, RmatParams::GRAPH500, 7);
    let n = g.num_vertices() as VertexId;
    let sets: Vec<Vec<VertexId>> = (0..256).map(|i| vec![(i * 131) % n]).collect();
    let last = sets.len() - 1;
    let pools = [1, 2].map(|t| rayon::ThreadPoolBuilder::new().num_threads(t).build().unwrap());
    for (p, q) in [(0.05, 1.0), (1.0, 0.05)] {
        let algo = Node2Vec { length: 40, p, q };
        let sampler = |exec, instance_base| {
            let opts = RunOptions {
                method_policy: MethodPolicy::Adaptive,
                exec,
                instance_base,
                ..RunOptions::default()
            };
            Sampler::new(&g, &algo).with_options(opts)
        };
        let what = format!("node2vec p={p} q={q}");
        let instance_major = sampler(ExecMode::InstanceMajor, 0);
        let first = pools[0].install(|| instance_major.run(&sets));
        assert!(first.stats.method_rejection > 0, "{what}: rejection never ran");
        let rerun = pools[0].install(|| instance_major.run(&sets));
        assert_eq!(rerun.instances, first.instances, "{what}: rerun on one thread");
        let two = pools[1].install(|| instance_major.run(&sets));
        assert_eq!(two.instances, first.instances, "{what}: 1 thread vs 2");
        let solo = sampler(ExecMode::InstanceMajor, last as u32);
        let solo = pools[0].install(|| solo.run(&sets[last..]));
        assert_eq!(solo.instances[0], first.instances[last], "{what}: solo vs batch");
        let depth = pools[0].install(|| sampler(ExecMode::DepthSync, 0).run(&sets));
        assert_eq!(depth.instances, first.instances, "{what}: instance-major vs depth-sync");
    }
}

/// Kernel step invocations of `algo` over `sets`, each instance through
/// the engine's own depth loop, under `opts`'s cache and method policy.
fn kernel_steps(g: &Csr, algo: &dyn Algorithm, opts: &RunOptions, sets: &[Vec<VertexId>]) -> u64 {
    let kernel = StepKernel::new(algo, opts.seed)
        .with_select(opts.select)
        .with_ctps_cache(opts.ctps_cache.as_deref())
        .with_method_policy(opts.method_policy);
    let mut access = CsrAccess { graph: g };
    let (mut bufs, mut out) = (PoolBufs::default(), Vec::new());
    let (mut scratch, mut stats) = (StepScratch::new(), SimStats::new());
    (0..)
        .zip(sets)
        .map(|(i, seeds)| {
            drive_pool(
                &kernel,
                &mut access,
                i,
                seeds,
                &mut bufs,
                &mut out,
                &mut scratch,
                &mut stats,
            )
        })
        .sum()
}

/// Adaptive runs of every Table-I algorithm stay structurally valid
/// (real edges, walk lengths intact), tick the method counters exactly
/// when the bias is dynamic (the chooser ran), and keep the ledger of a
/// cache sized for every vertex's table conserved. The chooser changes
/// how a draw is made, never how much work a run does: ITS with and
/// without a cache and Adaptive with and without one run the same kernel
/// steps.
#[test]
fn adaptive_stays_valid_for_all_algorithms() {
    let g = toy_graph();
    let all_sized: usize =
        (0..g.num_vertices() as VertexId).map(|v| entry_bytes(g.degree(v))).sum();
    for (algo, singles) in registry() {
        let sets = seed_sets(singles);
        let cache = Arc::new(CtpsCache::new(all_sized));
        let adaptive = RunOptions {
            method_policy: MethodPolicy::Adaptive,
            ctps_cache: Some(Arc::clone(&cache)),
            ..RunOptions::default()
        };
        let out = Sampler::new(&g, &algo).with_options(adaptive.clone()).run(&sets);
        let snap = cache.snapshot();
        assert!(snap.is_conserved(), "{}: {snap:?}", algo.name());
        for inst in &out.instances {
            for &(v, u) in inst {
                assert!(g.has_edge(v, u), "{}: sampled a non-edge {v}-{u}", algo.name());
            }
        }
        let s = &out.stats;
        let dynamic = !algo.edge_bias_is_static() && !algo.edge_bias_is_uniform();
        assert_eq!(
            s.method_its + s.method_rejection > 0,
            dynamic,
            "{}: the chooser runs exactly for dynamic-bias expansions",
            algo.name()
        );
        let steps = kernel_steps(&g, &*algo, &adaptive, &sets);
        for (policy, cache) in [
            (MethodPolicy::ForceIts, false),
            (MethodPolicy::ForceIts, true),
            (MethodPolicy::Adaptive, false),
        ] {
            assert_eq!(
                kernel_steps(&g, &*algo, &toy_opts(policy, cache), &sets),
                steps,
                "{}: {policy:?} (cache={cache}) changed the amount of work",
                algo.name()
            );
        }
    }
}
