//! Integration tests for the out-of-memory runtime against the in-memory
//! engine, across its own configurations, and against the unified-memory
//! comparator.

use csaw::baselines::unified::UnifiedRunner;
use csaw::core::algorithms::{BiasedRandomWalk, UnbiasedNeighborSampling};
use csaw::core::engine::{ExecMode, RunOptions, Sampler};
use csaw::core::method::MethodPolicy;
use csaw::gpu::config::DeviceConfig;
use csaw::graph::generators::{rmat, RmatParams};
use csaw::oom::{OomConfig, OomRunner};

#[test]
fn oom_configs_produce_identical_samples() {
    let g = rmat(10, 6, RmatParams::GRAPH500, 21);
    let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 };
    let seeds: Vec<u32> = (0..64).map(|i| i * 13 % 1024).collect();
    let outs: Vec<_> = OomConfig::figure13_ladder()
        .iter()
        .map(|(_, cfg)| {
            OomRunner::new(&g, &algo, *cfg).with_device(DeviceConfig::tiny(1 << 20)).run(&seeds)
        })
        .collect();
    for o in &outs[1..] {
        assert_eq!(outs[0].sample.sorted_instances(), o.sample.sorted_instances());
    }
}

#[test]
fn partition_count_does_not_change_samples() {
    let g = rmat(9, 6, RmatParams::GRAPH500, 22);
    let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 };
    let seeds: Vec<u32> = (0..32).collect();
    let mut reference = None;
    for parts in [2usize, 3, 4, 8] {
        let cfg = OomConfig { num_partitions: parts, resident_partitions: 2, ..OomConfig::full() };
        let out = OomRunner::new(&g, &algo, cfg).run(&seeds);
        let c = out.sample.sorted_instances();
        match &reference {
            None => reference = Some(c),
            Some(r) => assert_eq!(r, &c, "{parts} partitions changed the sample"),
        }
    }
}

/// Asserts that every out-of-memory scheduling policy (the Fig. 13
/// optimization ladder plus the serial reference path) samples exactly —
/// per instance, as an edge multiset — what the in-memory engine samples.
///
/// This is the payoff of keying every RNG draw by
/// `(instance, depth, vertex, trial)` and funneling every runtime through
/// the one `StepKernel`: scheduling order (partition queues, batching,
/// workload-aware transfers, host thread counts) can no longer leak into
/// the sample.
fn assert_exact_equivalence<A: csaw::core::api::Algorithm>(algo: &A, graph_seed: u64, label: &str) {
    assert_exact_equivalence_under(algo, graph_seed, label, RunOptions::default());
}

/// [`assert_exact_equivalence`] with both sides taking the same `opts`,
/// the out-of-memory side under both engine schedules: it drains its
/// partition queues entry by entry whichever `exec` says, so it never
/// forms a frontier group.
fn assert_exact_equivalence_under<A: csaw::core::api::Algorithm>(
    algo: &A,
    graph_seed: u64,
    label: &str,
    opts: RunOptions,
) {
    let g = rmat(9, 6, RmatParams::GRAPH500, graph_seed);
    let seeds: Vec<u32> = (0..48).map(|i| i * 13 % 512).collect();
    let mem = Sampler::new(&g, algo).with_options(opts.clone()).run_single_seeds(&seeds);
    let mem = mem.sorted_instances();
    let device = DeviceConfig::tiny(1 << 20);
    for exec in [ExecMode::InstanceMajor, ExecMode::DepthSync] {
        let opts = RunOptions { exec, ..opts.clone() };
        for (name, cfg) in OomConfig::figure13_ladder() {
            let oom = OomRunner::new(&g, algo, cfg).with_device(device).with_options(opts.clone());
            let oom = oom.run(&seeds);
            assert_eq!(
                oom.sample.sorted_instances(),
                mem,
                "{label} under {name} ({exec:?}) diverged from the engine"
            );
            assert_eq!(oom.sample.stats.batch_groups, 0, "{label} under {name} ({exec:?}) grouped");
        }
    }
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let serial = pool.install(|| {
        OomRunner::new(&g, algo, OomConfig::full())
            .with_device(device)
            .with_options(opts)
            .run(&seeds)
    });
    assert_eq!(
        serial.sample.sorted_instances(),
        mem,
        "{label} (1 thread) diverged from the engine"
    );
}

#[test]
fn oom_samples_exactly_match_the_engine_neighbor_sampling() {
    assert_exact_equivalence(
        &UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 },
        23,
        "unbiased neighbor sampling",
    );
    assert_exact_equivalence(
        &csaw::core::algorithms::BiasedNeighborSampling { neighbor_size: 2, depth: 3 },
        23,
        "biased neighbor sampling",
    );
    assert_exact_equivalence(
        &csaw::core::algorithms::ForestFire { pf: 0.6, depth: 3 },
        23,
        "forest fire",
    );
}

#[test]
fn oom_samples_exactly_match_the_engine_walks() {
    assert_exact_equivalence(&BiasedRandomWalk { length: 12 }, 27, "biased random walk");
    assert_exact_equivalence(
        &csaw::core::algorithms::RandomWalkWithRestart { length: 12, p_restart: 0.2 },
        27,
        "random walk with restart",
    );
    assert_exact_equivalence(
        &csaw::core::algorithms::MetropolisHastingsWalk { length: 12 },
        27,
        "metropolis-hastings walk",
    );
    // Second-order bias: `prev` must survive the outbox round trip.
    let node2vec = csaw::core::algorithms::Node2Vec { length: 10, p: 0.25, q: 2.0 };
    assert_exact_equivalence(&node2vec, 27, "node2vec");
    // The method policy reaches the out-of-memory kernels: under
    // `Adaptive` node2vec's dynamic bias is served by rejection, which
    // draws another (distribution-equal) sample than inverse transform.
    let adaptive = RunOptions { method_policy: MethodPolicy::Adaptive, ..Default::default() };
    assert_exact_equivalence_under(&node2vec, 27, "adaptive node2vec", adaptive.clone());
    let g = rmat(9, 6, RmatParams::GRAPH500, 27);
    let seeds: Vec<u32> = (0..48).map(|i| i * 13 % 512).collect();
    let its = Sampler::new(&g, &node2vec).run_single_seeds(&seeds);
    let rejection = Sampler::new(&g, &node2vec).with_options(adaptive).run_single_seeds(&seeds);
    assert_ne!(its.instances, rejection.instances, "Adaptive must change the draw");
}

#[test]
fn oom_respects_memory_budget() {
    // With 4 partitions and room for 2, at most 2 are ever resident, and
    // transfers happen; with room for all 4, each partition transfers at
    // most once.
    let g = rmat(9, 6, RmatParams::GRAPH500, 24);
    let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 };
    let seeds: Vec<u32> = (0..64).collect();

    let tight = OomRunner::new(&g, &algo, OomConfig::full()).run(&seeds);
    let roomy =
        OomRunner::new(&g, &algo, OomConfig { resident_partitions: 4, ..OomConfig::full() })
            .run(&seeds);
    assert!(roomy.transfers <= 4, "roomy device re-transfers: {}", roomy.transfers);
    assert!(tight.transfers >= roomy.transfers);
}

/// The host-parallel OOM runtime is deterministic **by construction**:
/// each stream task owns its partition's queue and visited shard, every
/// RNG draw is keyed by `(instance, depth, vertex)`, and cross-partition
/// frontier insertions are staged in per-stream outboxes merged at the
/// round barrier in fixed (stream, entry) order. The rayon pool size —
/// the only host switch, down to one thread that runs every stream task
/// in place — therefore cannot change any observable output, for both
/// the single-device scheduler and the multi-GPU driver. Every field is
/// compared bit-exactly, including the simulated timings.
#[test]
fn oom_runtime_is_deterministic_across_thread_counts() {
    use csaw::oom::{MultiGpu, MultiGpuOomOutput, OomOutput};
    let g = rmat(10, 6, RmatParams::GRAPH500, 26);
    let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 };
    let seeds: Vec<u32> = (0..96).map(|i| i * 11 % 1024).collect();

    let single = || {
        OomRunner::new(&g, &algo, OomConfig::full())
            .with_device(DeviceConfig::tiny(1 << 20))
            .run(&seeds)
    };
    let multi =
        || MultiGpu::new(3).run_oom(&g, &algo, &seeds, OomConfig::full(), RunOptions::default());
    let f64_bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<u64>>();

    // Reference: the ambient pool.
    let base = single();
    let base_mg = multi();

    let check = |o: &OomOutput, label: &str| {
        assert_eq!(o.sample.instances, base.sample.instances, "{label}: instances");
        assert_eq!(o.sample.stats, base.sample.stats, "{label}: stats");
        assert_eq!(o.transfers, base.transfers, "{label}: transfers");
        assert_eq!(o.rounds, base.rounds, "{label}: rounds");
        assert_eq!(
            o.sim_seconds.to_bits(),
            base.sim_seconds.to_bits(),
            "{label}: sim_seconds {} vs {}",
            o.sim_seconds,
            base.sim_seconds
        );
    };
    let check_mg = |o: &MultiGpuOomOutput, label: &str| {
        assert_eq!(o.sample.instances, base_mg.sample.instances, "{label}: instances");
        assert_eq!(o.transfers, base_mg.transfers, "{label}: transfers");
        assert_eq!(o.rounds, base_mg.rounds, "{label}: rounds");
        assert_eq!(
            f64_bits(&o.gpu_seconds),
            f64_bits(&base_mg.gpu_seconds),
            "{label}: gpu_seconds"
        );
    };

    // Pinned pool sizes — the RAYON_NUM_THREADS=1/2/default matrix,
    // expressed with explicit pools so one test process covers it all.
    for threads in [1usize, 2] {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let (o, m) = pool.install(|| (single(), multi()));
        check(&o, &format!("{threads}-thread pool"));
        check_mg(&m, &format!("{threads}-thread pool, multi-GPU"));
    }
}

#[test]
fn multi_gpu_and_oom_compose_with_engine_outputs() {
    use csaw::core::AlgoSpec;
    use csaw::oom::MultiGpu;
    let g = rmat(9, 4, RmatParams::MILD, 25);
    let seeds: Vec<u32> = (0..48).collect();

    // The split keys every group by the launch's `instance_base`, so
    // three devices draw exactly the engine's instances under a
    // non-default seed, an offset base and the `Adaptive` method policy
    // (rejection for node2vec's dynamic bias).
    let adaptive = RunOptions {
        seed: 77,
        instance_base: 1000,
        method_policy: MethodPolicy::Adaptive,
        ..Default::default()
    };
    let seed_sets: Vec<Vec<u32>> = seeds.iter().map(|&s| vec![s]).collect();
    for (name, depth) in [("simple-walk", 6), ("biased-walk", 5), ("neighbor", 2), ("node2vec", 10)]
    {
        let algo = AlgoSpec::by_name(name).unwrap().with_depth(depth).build().unwrap();
        let split = MultiGpu::new(3).run(&g, &algo, &seed_sets, adaptive.clone());
        let engine = Sampler::new(&g, &algo).with_options(adaptive.clone()).run(&seed_sets);
        assert_eq!(split.sample.instances, engine.instances, "{name}: split diverged");
        assert_eq!(split.sample.stats.sampled_edges, split.sample.sampled_edges());
        if name == "node2vec" {
            assert!(engine.stats.method_rejection > 0, "rejection never ran");
        }
    }

    // The out-of-memory split takes the caller's options whole: a
    // non-default seed and an outer instance base offset every group, so
    // the split equals one device running the same options.
    let algo = BiasedRandomWalk { length: 8 };
    let opts = RunOptions { seed: 77, instance_base: 1000, ..Default::default() };
    let device = DeviceConfig::tiny(1 << 20);
    let multi = MultiGpu { num_gpus: 3, device };
    let split = multi.run_oom(&g, &algo, &seeds, OomConfig::full(), opts.clone());
    let single =
        OomRunner::new(&g, &algo, OomConfig::full()).with_device(device).with_options(opts);
    let single = single.run(&seeds);
    assert_eq!(split.sample.instances, single.sample.instances);
    let default = multi.run_oom(&g, &algo, &seeds, OomConfig::full(), RunOptions::default());
    assert_ne!(
        split.sample.instances, default.sample.instances,
        "seed and base must reach every group"
    );
}

/// The §VII claim: partition-based out-of-memory sampling beats
/// demand paging on irregular access, with the same memory budget.
#[test]
fn partition_runtime_beats_unified_memory() {
    let g = rmat(12, 8, RmatParams::GRAPH500, 3);
    let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 };
    let seeds: Vec<u32> = (0..256).map(|i| i * 17 % 4096).collect();
    // Same budget: UM gets as many bytes as the partition runtime's
    // two resident partitions.
    let parts = csaw_graph::PartitionSet::equal_ranges(&g, 4);
    let budget: usize =
        parts.parts().iter().map(csaw_graph::Partition::size_bytes).max().unwrap() * 2;
    let um = UnifiedRunner::new(&g, &algo, DeviceConfig::tiny(budget)).run(&seeds);
    let csaw = OomRunner::new(&g, &algo, OomConfig::full())
        .with_device(DeviceConfig::tiny(budget))
        .run(&seeds);
    assert!(
        csaw.sim_seconds < um.sim_seconds,
        "partition runtime {} s must beat unified memory {} s",
        csaw.sim_seconds,
        um.sim_seconds
    );
}
