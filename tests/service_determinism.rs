//! The coalescing-invisibility property: however the service partitions
//! requests into batches — one per request, everything in one launch,
//! or anything between, on any executor — every request's response is
//! identical to a solo engine run of its seeds at its assigned
//! `instance_base`. This is the §V-C batching contract that makes the
//! service safe: RNG streams are keyed by global instance id, so the
//! batch around a request never changes what it samples.

use csaw::core::engine::{RunOptions, Sampler};
use csaw::core::AlgoSpec;
use csaw::graph::{Csr, CsrBuilder};
use csaw::oom::OomConfig;
use csaw::service::{
    MultiGpuExecutor, OomExecutor, SamplingRequest, SamplingService, ServiceConfig,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const N: u32 = 60;

fn arb_graph() -> impl Strategy<Value = Csr> {
    prop::collection::vec((0u32..N, 0u32..N), 40..240).prop_map(|edges| {
        CsrBuilder::new().with_num_vertices(N as usize).symmetrize(true).extend_edges(edges).build()
    })
}

/// (algorithm index, seeds, rng_seed) per request.
fn arb_requests() -> impl Strategy<Value = Vec<(usize, Vec<u32>, u64)>> {
    prop::collection::vec((0usize..3, prop::collection::vec(0u32..N, 1..4), 1u64..3), 1..6)
}

fn algo_spec(choice: usize) -> AlgoSpec {
    match choice {
        0 => AlgoSpec::by_name("simple-walk").unwrap().with_depth(6),
        1 => AlgoSpec::by_name("biased-walk").unwrap().with_depth(5),
        _ => AlgoSpec::by_name("neighbor").unwrap().with_depth(2),
    }
}

/// Submits every request to a paused service, resumes, and returns
/// per-request `(spec, seeds, rng_seed, instance_base, instances)`.
#[allow(clippy::type_complexity)]
fn serve(
    svc: &SamplingService,
    requests: &[(usize, Vec<u32>, u64)],
) -> Vec<(AlgoSpec, Vec<u32>, u64, u32, Vec<Vec<(u32, u32)>>)> {
    // Load-bearing collect: every submit must land while the service is
    // paused (one admission batch); fusing with the wait loop below
    // would interleave submits past resume().
    #[allow(clippy::needless_collect)]
    let tickets: Vec<_> = requests
        .iter()
        .map(|(choice, seeds, rng_seed)| {
            let spec = algo_spec(*choice);
            let ticket = svc
                .submit(SamplingRequest::new(spec, seeds.clone()).with_rng_seed(*rng_seed))
                .expect("valid request");
            (spec, seeds.clone(), *rng_seed, ticket)
        })
        .collect();
    svc.resume();
    tickets
        .into_iter()
        .map(|(spec, seeds, rng_seed, ticket)| {
            let resp = ticket.wait().expect("no deadline, healthy algo");
            (spec, seeds, rng_seed, resp.instance_base, resp.output.instances)
        })
        .collect()
}

fn solo_reference(
    g: &Csr,
    spec: AlgoSpec,
    seeds: &[u32],
    rng_seed: u64,
    instance_base: u32,
) -> Vec<Vec<(u32, u32)>> {
    let algo = spec.build().unwrap();
    Sampler::new(g, &algo)
        .with_options(RunOptions { seed: rng_seed, instance_base, ..RunOptions::default() })
        .run_single_seeds(seeds)
        .instances
}

fn sorted(mut instances: Vec<Vec<(u32, u32)>>) -> Vec<Vec<(u32, u32)>> {
    for inst in &mut instances {
        inst.sort_unstable();
    }
    instances
}

fn paused(max_batch_instances: usize) -> ServiceConfig {
    ServiceConfig {
        start_paused: true,
        max_batch_instances,
        batch_window: Duration::from_millis(1),
        ..ServiceConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Engine executor: any batch partition (driven by
    /// `max_batch_instances`, including forced single-request batches)
    /// yields bit-identical per-request edges to solo runs.
    #[test]
    fn any_partition_matches_solo_runs(
        g in arb_graph(),
        requests in arb_requests(),
        max_batch in 1usize..10,
    ) {
        let g = Arc::new(g);
        let svc = SamplingService::with_engine(Arc::clone(&g), paused(max_batch));
        for (spec, seeds, rng_seed, base, served) in serve(&svc, &requests) {
            let solo = solo_reference(&g, spec, &seeds, rng_seed, base);
            prop_assert_eq!(&served, &solo, "batched run diverged from solo (base {})", base);
        }
        let snap = svc.shutdown();
        prop_assert!(snap.fully_accounted(), "{:?}", snap);
    }

    /// Multi-GPU executor: splitting each batch across simulated
    /// devices composes with coalescing — responses still match solo
    /// single-device runs exactly.
    #[test]
    fn multi_gpu_split_matches_solo_runs(
        g in arb_graph(),
        requests in arb_requests(),
        num_gpus in 2usize..5,
    ) {
        let g = Arc::new(g);
        let svc = SamplingService::new(
            Arc::clone(&g),
            Arc::new(MultiGpuExecutor::new(num_gpus)),
            paused(8),
        );
        for (spec, seeds, rng_seed, base, served) in serve(&svc, &requests) {
            let solo = solo_reference(&g, spec, &seeds, rng_seed, base);
            prop_assert_eq!(&served, &solo, "multi-GPU split diverged (base {})", base);
        }
        prop_assert!(svc.shutdown().fully_accounted());
    }

    /// Out-of-memory executor: the partition-streaming runtime samples
    /// the same per-instance edge multisets (stream interleaving may
    /// reorder edges within an instance, so comparison is order-free).
    #[test]
    fn oom_runtime_matches_solo_runs_as_multisets(
        g in arb_graph(),
        requests in arb_requests(),
    ) {
        let g = Arc::new(g);
        let svc = SamplingService::new(
            Arc::clone(&g),
            Arc::new(OomExecutor::new(OomConfig::full())),
            paused(16),
        );
        for (spec, seeds, rng_seed, base, served) in serve(&svc, &requests) {
            let solo = solo_reference(&g, spec, &seeds, rng_seed, base);
            prop_assert_eq!(sorted(served), sorted(solo), "OOM runtime diverged (base {})", base);
        }
        prop_assert!(svc.shutdown().fully_accounted());
    }

    /// Wire transport: responses fetched over the TCP codec — both the
    /// single-response path and the chunked streaming path — are
    /// bit-identical to solo engine runs at the reported instance base,
    /// and streamed chunks reassemble to exactly the unsplit response.
    #[test]
    fn wire_responses_match_solo_runs(
        g in arb_graph(),
        requests in arb_requests(),
        chunk in 1u32..4,
    ) {
        use csaw::serve::{Client, CsawServer, ServeConfig, WireAlgo};

        let g = Arc::new(g);
        let svc = SamplingService::with_engine(Arc::clone(&g), ServiceConfig::default());
        let server = CsawServer::start(
            svc,
            ServeConfig { metrics_addr: None, ..ServeConfig::default() },
        ).expect("bind loopback");
        let mut client = Client::connect(server.addr(), "prop").expect("connect");

        for (choice, seeds, rng_seed) in &requests {
            let spec = algo_spec(*choice);
            let wire_algo = match *choice {
                0 => WireAlgo::by_name("simple-walk").with_depth(6),
                1 => WireAlgo::by_name("biased-walk").with_depth(5),
                _ => WireAlgo::by_name("neighbor").with_depth(2),
            };

            let resp = client
                .sample(wire_algo.clone(), seeds.clone(), *rng_seed, None)
                .expect("wire sample");
            let solo = solo_reference(&g, spec, seeds, *rng_seed, resp.instance_base);
            prop_assert_eq!(
                &resp.instances, &solo,
                "wire response diverged from solo (base {})", resp.instance_base
            );

            let streamed = client
                .sample_streamed(wire_algo, seeds.clone(), *rng_seed, chunk, |_| {})
                .expect("streamed sample");
            let solo = solo_reference(&g, spec, seeds, *rng_seed, streamed.instance_base);
            prop_assert_eq!(
                &streamed.reassemble(), &solo,
                "reassembled stream diverged from solo (base {})", streamed.instance_base
            );
        }

        client.goodbye().expect("goodbye");
        prop_assert!(server.shutdown().stats().fully_accounted());
    }
}

/// The executor contract covers every run option: under the `Adaptive`
/// method policy (rejection sampling for node2vec's dynamic bias) the
/// engine, the multi-GPU split and the out-of-memory scheduler draw equal
/// samples.
#[test]
fn every_executor_honours_the_method_policy() {
    use csaw::core::algorithms::Node2Vec;
    use csaw::core::MethodPolicy;
    use csaw::graph::generators::{rmat, RmatParams};
    use csaw::service::{BatchExecutor, EngineExecutor};

    let g = rmat(9, 6, RmatParams::GRAPH500, 27);
    let algo = Node2Vec { length: 10, p: 0.25, q: 2.0 };
    let seed_sets: Vec<Vec<u32>> = (0..48).map(|i| vec![i * 13 % 512]).collect();
    let opts = RunOptions {
        method_policy: MethodPolicy::Adaptive,
        instance_base: 5,
        ..RunOptions::default()
    };
    let executors: [Box<dyn BatchExecutor>; 3] = [
        Box::new(EngineExecutor),
        Box::new(MultiGpuExecutor::new(3)),
        Box::new(OomExecutor::new(OomConfig::full())),
    ];
    let samples: Vec<Vec<Vec<(u32, u32)>>> = executors
        .iter()
        .map(|e| sorted(e.execute(&g, &algo, &seed_sets, opts.clone()).sample.instances))
        .collect();
    assert_eq!(samples[1], samples[0], "multi-GPU diverged from the engine");
    assert_eq!(samples[2], samples[0], "out-of-memory diverged from the engine");
    let its = EngineExecutor.execute(
        &g,
        &algo,
        &seed_sets,
        RunOptions { instance_base: 5, ..RunOptions::default() },
    );
    assert_ne!(sorted(its.sample.instances), samples[0], "Adaptive must change the draw");
}
