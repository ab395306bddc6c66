//! The coalescing-invisibility property: however the service partitions
//! requests into batches — one per request, everything in one launch,
//! or anything between, on any executor — every request's response is
//! identical to a solo engine run of its seeds at its assigned
//! `instance_base`. This is the §V-C batching contract that makes the
//! service safe: RNG streams are keyed by global instance id, so the
//! batch around a request never changes what it samples.

use csaw::core::engine::{RunOptions, Sampler};
use csaw::core::{AlgoSpec, SampleOutput};
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
/// per-request `(spec, seeds, rng_seed, instance_base, output)`.
fn serve(
    svc: &SamplingService,
    requests: &[(usize, Vec<u32>, u64)],
) -> Vec<(AlgoSpec, Vec<u32>, u64, u32, SampleOutput)> {
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
            (spec, seeds, rng_seed, resp.instance_base, resp.output)
        })
        .collect()
}

fn solo_reference(
    g: &Csr,
    spec: AlgoSpec,
    seeds: &[u32],
    rng_seed: u64,
    instance_base: u32,
) -> SampleOutput {
    let algo = spec.build().unwrap();
    Sampler::new(g, &algo)
        .with_options(RunOptions { seed: rng_seed, instance_base, ..RunOptions::default() })
        .run_single_seeds(seeds)
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
            prop_assert_eq!(&served.instances, &solo.instances, "batched run diverged from solo (base {})", base);
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
            prop_assert_eq!(&served.instances, &solo.instances, "multi-GPU split diverged (base {})", base);
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
            prop_assert_eq!(served.sorted_instances(), solo.sorted_instances(), "OOM runtime diverged (base {})", base);
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
                &resp.instances, &solo.instances,
                "wire response diverged from solo (base {})", resp.instance_base
            );

            let streamed = client
                .sample_streamed(wire_algo, seeds.clone(), *rng_seed, chunk, |_| {})
                .expect("streamed sample");
            let solo = solo_reference(&g, spec, seeds, *rng_seed, streamed.instance_base);
            prop_assert_eq!(
                &streamed.reassemble(), &solo.instances,
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
        .map(|e| e.execute(&g, &algo, &seed_sets, opts.clone()).sample.sorted_instances())
        .collect();
    assert_eq!(samples[1], samples[0], "multi-GPU diverged from the engine");
    assert_eq!(samples[2], samples[0], "out-of-memory diverged from the engine");
    let its = EngineExecutor.execute(
        &g,
        &algo,
        &seed_sets,
        RunOptions { instance_base: 5, ..RunOptions::default() },
    );
    assert_ne!(its.sample.sorted_instances(), samples[0], "Adaptive must change the draw");
}

/// An executor run under the `Adaptive` method policy and a fixed
/// depth-sync chunk that divides every multi-GPU group, so the method,
/// rejection and vertex-group counters all move and a split launch
/// groups exactly as the whole one.
struct Tuned(Box<dyn csaw::service::BatchExecutor>);

impl csaw::service::BatchExecutor for Tuned {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn execute(
        &self,
        graph: &Csr,
        algo: &dyn csaw::core::api::Algorithm,
        seed_sets: &[Vec<u32>],
        opts: RunOptions,
    ) -> csaw::service::BatchOutput {
        let opts = RunOptions {
            method_policy: csaw::core::MethodPolicy::Adaptive,
            batch_chunk: Some(8),
            ..opts
        };
        self.0.execute(graph, algo, seed_sets, opts)
    }
}

/// The service's ledger takes every launch's whole-run totals from the
/// sample, whichever runtime served it: one identical batch through the
/// engine and the multi-GPU split books the same counters, and through
/// the out-of-memory scheduler (which attributes only edge counts per
/// instance) the same edges plus its transfers.
#[test]
fn every_executor_books_the_launch_totals() {
    use csaw::core::ExecMode;
    use csaw::graph::generators::{rmat, RmatParams};
    use csaw::service::{BatchExecutor, EngineExecutor, StatsSnapshot};

    let g = Arc::new(rmat(9, 6, RmatParams::GRAPH500, 27));
    let spec = AlgoSpec::by_name("node2vec").unwrap().with_depth(10);
    let ledger = |executor: Box<dyn BatchExecutor>| {
        let config = ServiceConfig {
            start_paused: true,
            max_batch_instances: 48,
            exec: ExecMode::DepthSync,
            ..ServiceConfig::default()
        };
        let svc = SamplingService::new(Arc::clone(&g), Arc::new(Tuned(executor)), config);
        #[allow(clippy::needless_collect)]
        let tickets: Vec<_> = (0..6u32)
            .map(|r| {
                let seeds = (0..8).map(|i| (r * 8 + i) * 13 % 512).collect();
                svc.submit(SamplingRequest::new(spec, seeds)).expect("valid request")
            })
            .collect();
        svc.resume();
        for ticket in tickets {
            ticket.wait().expect("healthy batch");
        }
        let stats = svc.shutdown();
        assert_eq!(stats.batches, 1, "the six requests share one launch");
        stats
    };
    let counters = |s: &StatsSnapshot| {
        (
            (s.sampled_edges, s.method_its, s.method_rejection, s.rejection_trials),
            (s.batch_hist, s.batch_groups, s.batch_group_entries, s.batch_group_hist),
            (s.batch_prefetch_hits, s.batch_prefetch_misses),
        )
    };
    let engine = ledger(Box::new(EngineExecutor));
    let multi = ledger(Box::new(MultiGpuExecutor::new(3)));
    assert_eq!(counters(&multi), counters(&engine));
    assert_eq!((engine.transfers, multi.transfers), (0, 0));
    assert!(engine.method_rejection > 0 && engine.rejection_trials > 0, "{engine:?}");
    assert!(engine.batch_groups > 0, "{engine:?}");

    let oom = ledger(Box::new(OomExecutor::new(OomConfig::full())));
    assert_eq!(oom.sampled_edges, engine.sampled_edges);
    assert!(oom.transfers > 0 && oom.bytes_transferred > 0, "{oom:?}");
    // Its per-instance entries carry edge counts only: the method
    // counters reach the ledger from the launch totals alone.
    assert!(oom.method_rejection > 0 && oom.rejection_trials > 0, "{oom:?}");
}
