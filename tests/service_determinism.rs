//! The coalescing-invisibility property: however the service partitions
//! requests into batches — one per request, everything in one launch,
//! or anything between — every request's response is identical to a
//! solo engine run of its seeds at its assigned `instance_base`. This is the §V-C batching contract that makes the
//! service safe: RNG streams are keyed by global instance id, so the
//! batch around a request never changes what it samples.

use csaw::core::engine::{RunOptions, Sampler};
use csaw::core::{AlgoSpec, SampleOutput};
use csaw::graph::{Csr, CsrBuilder};
use csaw::service::{
    BatchExecutor, EngineExecutor, SamplingRequest, SamplingService, ServiceConfig,
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

/// The engine run under the `Adaptive` method policy, so the method and
/// rejection counters move.
struct Tuned(EngineExecutor);

impl BatchExecutor for Tuned {
    fn execute(
        &self,
        graph: &Csr,
        algo: &dyn csaw::core::api::Algorithm,
        seed_sets: &[Vec<u32>],
        opts: RunOptions,
    ) -> SampleOutput {
        let opts = RunOptions { method_policy: csaw::core::MethodPolicy::Adaptive, ..opts };
        self.0.execute(graph, algo, seed_sets, opts)
    }
}

/// The service's ledger takes every launch's whole-run totals from the
/// sample: six requests coalesced into one launch book exactly the
/// sampled-edge, method and rejection counters of that launch run
/// directly.
#[test]
fn engine_ledger_books_the_launch_totals() {
    use csaw::graph::generators::{rmat, RmatParams};

    let g = Arc::new(rmat(9, 6, RmatParams::GRAPH500, 27));
    let spec = AlgoSpec::by_name("node2vec").unwrap().with_depth(10);
    let seeds: Vec<u32> = (0..48u32).map(|i| i * 13 % 512).collect();
    let config =
        ServiceConfig { start_paused: true, max_batch_instances: 48, ..ServiceConfig::default() };
    let svc = SamplingService::new(Arc::clone(&g), Arc::new(Tuned(EngineExecutor)), config);
    #[allow(clippy::needless_collect)]
    let tickets: Vec<_> = seeds
        .chunks(8)
        .map(|c| svc.submit(SamplingRequest::new(spec, c.to_vec())).expect("valid request"))
        .collect();
    let base = tickets[0].instance_base();
    svc.resume();
    for ticket in tickets {
        ticket.wait().expect("healthy batch");
    }
    let s = svc.shutdown();
    assert_eq!(s.batches, 1, "the six requests share one launch");

    let algo = spec.build().unwrap();
    let seed_sets: Vec<Vec<u32>> = seeds.iter().map(|&v| vec![v]).collect();
    let opts = RunOptions {
        seed: SamplingRequest::new(spec, vec![0]).rng_seed,
        instance_base: base,
        ..RunOptions::default()
    };
    let launch = Tuned(EngineExecutor).execute(&g, &algo, &seed_sets, opts).stats;
    assert_eq!(
        (s.sampled_edges, s.method_its, s.method_rejection, s.rejection_trials),
        (launch.sampled_edges, launch.method_its, launch.method_rejection, launch.rejection_trials)
    );
    assert!(s.method_rejection > 0 && s.rejection_trials > 0, "{s:?}");
}
