//! Sampling as a service: many independent clients submit small
//! requests; the service coalesces them into multi-instance launches
//! (§V-C batching) without changing anyone's sample.
//!
//! Demonstrates the full surface: concurrent clients, request
//! validation, deadlines, per-request accounting, the solo-run
//! reproducibility contract, and the final stats ledger.
//!
//! ```text
//! cargo run --release --example sampling_service
//! ```

use csaw::core::engine::{RunOptions, Sampler};
use csaw::core::AlgoSpec;
use csaw::graph::generators::{rmat, RmatParams};
use csaw::service::{SamplingRequest, SamplingService, ServiceConfig, ServiceError};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let graph = Arc::new(rmat(12, 8, RmatParams::GRAPH500, 42));
    println!(
        "graph: rmat(12,8) — {} vertices, avg degree {:.1}",
        graph.num_vertices(),
        graph.avg_degree()
    );

    // Start paused so every client's requests are queued before the
    // batcher runs: the batches, and so this example's output, are the
    // same on every run.
    let svc = Arc::new(SamplingService::with_engine(
        Arc::clone(&graph),
        ServiceConfig {
            start_paused: true,
            batch_window: Duration::from_millis(2),
            max_batch_instances: 64,
            ..ServiceConfig::default()
        },
    ));

    // Eight client threads, each submitting walk requests with its own
    // seeds. Same algorithm + same RNG seed -> the service coalesces
    // across clients. Load-bearing collect: every client starts before
    // the first is joined, so they submit concurrently.
    let spec = AlgoSpec::by_name("biased-walk").unwrap().with_depth(12);
    #[allow(clippy::needless_collect)]
    let clients: Vec<_> = (0..8u32)
        .map(|c| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                (0..4u32)
                    .map(|r| {
                        let seeds: Vec<u32> =
                            (0..3).map(|j| (c * 97 + r * 13 + j) % (1 << 12)).collect();
                        let ticket = svc
                            .submit(SamplingRequest::new(spec, seeds.clone()))
                            .expect("valid request");
                        (seeds, ticket)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let tickets: Vec<_> = clients.into_iter().flat_map(|c| c.join().unwrap()).collect();
    svc.resume();

    let mut coalesced = 0usize;
    let mut total = 0usize;
    let mut verified = 0usize;
    for (seeds, ticket) in tickets {
        let resp = ticket.wait().expect("healthy workload");
        total += 1;
        if resp.stats.batch_requests > 1 {
            coalesced += 1;
        }
        // The reproducibility contract: a solo engine run at the
        // response's instance_base draws the identical sample.
        let algo = spec.build().unwrap();
        let solo = Sampler::new(&graph, &algo)
            .with_options(RunOptions {
                seed: 1,
                instance_base: resp.instance_base,
                ..RunOptions::default()
            })
            .run_single_seeds(&seeds);
        assert_eq!(resp.output.instances, solo.instances, "coalescing must be invisible");
        verified += 1;
    }
    println!("\n{total} requests served; {coalesced} rode a shared batch");
    println!("{verified}/{total} responses verified bit-identical to solo runs");

    // Bad requests are rejected up front with typed errors.
    let bad = svc.submit(SamplingRequest::new(spec, vec![u32::MAX]));
    println!("\nout-of-range seed   -> {}", bad.unwrap_err());
    let bad = svc.submit(SamplingRequest::new(spec.with_depth(0), vec![0]));
    println!("zero-length walk    -> {}", bad.unwrap_err());

    // Deadlines are enforced, never silently dropped.
    let doomed = svc
        .submit(SamplingRequest::new(spec, vec![1]).with_deadline(Duration::from_nanos(1)))
        .unwrap();
    match doomed.wait() {
        Err(ServiceError::Expired) => println!("1ns deadline        -> deadline expired"),
        other => panic!("expected expiry, got {other:?}"),
    }

    let svc = Arc::into_inner(svc).expect("clients joined");
    let snap = svc.shutdown();
    println!("\nfinal ledger:");
    println!("  submitted {:3}  accepted {:3}", snap.submitted, snap.accepted);
    println!(
        "  completed {:3}  expired  {:3}  rejected {:3}",
        snap.completed,
        snap.expired,
        snap.rejected_invalid + snap.rejected_queue_full + snap.rejected_shutdown
    );
    println!("  batches   {:3}  sampled edges {}", snap.batches, snap.sampled_edges);
    assert!(snap.fully_accounted(), "every request reaches exactly one terminal state");
    println!("  ledger balances: every request accounted exactly once");
}
