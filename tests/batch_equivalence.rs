//! Determinism properties of depth-synchronous execution.
//!
//! The tentpole invariant: execution order is a *free variable*. Draws
//! are keyed by `(instance, depth, vertex, trial)` and the depth-sync
//! driver replays its sink traffic in flat order, so advancing all
//! instances in lockstep — at any chunk size, any prefetch distance, on
//! any executor — must be **bit-identical** to the instance-major
//! schedule, per instance and in edge order. These properties fuzz that
//! claim across random graphs, seed multisets (duplicates included, so
//! walkers collide on vertices and share groups), chunk partitions, and
//! prefetch lookaheads, through all three paths: the engine, the
//! out-of-memory scheduler, and the sampling service.

use csaw::core::engine::{ExecMode, RunOptions, Sampler};
use csaw::core::AlgoSpec;
use csaw::gpu::stats::SimStats;
use csaw::graph::{Csr, CsrBuilder};
use csaw::oom::{OomConfig, OomRunner};
use csaw::service::{SamplingRequest, SamplingService, ServiceConfig};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const N: u32 = 48;

fn arb_graph() -> impl Strategy<Value = Csr> {
    prop::collection::vec((0u32..N, 0u32..N), 40..200).prop_map(|edges| {
        CsrBuilder::new().with_num_vertices(N as usize).symmetrize(true).extend_edges(edges).build()
    })
}

/// Seed sets with repeats across instances: colliding walkers are what
/// exercise vertex grouping, shared builds, and trial-ordinal handoff.
fn arb_seed_sets() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0u32..N, 1..3), 1..12)
}

/// One uniform walk, one statically-biased walk (group-shareable CTPS),
/// one without-replacement expansion — the three SELECT shapes the
/// depth-sync driver treats differently.
fn algo_spec(choice: usize) -> AlgoSpec {
    match choice {
        0 => AlgoSpec::by_name("simple-walk").unwrap().with_depth(7),
        1 => AlgoSpec::by_name("biased-walk").unwrap().with_depth(6),
        _ => AlgoSpec::by_name("neighbor").unwrap().with_depth(2),
    }
}

/// Zeroes the counters that only depth-sync execution produces — the
/// *only* stats allowed to differ between the two schedules.
fn scrub(mut s: SimStats) -> SimStats {
    s.batch_groups = 0;
    s.batch_group_entries = 0;
    s.batch_group_hist = [0; 8];
    s.batch_prefetch_hits = 0;
    s.batch_prefetch_misses = 0;
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Engine path: `ExecMode::DepthSync` at any chunk size and prefetch
    /// distance reproduces the instance-major run exactly — same edges in
    /// the same order per instance, and charge-identical work counters
    /// modulo the `batch_*` observability.
    #[test]
    fn depth_sync_engine_is_bit_identical(
        g in arb_graph(),
        seed_sets in arb_seed_sets(),
        choice in 0usize..3,
        chunk in prop::option::of(1usize..8),
        prefetch in 0usize..12,
        rng_seed in 1u64..4,
    ) {
        let algo = algo_spec(choice).build().unwrap();
        let algo: &dyn csaw::core::api::Algorithm = algo.as_ref();
        let reference = Sampler::new(&g, &algo)
            .with_options(RunOptions { seed: rng_seed, ..Default::default() })
            .run(&seed_sets);
        let batched = Sampler::new(&g, &algo)
            .with_options(RunOptions {
                seed: rng_seed,
                exec: ExecMode::DepthSync,
                prefetch_distance: prefetch,
                batch_chunk: chunk,
                ..Default::default()
            })
            .run(&seed_sets);
        prop_assert_eq!(&batched.instances, &reference.instances,
            "depth-sync diverged (chunk {:?}, prefetch {})", chunk, prefetch);
        // Conservation of the new observability, then charge-identity.
        prop_assert_eq!(
            batched.stats.batch_prefetch_hits + batched.stats.batch_prefetch_misses,
            batched.stats.batch_groups
        );
        prop_assert_eq!(
            batched.stats.batch_group_hist.iter().sum::<u64>(),
            batched.stats.batch_groups
        );
        prop_assert_eq!(scrub(batched.stats), scrub(reference.stats));
        // Per-instance attribution still sums to the totals.
        let summed: SimStats = batched.instance_stats.iter().copied().sum();
        prop_assert_eq!(scrub(summed), scrub(batched.stats));
    }

    /// Out-of-memory path: the scheduler's grouped drain under
    /// `ExecMode::DepthSync` matches its instance-major drain exactly —
    /// ordered edges per instance, not just multisets, because the
    /// grouped drain replays sink traffic in drained-batch order.
    #[test]
    fn depth_sync_oom_drain_is_bit_identical(
        g in arb_graph(),
        seeds in prop::collection::vec(0u32..N, 4..24),
        choice in 0usize..3,
        rng_seed in 1u64..4,
        prefetch in 0usize..10,
    ) {
        let algo = algo_spec(choice).build().unwrap();
        let cfg = OomConfig::full();
        let run = |exec: ExecMode| {
            let opts =
                RunOptions { seed: rng_seed, exec, prefetch_distance: prefetch, ..Default::default() };
            OomRunner::new(&g, &algo, cfg).with_options(opts).run(&seeds)
        };
        let reference = run(ExecMode::InstanceMajor);
        let batched = run(ExecMode::DepthSync);
        prop_assert_eq!(&batched.sample.instances, &reference.sample.instances);
        prop_assert_eq!(scrub(batched.sample.stats), scrub(reference.sample.stats));
    }

    /// Service path: a service configured for depth-sync execution
    /// answers every request bit-identically to a solo instance-major
    /// engine run at the request's assigned instance base — coalescing
    /// and the schedule change compose without touching sampling.
    #[test]
    fn depth_sync_service_matches_instance_major_solo_runs(
        g in arb_graph(),
        requests in prop::collection::vec(
            (0usize..3, prop::collection::vec(0u32..N, 1..4), 1u64..3), 1..5),
        max_batch in 1usize..8,
    ) {
        let g = Arc::new(g);
        let svc = SamplingService::with_engine(Arc::clone(&g), ServiceConfig {
            start_paused: true,
            max_batch_instances: max_batch,
            batch_window: Duration::from_millis(1),
            exec: ExecMode::DepthSync,
            ..ServiceConfig::default()
        });
        // Submit everything in one paused admission batch, then resume.
        #[allow(clippy::needless_collect)]
        let tickets: Vec<_> = requests
            .iter()
            .map(|(choice, seeds, rng_seed)| {
                let spec = algo_spec(*choice);
                let t = svc
                    .submit(SamplingRequest::new(spec, seeds.clone()).with_rng_seed(*rng_seed))
                    .expect("valid request");
                (spec, seeds.clone(), *rng_seed, t)
            })
            .collect();
        svc.resume();
        for (spec, seeds, rng_seed, ticket) in tickets {
            let resp = ticket.wait().expect("healthy algo, no deadline");
            let algo = spec.build().unwrap();
            let solo = Sampler::new(&g, &algo)
                .with_options(RunOptions {
                    seed: rng_seed,
                    instance_base: resp.instance_base,
                    ..Default::default()
                })
                .run_single_seeds(&seeds);
            prop_assert_eq!(&resp.output.instances, &solo.instances,
                "depth-sync service diverged from solo (base {})", resp.instance_base);
        }
        let snap = svc.shutdown();
        prop_assert!(snap.fully_accounted(), "{:?}", snap);
    }
}
