//! Determinism properties of depth-synchronous execution.
//!
//! The tentpole invariant: execution order is a *free variable*. Draws
//! are keyed by `(instance, depth, vertex, trial)` and the depth-sync
//! driver replays its sink traffic in flat order, so advancing all
//! instances in lockstep — at any chunk size, any prefetch distance —
//! must be **bit-identical** to the instance-major
//! schedule, per instance and in edge order. These properties fuzz that
//! claim across random graphs, seed multisets (duplicates included, so
//! walkers collide on vertices and share groups), chunk partitions, and
//! prefetch lookaheads. The schedule is the in-memory engine's alone: the
//! out-of-memory scheduler drains its partition queues entry by entry and
//! the sampling service launches instance-major.

use csaw::core::engine::{ExecMode, RunOptions, Sampler};
use csaw::core::AlgoSpec;
use csaw::gpu::stats::SimStats;
use csaw::graph::{Csr, CsrBuilder};
use proptest::prelude::*;

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
        // Both modeled, so the charge identity covers the cost model too.
        let reference = Sampler::new(&g, &algo)
            .modeled()
            .with_options(RunOptions { seed: rng_seed, ..Default::default() })
            .run(&seed_sets);
        let batched = Sampler::new(&g, &algo)
            .modeled()
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
}
