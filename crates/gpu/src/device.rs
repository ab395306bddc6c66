//! Host fan-out of warp tasks.
//!
//! C-SAW assigns one warp per SELECT instance and relies on thousands of
//! concurrent instances to saturate the GPU (§IV-A, "Inter-warp
//! Parallelism"). Here, warp tasks are data-parallel closures executed on a
//! rayon pool — the host threads play the role of SM warp schedulers and
//! work stealing mirrors the hardware's dynamic scheduling. Because every
//! task draws randomness from a counter-based stream keyed by its own id,
//! results are identical regardless of thread count or interleaving. The
//! pool's thread count is the only switch: what a launch costs on a
//! modeled device is computed from the returned counters by
//! [`crate::cost`], not here.

use crate::stats::SimStats;
use rayon::prelude::*;

/// Runs one warp task per element of `tasks` on the current rayon pool.
/// Each task returns its output and its private [`SimStats`]; both come
/// back in task order, whatever the host scheduling.
///
/// On a one-thread pool the tasks run in place and their results unzip
/// straight into the two vectors. Collecting `(T, SimStats)` pairs first
/// and unzipping them afterwards holds a third vector as large as both
/// at once, which raised a served one-thread walk's peak RSS by 7.7%;
/// only a multi-thread launch needs the pairs its workers collect.
pub fn launch<I, T, F>(tasks: Vec<I>, kernel: F) -> (Vec<T>, Vec<SimStats>)
where
    I: Send,
    T: Send,
    F: Fn(I) -> (T, SimStats) + Sync + Send,
{
    if rayon::current_num_threads() > 1 {
        let results: Vec<(T, SimStats)> = tasks.into_par_iter().map(kernel).collect();
        results.into_iter().unzip()
    } else {
        tasks.into_iter().map(kernel).unzip()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_keeps_task_order() {
        let (outputs, stats) = launch((0..100u64).collect(), |x| {
            (x * 2, SimStats { warp_cycles: x + 1, ..Default::default() })
        });
        assert_eq!(outputs, (0..100u64).map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(
            stats.iter().map(|s| s.warp_cycles).collect::<Vec<_>>(),
            (1..=100).collect::<Vec<_>>()
        );
    }

    #[test]
    fn one_and_four_thread_pools_agree() {
        let kernel = |x: u64| {
            let mut rng = crate::rng::Philox::for_task(11, x);
            (rng.next_u64(), SimStats { warp_cycles: x + 3, rng_draws: 1, ..Default::default() })
        };
        let on = |threads| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| launch((0..200u64).collect(), kernel))
        };
        assert_eq!(on(1), on(4));
    }
}
