//! The simulated device executor.
//!
//! C-SAW assigns one warp per SELECT instance and relies on thousands of
//! concurrent instances to saturate the GPU (§IV-A, "Inter-warp
//! Parallelism"). Here, warp tasks are data-parallel closures executed on a
//! rayon pool — the host threads play the role of SM warp schedulers and
//! work stealing mirrors the hardware's dynamic scheduling. Because every
//! task draws randomness from a counter-based stream keyed by its own id,
//! results are identical regardless of thread count or interleaving.

use crate::config::DeviceConfig;
use crate::cost;
use crate::stats::SimStats;
use rayon::prelude::*;

/// Result of a simulated kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchResult<T> {
    /// Per-warp outputs, in task order.
    pub outputs: Vec<T>,
    /// Per-task counters, in task order. Callers that attribute work to
    /// individual streams (the OOM runtime) read these; each entry's
    /// `warp_cycles` is that warp's cycle count (workload-imbalance
    /// analysis, Fig. 14).
    pub task_stats: Vec<SimStats>,
}

impl<T> LaunchResult<T> {
    /// Merged work counters: the field-wise sum of `task_stats`, summed
    /// on each call — a launch whose caller keeps only per-task counters
    /// never pays for it.
    pub fn stats(&self) -> SimStats {
        self.task_stats.iter().copied().sum()
    }

    /// Simulated kernel time on `cfg` with all device resources.
    pub fn kernel_seconds(&self, cfg: &DeviceConfig) -> f64 {
        cost::gpu_kernel_seconds(&self.stats(), cfg)
    }
}

/// A simulated GPU.
#[derive(Debug, Clone, Default)]
pub struct Device {
    /// Hardware parameters (cost model inputs).
    pub config: DeviceConfig,
}

impl Device {
    /// A V100-like device.
    pub fn v100() -> Self {
        Device { config: DeviceConfig::v100() }
    }

    /// Device with explicit config.
    pub fn with_config(config: DeviceConfig) -> Self {
        Device { config }
    }

    /// Launches one warp task per element of `tasks`. Each task returns its
    /// output and its private [`SimStats`]; the device merges the counters.
    pub fn launch<I, T, F>(&self, tasks: Vec<I>, kernel: F) -> LaunchResult<T>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> (T, SimStats) + Sync + Send,
    {
        self.launch_with(tasks, true, kernel)
    }

    /// [`Device::launch`] with an explicit host-execution mode. Results are
    /// collected in task order either way, so `parallel = false` produces
    /// bit-identical output to `parallel = true` — the serial path exists
    /// for reference runs and single-core hosts, not for different
    /// semantics. The OOM runtime routes its per-stream round tasks through
    /// this so streams share the device's stats merging.
    pub fn launch_with<I, T, F>(&self, tasks: Vec<I>, parallel: bool, kernel: F) -> LaunchResult<T>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> (T, SimStats) + Sync + Send,
    {
        // On one host thread the tasks run in place and their results
        // unzip straight into the two vectors; only a parallel launch
        // needs the intermediate pairs its workers collect.
        let (outputs, task_stats): (Vec<T>, Vec<SimStats>) =
            if parallel && rayon::current_num_threads() > 1 {
                let results: Vec<(T, SimStats)> =
                    tasks.into_par_iter().enumerate().map(|(i, task)| kernel(i, task)).collect();
                results.into_iter().unzip()
            } else {
                tasks.into_iter().enumerate().map(|(i, task)| kernel(i, task)).unzip()
            };
        LaunchResult { outputs, task_stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_merges_stats_in_task_order() {
        let dev = Device::v100();
        let res = dev.launch((0..100u64).collect(), |i, x| {
            let s = SimStats { warp_cycles: x + 1, selections: 1, ..Default::default() };
            (i as u64 * 2 + x, s)
        });
        assert_eq!(res.outputs.len(), 100);
        assert_eq!(res.outputs[3], 3 * 2 + 3);
        assert_eq!(res.stats().selections, 100);
        assert_eq!(res.stats().warp_cycles, (1..=100).sum::<u64>());
        assert_eq!(res.task_stats.len(), 100);
        assert_eq!(res.task_stats[9].warp_cycles, 10);
    }

    #[test]
    fn serial_and_parallel_launch_agree() {
        let dev = Device::v100();
        let kernel = |i: usize, x: u64| {
            let mut rng = crate::rng::Philox::for_task(11, x);
            let s = SimStats { warp_cycles: x + 3, rng_draws: 1, ..Default::default() };
            (rng.next_u64().wrapping_add(i as u64), s)
        };
        let par = dev.launch_with((0..200u64).collect(), true, kernel);
        let ser = dev.launch_with((0..200u64).collect(), false, kernel);
        assert_eq!(par.outputs, ser.outputs);
        assert_eq!(par.stats(), ser.stats());
        assert_eq!(par.task_stats, ser.task_stats);
    }

    #[test]
    fn empty_launch() {
        let dev = Device::v100();
        let res = dev.launch(Vec::<u32>::new(), |_, x| (x, SimStats::new()));
        assert!(res.outputs.is_empty());
        assert_eq!(res.stats(), SimStats::new());
    }

    #[test]
    fn kernel_seconds_positive_for_work() {
        let dev = Device::v100();
        let res = dev.launch(vec![(); 4], |_, _| {
            ((), SimStats { warp_cycles: 1000, gmem_bytes: 4096, ..Default::default() })
        });
        assert!(res.kernel_seconds(&dev.config) > 0.0);
    }

    #[test]
    fn deterministic_under_parallelism() {
        // Outputs must depend only on the task, not scheduling.
        let dev = Device::v100();
        let run = || {
            dev.launch((0..1000u64).collect(), |_, x| {
                let mut rng = crate::rng::Philox::for_task(9, x);
                (rng.next_u64(), SimStats::new())
            })
            .outputs
        };
        assert_eq!(run(), run());
    }
}
