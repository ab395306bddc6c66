//! Hardware configuration for the simulated device and the CPU cost model.
//!
//! Defaults mirror the paper's testbed: Summit nodes with NVIDIA Tesla V100
//! GPUs (16 GB HBM2 at 900 GB/s) and dual-socket 22-core POWER9 CPUs at
//! 170 GB/s (§VI, "the unprecedented bandwidth of the V100 GPU over the
//! POWER9 CPU, i.e., 900 GB/s vs. 170 GB/s").

/// Simulated GPU parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceConfig {
    /// Streaming multiprocessors.
    pub num_sms: usize,
    /// Resident warps per SM the scheduler can overlap (occupancy-limited).
    pub warps_per_sm: usize,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Device memory bandwidth in GB/s (HBM2).
    pub hbm_gbps: f64,
    /// Host-to-device bandwidth in GB/s (PCIe gen3 x16 effective).
    pub pcie_gbps: f64,
    /// Device memory capacity in bytes.
    pub memory_bytes: usize,
    /// Warps per thread block (a 256-thread block = 8 warps), used when
    /// kernels are granted resources in thread-block units (§V-B).
    pub warps_per_block: usize,
}

impl DeviceConfig {
    /// NVIDIA Tesla V100-SXM2 16 GB, as on Summit.
    pub fn v100() -> Self {
        DeviceConfig {
            num_sms: 80,
            warps_per_sm: 8,
            clock_ghz: 1.53,
            hbm_gbps: 900.0,
            pcie_gbps: 16.0,
            memory_bytes: 16 * (1 << 30),
            warps_per_block: 8,
        }
    }

    /// A deliberately tiny device for out-of-memory experiments on the
    /// scaled datasets: capacity is set so that 2 of 4 partitions of the
    /// stand-in giants fit at once, matching the paper's Fig. 13 setup
    /// ("assume the GPU memory can keep at most two partitions").
    pub fn tiny(memory_bytes: usize) -> Self {
        DeviceConfig { memory_bytes, ..Self::v100() }
    }

    /// Total concurrently executing warps.
    pub fn total_warps(&self) -> usize {
        self.num_sms * self.warps_per_sm
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self::v100()
    }
}

/// CPU parameters for the baseline (KnightKing / GraphSAINT) cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuConfig {
    /// Hardware threads used by the baseline (paper: `# threads = # cores`).
    pub threads: usize,
    /// Clock in GHz.
    pub clock_ghz: f64,
    /// Memory bandwidth in GB/s.
    pub mem_gbps: f64,
    /// Scalar operations retired per cycle per thread (superscalar factor;
    /// graph sampling is latency-bound so this stays small).
    pub ops_per_cycle: f64,
    /// Effective cost of one dependent random memory access in
    /// nanoseconds, after memory-level parallelism — the term that
    /// dominates pointer-chasing walk baselines ("extreme randomness puts
    /// the large caches of CPU in vein", §III-A).
    pub random_access_ns: f64,
}

impl CpuConfig {
    /// Dual-socket 22-core POWER9, as on Summit.
    pub fn power9() -> Self {
        CpuConfig {
            threads: 44,
            clock_ghz: 3.1,
            mem_gbps: 170.0,
            ops_per_cycle: 1.0,
            random_access_ns: 60.0,
        }
    }
}

impl Default for CpuConfig {
    fn default() -> Self {
        Self::power9()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_matches_paper_numbers() {
        let c = DeviceConfig::v100();
        assert_eq!(c.memory_bytes, 16 * 1024 * 1024 * 1024);
        assert_eq!(c.hbm_gbps, 900.0);
        assert_eq!(c.num_sms, 80);
    }

    #[test]
    fn derived_throughputs() {
        let c = DeviceConfig::v100();
        assert_eq!(c.total_warps(), 640);
    }

    #[test]
    fn tiny_overrides_memory_only() {
        let c = DeviceConfig::tiny(1000);
        assert_eq!(c.memory_bytes, 1000);
        assert_eq!(c.num_sms, DeviceConfig::v100().num_sms);
    }

    #[test]
    fn power9_bandwidth_ratio() {
        // The paper's headline bandwidth argument: 900 vs 170 GB/s.
        let g = DeviceConfig::v100();
        let c = CpuConfig::power9();
        assert!((g.hbm_gbps / c.mem_gbps - 900.0 / 170.0).abs() < 1e-9);
    }
}
