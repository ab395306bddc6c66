//! Out-of-memory runtime configuration (the Fig. 13 experiment knobs).

/// Switches for the three §V optimizations plus the experiment's fixed
/// structure ("we use 4 partitions for each graph and two CUDA streams...
/// assume the GPU memory can keep at most two partitions").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OomConfig {
    /// Number of contiguous vertex-range partitions.
    pub num_partitions: usize,
    /// Concurrent GPU kernels, each with its own CUDA stream.
    pub num_kernels: usize,
    /// How many partitions fit in device memory at once.
    pub resident_partitions: usize,
    /// Batched multi-instance sampling (BA, §V-C).
    pub batched: bool,
    /// Workload-aware partition scheduling (WS, §V-B).
    pub workload_aware: bool,
    /// Thread-block based workload balancing (BAL, §V-B).
    pub balanced: bool,
    /// Partition by edge count instead of vertex count (extension; the
    /// paper's §V-A scheme is equal vertex ranges). Ablated as A6.
    pub edge_balanced_partitions: bool,
}

impl OomConfig {
    /// The paper's experiment frame with no optimization: "partition
    /// transfer based on active partition without any optimization".
    pub fn baseline() -> Self {
        OomConfig {
            num_partitions: 4,
            num_kernels: 2,
            resident_partitions: 2,
            batched: false,
            workload_aware: false,
            balanced: false,
            edge_balanced_partitions: false,
        }
    }

    /// Baseline + batched multi-instance sampling.
    pub fn ba() -> Self {
        OomConfig { batched: true, ..Self::baseline() }
    }

    /// BA + workload-aware scheduling.
    pub fn ba_ws() -> Self {
        OomConfig { workload_aware: true, ..Self::ba() }
    }

    /// BA + WS + thread-block workload balancing — full C-SAW.
    pub fn full() -> Self {
        OomConfig { balanced: true, ..Self::ba_ws() }
    }

    /// The four Fig. 13 variants in presentation order, with labels.
    pub fn figure13_ladder() -> [(&'static str, OomConfig); 4] {
        [
            ("Baseline", Self::baseline()),
            ("BA", Self::ba()),
            ("BA+WS", Self::ba_ws()),
            ("BA+WS+BAL", Self::full()),
        ]
    }

    /// Validates structural sanity.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_partitions == 0 {
            return Err("need at least one partition".into());
        }
        if self.num_kernels == 0 {
            return Err("need at least one kernel".into());
        }
        if self.resident_partitions == 0 {
            return Err("need room for at least one resident partition".into());
        }
        if self.resident_partitions < self.num_kernels && self.num_partitions > 1 {
            return Err(format!(
                "{} kernels need at least as many resident partition slots (have {})",
                self.num_kernels, self.resident_partitions
            ));
        }
        Ok(())
    }
}

impl Default for OomConfig {
    fn default() -> Self {
        Self::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_cumulative() {
        let [b, ba, ws, full] = OomConfig::figure13_ladder().map(|(_, c)| c);
        assert!(!b.batched && !b.workload_aware && !b.balanced);
        assert!(ba.batched && !ba.workload_aware);
        assert!(ws.batched && ws.workload_aware && !ws.balanced);
        assert!(full.batched && full.workload_aware && full.balanced);
    }

    #[test]
    fn paper_frame() {
        let c = OomConfig::baseline();
        assert_eq!(c.num_partitions, 4);
        assert_eq!(c.num_kernels, 2);
        assert_eq!(c.resident_partitions, 2);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_shapes() {
        assert!(OomConfig { num_partitions: 0, ..OomConfig::baseline() }.validate().is_err());
        assert!(OomConfig { num_kernels: 0, ..OomConfig::baseline() }.validate().is_err());
        assert!(OomConfig { resident_partitions: 0, ..OomConfig::baseline() }.validate().is_err());
        assert!(OomConfig { num_kernels: 3, resident_partitions: 2, ..OomConfig::baseline() }
            .validate()
            .is_err());
    }
}
