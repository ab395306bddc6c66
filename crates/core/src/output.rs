//! Sampling output: per-instance sampled edges plus the counted work and
//! simulated timing the benchmarks consume.

use csaw_gpu::config::DeviceConfig;
use csaw_gpu::cost;
use csaw_gpu::stats::SimStats;
use csaw_graph::VertexId;

/// Result of running a sampler over a batch of instances — the one sample
/// type every GPU-model runtime returns (the in-memory engine directly;
/// the out-of-memory scheduler, the multi-GPU split and the
/// unified-memory comparator inside a result that adds only what their
/// cost models measure).
#[derive(Debug, Clone)]
pub struct SampleOutput {
    /// Sampled edges per instance: each instance yields one sampled
    /// subgraph (or walk path), in sampling order.
    pub instances: Vec<Vec<(VertexId, VertexId)>>,
    /// Merged work counters of the whole launch.
    pub stats: SimStats,
    /// Per-instance work counters, in instance order; each entry's
    /// `warp_cycles` is that instance's warp cycle count (imbalance
    /// analysis). `stats` is their field-wise sum. The serving layer
    /// slices these back to per-request accounting
    /// ([`SampleOutput::slice`]). Runtimes that cannot attribute work per
    /// instance (the OOM scheduler interleaves streams) leave entries
    /// with only `sampled_edges` filled, and `stats` alone carries the
    /// rest ([`SampleOutput::from_totals`]).
    pub instance_stats: Vec<SimStats>,
}

impl SampleOutput {
    /// An output with no instances (the identity of [`SampleOutput::extend`]).
    pub fn empty() -> SampleOutput {
        SampleOutput::from_instances(Vec::new(), Vec::new())
    }

    /// Assembles an output from per-instance pieces: each entry's
    /// `sampled_edges` is set from its instance (the kernels leave it at
    /// zero; the outputs are the ground truth) and `stats` is their sum.
    pub fn from_instances(
        instances: Vec<Vec<(VertexId, VertexId)>>,
        mut instance_stats: Vec<SimStats>,
    ) -> SampleOutput {
        assert_eq!(instances.len(), instance_stats.len(), "one counter set per instance");
        let mut stats = SimStats::new();
        for (s, inst) in instance_stats.iter_mut().zip(&instances) {
            s.sampled_edges = inst.len() as u64;
            stats.merge(s);
        }
        SampleOutput { instances, stats, instance_stats }
    }

    /// Assembles the output of a runtime that interleaves instances and so
    /// counts work only for the whole launch: `stats` is the launch's
    /// total (its `sampled_edges` set from the instances) and each
    /// per-instance entry carries only `sampled_edges`.
    pub fn from_totals(instances: Vec<Vec<(VertexId, VertexId)>>, stats: SimStats) -> SampleOutput {
        let blank = vec![SimStats::new(); instances.len()];
        let mut out = SampleOutput::from_instances(instances, blank);
        out.stats = SimStats { sampled_edges: out.stats.sampled_edges, ..stats };
        out
    }

    /// Clones out the contiguous instance range `range` as a standalone
    /// output: its `stats` are the sum of the sliced per-instance
    /// counters. This is how a micro-batching service turns one
    /// coalesced launch back into per-request responses.
    pub fn slice(&self, range: std::ops::Range<usize>) -> SampleOutput {
        let instance_stats: Vec<SimStats> = self.instance_stats[range.clone()].to_vec();
        let stats: SimStats = instance_stats.iter().copied().sum();
        SampleOutput { instances: self.instances[range].to_vec(), stats, instance_stats }
    }

    /// Splits the output into consecutive chunks of `counts` instances
    /// (must cover every instance exactly once), consuming `self`.
    pub fn split_by_counts(self, counts: &[usize]) -> Vec<SampleOutput> {
        assert_eq!(
            counts.iter().sum::<usize>(),
            self.instances.len(),
            "counts must partition the instances"
        );
        let mut parts = Vec::with_capacity(counts.len());
        let mut offset = 0;
        for &n in counts {
            parts.push(self.slice(offset..offset + n));
            offset += n;
        }
        parts
    }

    /// Appends another output's instances (stats merge).
    pub fn extend(&mut self, other: SampleOutput) {
        self.stats.merge(&other.stats);
        self.instances.extend(other.instances);
        self.instance_stats.extend(other.instance_stats);
    }

    /// Each instance's edges in sorted order: the canonical form to
    /// compare runtimes whose streams may emit an instance's edges in
    /// another order (the out-of-memory scheduler drains partitions, not
    /// instances).
    pub fn sorted_instances(&self) -> Vec<Vec<(VertexId, VertexId)>> {
        self.instances
            .iter()
            .map(|i| {
                let mut e = i.clone();
                e.sort_unstable();
                e
            })
            .collect()
    }

    /// Total sampled edges across instances.
    pub fn sampled_edges(&self) -> u64 {
        self.instances.iter().map(|i| i.len() as u64).sum()
    }

    /// Mean sampled edges per instance (the paper reports "each instance
    /// of sampled graphs has 1,703 edges on average" for its setup).
    pub fn edges_per_instance(&self) -> f64 {
        if self.instances.is_empty() {
            0.0
        } else {
            self.sampled_edges() as f64 / self.instances.len() as f64
        }
    }

    /// Simulated kernel time on `cfg`. Only a modeled run
    /// ([`crate::engine::Sampler::modeled`]) has one: a served run
    /// charges no cost model and has no kernel time to report.
    ///
    /// # Panics
    ///
    /// On a served output that sampled an edge.
    pub fn kernel_seconds(&self, cfg: &DeviceConfig) -> f64 {
        assert!(
            self.sampled_edges() == 0 || self.stats.warp_cycles > 0,
            "kernel time of a run served without a device model: call Sampler::modeled"
        );
        cost::gpu_kernel_seconds(&self.stats, cfg)
    }

    /// Sampled edges per second under the simulated kernel time — the
    /// paper's SEPS metric.
    pub fn seps(&self, cfg: &DeviceConfig) -> f64 {
        cost::seps(self.sampled_edges(), self.kernel_seconds(cfg))
    }

    /// Induces the sampled subgraph: the union of all instances' sampled
    /// edges over the touched vertices, relabeled densely. Returns the
    /// subgraph plus the mapping `new id -> original id`. This is the
    /// artifact downstream consumers (GNN trainers, estimators,
    /// visualizers) actually take from a sampler.
    pub fn induce_subgraph(&self) -> (csaw_graph::Csr, Vec<VertexId>) {
        use std::collections::HashMap;
        let mut fwd: HashMap<VertexId, VertexId> = HashMap::new();
        let mut back: Vec<VertexId> = Vec::new();
        let map = |v: VertexId, fwd: &mut HashMap<VertexId, VertexId>, back: &mut Vec<VertexId>| {
            *fwd.entry(v).or_insert_with(|| {
                back.push(v);
                (back.len() - 1) as VertexId
            })
        };
        let mut builder = csaw_graph::CsrBuilder::new();
        for inst in &self.instances {
            for &(v, u) in inst {
                let a = map(v, &mut fwd, &mut back);
                let b = map(u, &mut fwd, &mut back);
                builder = builder.add_edge(a, b);
            }
        }
        let g = builder.with_num_vertices(back.len()).build();
        (g, back)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SampleOutput {
        SampleOutput {
            instances: vec![vec![(0, 1), (1, 2)], vec![(3, 4)], vec![]],
            stats: SimStats { sampled_edges: 3, warp_cycles: 100, ..Default::default() },
            instance_stats: vec![
                SimStats { sampled_edges: 2, warp_cycles: 60, ..Default::default() },
                SimStats { sampled_edges: 1, warp_cycles: 40, ..Default::default() },
                SimStats::new(),
            ],
        }
    }

    #[test]
    fn edge_counts() {
        let s = sample();
        assert_eq!(s.sampled_edges(), 3);
        assert!((s.edges_per_instance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn seps_is_positive_for_work() {
        let s = sample();
        let cfg = DeviceConfig::v100();
        assert!(s.kernel_seconds(&cfg) > 0.0);
        assert!(s.seps(&cfg) > 0.0);
    }

    #[test]
    #[should_panic(expected = "served without a device")]
    fn a_served_output_has_no_kernel_time() {
        let s = sample();
        let served = SampleOutput { stats: s.stats.operational(), ..s };
        served.seps(&DeviceConfig::v100());
    }

    #[test]
    fn induce_subgraph_relabels_densely() {
        let s = sample();
        let (g, back) = s.induce_subgraph();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(back.len(), 5);
        // Every sampled edge exists in the subgraph under the mapping.
        let fwd: std::collections::HashMap<u32, u32> =
            back.iter().enumerate().map(|(i, &v)| (v, i as u32)).collect();
        for inst in &s.instances {
            for &(v, u) in inst {
                assert!(g.has_edge(fwd[&v], fwd[&u]));
            }
        }
        // Original ids recoverable.
        assert!(back.contains(&0) && back.contains(&4));
    }

    #[test]
    fn induce_subgraph_dedups_repeated_edges() {
        let s = SampleOutput {
            instances: vec![vec![(3, 9), (3, 9), (9, 3)]],
            stats: SimStats::new(),
            instance_stats: vec![SimStats::new()],
        };
        let (g, back) = s.induce_subgraph();
        assert_eq!(back.len(), 2);
        assert_eq!(g.num_edges(), 2, "one each direction after dedup");
    }

    #[test]
    fn empty_output() {
        let s = SampleOutput::empty();
        assert_eq!(s.edges_per_instance(), 0.0);
    }

    #[test]
    fn slice_carries_exact_per_instance_accounting() {
        let s = sample();
        let head = s.slice(0..1);
        assert_eq!(head.instances, vec![vec![(0, 1), (1, 2)]]);
        assert_eq!(head.stats.sampled_edges, 2);
        assert_eq!(head.stats.warp_cycles, 60);
        assert_eq!(head.instance_stats[0].warp_cycles, 60);
        let tail = s.slice(1..3);
        assert_eq!(tail.stats.sampled_edges, 1);
        assert_eq!(tail.stats.warp_cycles, 40);
        // The slices partition the whole: counters add back up.
        assert_eq!(head.stats.merged(tail.stats).sampled_edges, s.stats.sampled_edges);
    }

    #[test]
    fn split_by_counts_partitions_everything() {
        let parts = sample().split_by_counts(&[2, 1]);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].instances.len(), 2);
        assert_eq!(parts[1].instances.len(), 1);
        assert_eq!(parts[0].stats.sampled_edges, 3);
        assert_eq!(parts[1].stats.sampled_edges, 0);
    }

    #[test]
    #[should_panic(expected = "partition")]
    fn split_by_counts_rejects_partial_cover() {
        sample().split_by_counts(&[2]);
    }

    #[test]
    fn from_instances_and_extend_round_trip() {
        let s = sample();
        let mut rebuilt = SampleOutput::empty();
        for part in s.slice(0..3).split_by_counts(&[1, 1, 1]) {
            rebuilt.extend(part);
        }
        assert_eq!(rebuilt.instances, s.instances);
        assert_eq!(rebuilt.instance_stats, s.instance_stats);
        assert_eq!(rebuilt.stats.sampled_edges, 3);
        let direct = SampleOutput::from_instances(s.instances.clone(), s.instance_stats.clone());
        assert_eq!(direct.instance_stats, s.instance_stats);
        assert_eq!(direct.stats.warp_cycles, 100);
    }

    #[test]
    fn from_instances_fills_sampled_edges_from_the_instances() {
        let s = sample();
        let blank = vec![SimStats::new(); 3];
        let out = SampleOutput::from_instances(s.instances, blank);
        let per: Vec<u64> = out.instance_stats.iter().map(|st| st.sampled_edges).collect();
        assert_eq!(per, vec![2, 1, 0]);
        assert_eq!(out.stats.sampled_edges, 3);
    }

    #[test]
    fn from_totals_keeps_the_launch_total_and_per_instance_edge_counts() {
        let s = sample();
        let total = SimStats { warp_cycles: 100, rng_draws: 7, ..Default::default() };
        let out = SampleOutput::from_totals(s.instances, total);
        assert_eq!(out.stats, SimStats { sampled_edges: 3, ..total });
        for (st, inst) in out.instance_stats.iter().zip(&out.instances) {
            assert_eq!(*st, SimStats { sampled_edges: inst.len() as u64, ..SimStats::new() });
        }
        // A slice sums only what was attributed: the edge counts.
        assert_eq!(out.slice(0..2).stats, SimStats { sampled_edges: 3, ..SimStats::new() });
    }

    #[test]
    fn sorted_instances_sorts_within_each_instance_only() {
        let out = SampleOutput::from_totals(
            vec![vec![(2, 1), (0, 5), (0, 3)], vec![], vec![(9, 9), (1, 1)]],
            SimStats::new(),
        );
        assert_eq!(
            out.sorted_instances(),
            vec![vec![(0, 3), (0, 5), (2, 1)], vec![], vec![(1, 1), (9, 9)]]
        );
        assert_eq!(
            out.instances[0],
            vec![(2, 1), (0, 5), (0, 3)],
            "the output itself is untouched"
        );
    }
}
