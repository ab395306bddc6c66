//! Figs. 13–15 — out-of-memory optimization study.
//!
//! Four applications (biased neighbor sampling, biased random walk,
//! forest fire, unbiased neighbor sampling) on all ten graphs — "for the
//! sake of analysis, we pretend small graphs do not fit in GPU memory" —
//! with 4 partitions, 2 kernels/streams, and room for 2 resident
//! partitions.
//!
//! - Fig. 13: speedup of BA / BA+WS / BA+WS+BAL over the unoptimized
//!   active-partition baseline (simulated end-to-end time incl. transfers).
//! - Fig. 14: kernel-time standard deviation (imbalance), normalized to
//!   the even-resource baseline.
//! - Fig. 15: partition transfer counts, active vs. workload-aware.

use crate::experiments::graph_for;
use crate::report::{f2, f3, Table};
use crate::scale::{seeds, Scale};
use csaw_core::algorithms::{
    BiasedNeighborSampling, BiasedRandomWalk, ForestFire, UnbiasedNeighborSampling,
};
use csaw_gpu::config::DeviceConfig;
use csaw_graph::datasets;
use csaw_graph::Csr;
use csaw_oom::scheduler::OomOutput;
use csaw_oom::{OomConfig, OomRunner};

/// The four Fig. 13 applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OomApp {
    /// Biased neighbor sampling (NS 2, depth 3).
    BiasedNs,
    /// Biased (degree) random walk, length 16 at Quick scale.
    BiasedWalk,
    /// Forest fire, Pf 0.7, depth 3.
    ForestFire,
    /// Unbiased neighbor sampling (NS 2, depth 3).
    UnbiasedNs,
}

impl OomApp {
    /// All four, in the paper's panel order.
    pub fn all() -> [OomApp; 4] {
        [OomApp::BiasedNs, OomApp::BiasedWalk, OomApp::ForestFire, OomApp::UnbiasedNs]
    }

    /// Panel label.
    pub fn label(&self) -> &'static str {
        match self {
            OomApp::BiasedNs => "biased-ns",
            OomApp::BiasedWalk => "biased-walk",
            OomApp::ForestFire => "forest-fire",
            OomApp::UnbiasedNs => "unbiased-ns",
        }
    }

    /// Runs the app through the OOM scheduler. The device's memory is
    /// sized by the runner so only `resident_partitions` partitions fit —
    /// the "pretend small graphs do not fit" device.
    pub fn run(&self, g: &Csr, s: &[u32], cfg: OomConfig) -> OomOutput {
        let dev = DeviceConfig::tiny(1 << 20);
        match self {
            OomApp::BiasedNs => {
                let a = BiasedNeighborSampling { neighbor_size: 2, depth: 3 };
                OomRunner::new(g, &a, cfg).with_device(dev).run(s)
            }
            OomApp::BiasedWalk => {
                let a = BiasedRandomWalk { length: 16 };
                OomRunner::new(g, &a, cfg).with_device(dev).run(s)
            }
            OomApp::ForestFire => {
                let a = ForestFire::paper(3);
                OomRunner::new(g, &a, cfg).with_device(dev).run(s)
            }
            OomApp::UnbiasedNs => {
                let a = UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 };
                OomRunner::new(g, &a, cfg).with_device(dev).run(s)
            }
        }
    }
}

/// Fig. 13: end-to-end speedup ladder.
pub fn fig13(scale: Scale) -> Vec<Table> {
    let mut tables = Vec::new();
    for app in OomApp::all() {
        let mut t = Table::new(
            format!("Fig. 13 - out-of-memory optimization speedup ({})", app.label()),
            &["graph", "baseline", "BA", "BA+WS", "BA+WS+BAL"],
        );
        for spec in datasets::ALL {
            let g = graph_for(&spec);
            let s = seeds(scale.oom_instances(), g.num_vertices());
            let times: Vec<f64> = OomConfig::figure13_ladder()
                .iter()
                .map(|(_, cfg)| app.run(&g, &s, *cfg).sim_seconds)
                .collect();
            let base = times[0];
            t.row(vec![
                spec.abbr.to_string(),
                f2(1.0),
                f2(base / times[1]),
                f2(base / times[2]),
                f2(base / times[3]),
            ]);
        }
        tables.push(t);
    }
    tables
}

/// Fig. 14: kernel-time standard deviation ratio vs. the even-resource
/// baseline (lower is better).
pub fn fig14(scale: Scale) -> Vec<Table> {
    let mut tables = Vec::new();
    for app in OomApp::all() {
        let mut t = Table::new(
            format!("Fig. 14 - kernel time imbalance, stddev ratio ({})", app.label()),
            &["graph", "baseline", "BA", "BA+BAL"],
        );
        for spec in datasets::ALL {
            let g = graph_for(&spec);
            let s = seeds(scale.oom_instances(), g.num_vertices());
            let base = app.run(&g, &s, OomConfig::baseline()).kernel_time_stddev();
            let ba = app.run(&g, &s, OomConfig::ba()).kernel_time_stddev();
            let bal = app
                .run(&g, &s, OomConfig { balanced: true, ..OomConfig::ba() })
                .kernel_time_stddev();
            let norm = base.max(1e-15);
            t.row(vec![spec.abbr.to_string(), f3(1.0), f3(ba / norm), f3(bal / norm)]);
        }
        tables.push(t);
    }
    tables
}

/// Fig. 15: partition transfer counts, active-partition order vs.
/// workload-aware scheduling (both batched; lower is better).
pub fn fig15(scale: Scale) -> Vec<Table> {
    let mut tables = Vec::new();
    for app in OomApp::all() {
        let mut t = Table::new(
            format!("Fig. 15 - partition transfers ({})", app.label()),
            &["graph", "active", "workload-aware", "reduction x"],
        );
        for spec in datasets::ALL {
            let g = graph_for(&spec);
            let s = seeds(scale.oom_instances(), g.num_vertices());
            let active = app.run(&g, &s, OomConfig::ba()).transfers;
            let ws = app.run(&g, &s, OomConfig::ba_ws()).transfers;
            t.row(vec![
                spec.abbr.to_string(),
                active.to_string(),
                ws.to_string(),
                f2(active as f64 / ws.max(1) as f64),
            ]);
        }
        tables.push(t);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_monotone_on_wg() {
        // The cumulative optimizations must not slow things down.
        let spec = datasets::by_abbr("WG").unwrap();
        let g = graph_for(&spec);
        let s = seeds(24, g.num_vertices());
        let app = OomApp::UnbiasedNs;
        let t: Vec<f64> = OomConfig::figure13_ladder()
            .iter()
            .map(|(_, cfg)| app.run(&g, &s, *cfg).sim_seconds)
            .collect();
        assert!(t[1] < t[0], "BA should beat baseline: {t:?}");
        assert!(t[2] <= t[1] * 1.05, "WS should not regress: {t:?}");
        assert!(t[3] <= t[2] * 1.05, "BAL should not regress: {t:?}");
    }

    #[test]
    fn all_apps_sample_through_oom() {
        let spec = datasets::by_abbr("AM").unwrap();
        let g = graph_for(&spec);
        let s = seeds(8, g.num_vertices());
        for app in OomApp::all() {
            let out = app.run(&g, &s, OomConfig::full());
            assert!(out.sample.sampled_edges() > 0, "{}", app.label());
            assert!(out.transfers > 0);
        }
    }
}
