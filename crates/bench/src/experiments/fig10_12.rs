//! Figs. 10–12 — in-memory optimization study.
//!
//! Four applications (biased neighbor sampling, forest fire, layer
//! sampling, unbiased neighbor sampling) on the eight in-memory graphs,
//! with the paper's parameters: 2,000 instances (scaled), NeighborSize 2,
//! Depth 2, forest fire Pf = 0.7.
//!
//! - Fig. 10: speedup of updated sampling / bipartite region search /
//!   bipartite + bitmap over repeated sampling.
//! - Fig. 11: average SELECT iterations, baseline vs. bipartite.
//! - Fig. 12: total collision searches, bitmap ÷ linear-search baseline.

use crate::experiments::{graph_for, weighted_graph_for};
use crate::report::{f2, f3, Table};
use crate::scale::{seeds, Scale};
use csaw_core::algorithms::{
    BiasedNeighborSampling, ForestFire, LayerSampling, UnbiasedNeighborSampling,
};
use csaw_core::api::Algorithm;
use csaw_core::collision::DetectorKind;
use csaw_core::engine::{RunOptions, Sampler};
use csaw_core::select::{SelectConfig, SelectStrategy};
use csaw_core::SampleOutput;
use csaw_gpu::config::DeviceConfig;
use csaw_graph::datasets;
use csaw_graph::Csr;

/// The four Fig. 10 applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// Biased neighbor sampling (NS = 2, depth 2).
    BiasedNs,
    /// Forest fire (Pf = 0.7, depth 2).
    ForestFire,
    /// Layer sampling (layer budget 2, depth 2).
    Layer,
    /// Unbiased neighbor sampling (NS = 2, depth 2).
    UnbiasedNs,
}

impl App {
    /// All four, in the paper's panel order.
    pub fn all() -> [App; 4] {
        [App::BiasedNs, App::ForestFire, App::Layer, App::UnbiasedNs]
    }

    /// Panel label.
    pub fn label(&self) -> &'static str {
        match self {
            App::BiasedNs => "biased-ns",
            App::ForestFire => "forest-fire",
            App::Layer => "layer",
            App::UnbiasedNs => "unbiased-ns",
        }
    }

    /// Picks the graph variant the app samples: biased neighbor sampling
    /// is weight-biased, so it runs on the weighted stand-in whose
    /// heavy-tailed weights preserve the within-pool skew of the
    /// full-size graphs; the others use the unweighted stand-in.
    pub fn graph(&self, spec: &csaw_graph::datasets::DatasetSpec) -> std::sync::Arc<Csr> {
        match self {
            App::BiasedNs => weighted_graph_for(spec),
            _ => graph_for(spec),
        }
    }

    /// Runs the app with the given SELECT configuration and returns the
    /// output (paper parameters: NS 2, depth 2, Pf 0.7).
    pub fn run(&self, g: &Csr, seed_vertices: &[u32], select: SelectConfig) -> SampleOutput {
        let opts = RunOptions { seed: 0x0F16, select, ..Default::default() };
        let algo: Box<dyn Algorithm> = match self {
            App::BiasedNs => Box::new(BiasedNeighborSampling { neighbor_size: 2, depth: 2 }),
            App::ForestFire => Box::new(ForestFire::paper(2)),
            App::Layer => Box::new(LayerSampling { layer_size: 2, depth: 2 }),
            App::UnbiasedNs => Box::new(UnbiasedNeighborSampling { neighbor_size: 2, depth: 2 }),
        };
        // Every figure this runs for reads the modeled kernel time.
        let algo = algo.as_ref();
        Sampler::new(g, &algo).modeled().with_options(opts).run_single_seeds(seed_vertices)
    }
}

/// The four Fig. 10 SELECT configurations, in presentation order.
pub fn fig10_configs() -> [(&'static str, SelectConfig); 4] {
    [
        (
            "repeated",
            SelectConfig {
                strategy: SelectStrategy::Repeated,
                detector: DetectorKind::LinearSearch,
            },
        ),
        (
            "updated",
            SelectConfig {
                strategy: SelectStrategy::Updated,
                detector: DetectorKind::LinearSearch,
            },
        ),
        (
            "bipartite",
            SelectConfig {
                strategy: SelectStrategy::Bipartite,
                detector: DetectorKind::LinearSearch,
            },
        ),
        (
            "bipartite+bitmap",
            SelectConfig {
                strategy: SelectStrategy::Bipartite,
                detector: DetectorKind::StridedBitmap { word_bits: 8 },
            },
        ),
    ]
}

/// Fig. 10: per-app speedup of each configuration over repeated sampling
/// (simulated kernel time).
pub fn fig10(scale: Scale) -> Vec<Table> {
    let dev = DeviceConfig::v100();
    let mut tables = Vec::new();
    for app in App::all() {
        let mut t = Table::new(
            format!("Fig. 10 - in-memory optimization speedup ({})", app.label()),
            &["graph", "repeated", "updated", "bipartite", "bipartite+bitmap"],
        );
        for spec in datasets::in_memory() {
            let g = app.graph(&spec);
            let s = seeds(scale.sampling_instances(), g.num_vertices());
            let times: Vec<f64> = fig10_configs()
                .iter()
                .map(|(_, cfg)| app.run(&g, &s, *cfg).kernel_seconds(&dev))
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

/// Fig. 11: average iterations per selection, repeated (baseline) vs.
/// bipartite region search.
pub fn fig11(scale: Scale) -> Vec<Table> {
    let mut tables = Vec::new();
    for app in App::all() {
        let mut t = Table::new(
            format!("Fig. 11 - avg # SELECT iterations ({})", app.label()),
            &["graph", "baseline", "bipartite", "reduction x"],
        );
        for spec in datasets::in_memory() {
            let g = app.graph(&spec);
            let s = seeds(scale.sampling_instances(), g.num_vertices());
            let base = app.run(
                &g,
                &s,
                SelectConfig {
                    strategy: SelectStrategy::Repeated,
                    detector: DetectorKind::LinearSearch,
                },
            );
            let bip = app.run(
                &g,
                &s,
                SelectConfig {
                    strategy: SelectStrategy::Bipartite,
                    detector: DetectorKind::LinearSearch,
                },
            );
            let (b, p) =
                (base.stats.iterations_per_selection(), bip.stats.iterations_per_selection());
            t.row(vec![spec.abbr.to_string(), f3(b), f3(p), f2(b / p.max(1e-12))]);
        }
        tables.push(t);
    }
    tables
}

/// Fig. 12: total collision searches of the bitmap relative to the
/// linear-search baseline (both under bipartite region search).
pub fn fig12(scale: Scale) -> Vec<Table> {
    let mut tables = Vec::new();
    for app in App::all() {
        let mut t = Table::new(
            format!("Fig. 12 - collision-search reduction by bitmap ({})", app.label()),
            &["graph", "linear searches", "bitmap searches", "ratio"],
        );
        for spec in datasets::in_memory() {
            let g = app.graph(&spec);
            let s = seeds(scale.sampling_instances(), g.num_vertices());
            let lin = app.run(
                &g,
                &s,
                SelectConfig {
                    strategy: SelectStrategy::Bipartite,
                    detector: DetectorKind::LinearSearch,
                },
            );
            let bm = app.run(
                &g,
                &s,
                SelectConfig {
                    strategy: SelectStrategy::Bipartite,
                    detector: DetectorKind::StridedBitmap { word_bits: 8 },
                },
            );
            let (l, b) = (lin.stats.collision_searches as f64, bm.stats.collision_searches as f64);
            t.row(vec![
                spec.abbr.to_string(),
                format!("{l:.0}"),
                format!("{b:.0}"),
                f3(b / l.max(1.0)),
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
    fn apps_run_on_a_small_graph() {
        let spec = datasets::by_abbr("AM").unwrap();
        let g = graph_for(&spec);
        let s = seeds(16, g.num_vertices());
        for app in App::all() {
            let out = app.run(&g, &s, SelectConfig::paper_best());
            assert!(out.sampled_edges() > 0, "{}", app.label());
        }
    }

    /// The Fig. 10/11 claims at smoke scale: bipartite needs no more
    /// iterations than repeated, and bitmap needs fewer searches than
    /// linear.
    #[test]
    fn optimization_directions_hold() {
        let spec = datasets::by_abbr("AM").unwrap();
        let g = graph_for(&spec);
        let s = seeds(64, g.num_vertices());
        let app = App::BiasedNs;
        let rep = app.run(
            &g,
            &s,
            SelectConfig {
                strategy: SelectStrategy::Repeated,
                detector: DetectorKind::LinearSearch,
            },
        );
        let bip = app.run(
            &g,
            &s,
            SelectConfig {
                strategy: SelectStrategy::Bipartite,
                detector: DetectorKind::LinearSearch,
            },
        );
        assert!(
            bip.stats.iterations_per_selection() <= rep.stats.iterations_per_selection() + 1e-9
        );
        let bm = app.run(
            &g,
            &s,
            SelectConfig {
                strategy: SelectStrategy::Bipartite,
                detector: DetectorKind::StridedBitmap { word_bits: 8 },
            },
        );
        assert!(bm.stats.collision_searches <= bip.stats.collision_searches);
    }
}
