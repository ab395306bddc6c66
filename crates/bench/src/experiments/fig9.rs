//! Fig. 9 — C-SAW vs. the state of the art.
//!
//! (a) biased random walk vs. KnightKing, (b) multi-dimensional random
//! walk vs. GraphSAINT; million sampled edges per second, 1 GPU and
//! 6 GPUs (higher is better).

use crate::experiments::graph_for;
use crate::report::{f2, mega, Table};
use crate::scale::{seeds, Scale};
use csaw_baselines::knightking::WalkBias;
use csaw_baselines::{GraphSaintMdrw, KnightKing};
use csaw_core::algorithms::{BiasedRandomWalk, MultiDimRandomWalk, Node2Vec};
use csaw_core::engine::RunOptions;
#[cfg(test)]
use csaw_core::engine::Sampler;
use csaw_gpu::config::CpuConfig;
use csaw_graph::datasets;
use csaw_oom::MultiGpu;

/// Fig. 9a: biased random walk, C-SAW (1 and 6 GPUs) vs. KnightKing.
pub fn fig9a(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "Fig. 9a - C-SAW vs KnightKing, biased random walk (Million SEPS)",
        &["graph", "KnightKing", "C-SAW 1GPU", "C-SAW 6GPU", "speedup 1GPU", "speedup 6GPU"],
    );
    let cpu = CpuConfig::power9();
    let algo = BiasedRandomWalk { length: scale.walk_length() };
    for spec in datasets::ALL {
        let g = graph_for(&spec);
        let s = seeds(scale.walk_instances(), g.num_vertices());

        let kk = KnightKing::new(&g, WalkBias::Degree).run(&s, scale.walk_length(), 0xF16);
        let kk_seps = kk.seps(&cpu);

        let one = MultiGpu::new(1).run_single_seeds(&g, &algo, &s, RunOptions::default());
        let six = MultiGpu::new(6).run_single_seeds(&g, &algo, &s, RunOptions::default());

        t.row(vec![
            spec.abbr.to_string(),
            mega(kk_seps),
            mega(one.seps()),
            mega(six.seps()),
            f2(one.seps() / kk_seps),
            f2(six.seps() / kk_seps),
        ]);
    }
    vec![t]
}

/// Fig. 9b: multi-dimensional random walk, C-SAW vs. GraphSAINT.
pub fn fig9b(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "Fig. 9b - C-SAW vs GraphSAINT, multi-dimensional random walk (Million SEPS)",
        &["graph", "GraphSAINT", "C-SAW 1GPU", "C-SAW 6GPU", "speedup 1GPU", "speedup 6GPU"],
    );
    let cpu = CpuConfig::power9();
    let algo = MultiDimRandomWalk { budget: scale.mdrw_budget() };
    for spec in datasets::ALL {
        let g = graph_for(&spec);
        let pools = MultiDimRandomWalk::seed_pools(
            g.num_vertices(),
            scale.mdrw_instances(),
            scale.mdrw_frontier(),
            0x9B,
        );

        let gs = GraphSaintMdrw::published(scale.mdrw_budget()).run(&g, &pools, 0x9B);
        let gs_seps = gs.seps(&cpu);

        let one = MultiGpu::new(1).run(&g, &algo, &pools, RunOptions::default());
        let six = MultiGpu::new(6).run(&g, &algo, &pools, RunOptions::default());

        t.row(vec![
            spec.abbr.to_string(),
            mega(gs_seps),
            mega(one.seps()),
            mega(six.seps()),
            f2(one.seps() / gs_seps),
            f2(six.seps() / gs_seps),
        ]);
    }
    vec![t]
}

/// Fig. 9 extension: node2vec head-to-head (KnightKing's flagship
/// dynamic-bias walk, which the paper says it supports via dartboard).
pub fn fig9c(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "Fig. 9 ext - C-SAW vs KnightKing, node2vec p=0.5 q=2 (Million SEPS)",
        &["graph", "KnightKing", "C-SAW 1GPU", "speedup"],
    );
    let cpu = CpuConfig::power9();
    let (p, q) = (0.5, 2.0);
    let length = scale.walk_length() / 4; // node2vec steps are heavier host-side
    let algo = Node2Vec { length, p, q };
    for spec in datasets::ALL {
        let g = graph_for(&spec);
        let s = seeds(scale.walk_instances() / 2, g.num_vertices());
        let kk = KnightKing::new(&g, WalkBias::Node2vec { p, q }).run(&s, length, 0x9C);
        let kk_seps = kk.seps(&cpu);
        let one = MultiGpu::new(1).run_single_seeds(&g, &algo, &s, RunOptions::default());
        t.row(vec![
            spec.abbr.to_string(),
            mega(kk_seps),
            mega(one.seps()),
            f2(one.seps() / kk_seps),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline claim at smoke-test scale on two graphs: C-SAW's
    /// modeled SEPS beats the CPU baselines.
    #[test]
    fn csaw_outperforms_baselines_on_am() {
        let spec = datasets::by_abbr("AM").unwrap();
        let g = graph_for(&spec);
        let cpu = CpuConfig::power9();

        let s = seeds(64, g.num_vertices());
        let algo = BiasedRandomWalk { length: 64 };
        let kk = KnightKing::new(&g, WalkBias::Degree).run(&s, 64, 1).seps(&cpu);
        let cs = MultiGpu::new(1).run_single_seeds(&g, &algo, &s, RunOptions::default()).seps();
        assert!(cs > kk, "C-SAW {cs} must beat KnightKing {kk}");
    }

    #[test]
    fn mdrw_comparison_runs() {
        let spec = datasets::by_abbr("WG").unwrap();
        let g = graph_for(&spec);
        let pools = MultiDimRandomWalk::seed_pools(g.num_vertices(), 4, 32, 7);
        let algo = MultiDimRandomWalk { budget: 32 };
        let gs = GraphSaintMdrw::published(32).run(&g, &pools, 7);
        let cs = MultiGpu::new(1).run(&g, &algo, &pools, RunOptions::default());
        assert_eq!(gs.instances.len(), cs.sample.instances.len());
        assert!(gs.sampled_edges() > 0);
        assert!(cs.sample.sampled_edges() > 0);
    }

    #[test]
    fn in_memory_sampler_matches_multigpu_single() {
        let spec = datasets::by_abbr("WG").unwrap();
        let g = graph_for(&spec);
        let algo = BiasedRandomWalk { length: 16 };
        let s = seeds(16, g.num_vertices());
        let a = Sampler::new(&g, &algo).run_single_seeds(&s);
        let b = MultiGpu::new(1).run_single_seeds(&g, &algo, &s, RunOptions::default());
        assert_eq!(a.instances, b.sample.instances);
    }
}
