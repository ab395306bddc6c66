//! Table I (the design space, exercised end-to-end) and Table II (the
//! dataset roster with stand-in statistics).

use crate::experiments::graph_for;
use crate::report::{f2, Table};
use csaw_core::algorithms::*;
use csaw_core::api::Algorithm;
use csaw_core::engine::Sampler;
use csaw_graph::datasets;
use csaw_graph::generators::toy_graph;
use csaw_graph::stats::degree_stats;

/// Runs every Table-I algorithm once on the toy graph and reports its
/// classification plus the sampled-edge count — the "a generic framework
/// supports all of these" demonstration.
pub fn table1() -> Vec<Table> {
    let g = toy_graph();
    let mut t = Table::new(
        "Table I - traversal-based sampling & random walk design space (toy graph run)",
        &["algorithm", "bias", "neighbor-size", "replacement", "instances", "edges"],
    );

    // (algorithm, bias class, NeighborSize class) rows in Table I order.
    let entries: Vec<(Box<dyn Algorithm>, &str, &str)> = vec![
        (Box::new(SimpleRandomWalk { length: 8 }), "unbiased", "1"),
        (Box::new(MetropolisHastingsWalk { length: 8 }), "unbiased", "1"),
        (Box::new(RandomWalkWithJump { length: 8, p_jump: 0.1 }), "unbiased", "1"),
        (Box::new(RandomWalkWithRestart { length: 8, p_restart: 0.1 }), "unbiased", "1"),
        (Box::new(MultiIndependentRandomWalk { length: 8 }), "unbiased", "1"),
        (Box::new(UnbiasedNeighborSampling { neighbor_size: 2, depth: 2 }), "unbiased", "constant"),
        (Box::new(ForestFire::paper(2)), "unbiased", "variable"),
        (Box::new(Snowball { depth: 2 }), "unbiased", "all"),
        (Box::new(BiasedRandomWalk { length: 8 }), "biased-static", "1"),
        (
            Box::new(BiasedNeighborSampling { neighbor_size: 2, depth: 2 }),
            "biased-static",
            "constant",
        ),
        (Box::new(LayerSampling { layer_size: 2, depth: 2 }), "biased-static", "per-layer"),
        (Box::new(MultiDimRandomWalk { budget: 8 }), "biased-dynamic", "1"),
        (Box::new(Node2Vec { length: 8, p: 0.5, q: 2.0 }), "biased-dynamic", "1"),
    ];

    for (algo, bias, ns) in &entries {
        let cfg = algo.config();
        let seeds: Vec<Vec<u32>> = if cfg.frontier == csaw_core::api::FrontierMode::BiasedReplace {
            vec![vec![8, 0, 3]; 4]
        } else {
            vec![vec![8], vec![0], vec![3], vec![12]]
        };
        let out = Sampler::new(&g, algo).run(&seeds).sampled_edges();
        t.row(vec![
            algo.name().to_string(),
            bias.to_string(),
            ns.to_string(),
            if cfg.without_replacement { "without" } else { "with" }.to_string(),
            seeds.len().to_string(),
            out.to_string(),
        ]);
    }
    vec![t]
}

/// Table II: paper statistics next to the stand-in's realized statistics.
pub fn table2() -> Vec<Table> {
    let mut t = Table::new(
        "Table II - datasets (paper graphs vs. synthetic stand-ins)",
        &[
            "abbr",
            "dataset",
            "paper |V|",
            "paper |E|",
            "paper deg",
            "standin |V|",
            "standin |E|",
            "standin deg",
            "skew(cv)",
            "CSR MB",
        ],
    );
    for spec in datasets::ALL {
        let g = graph_for(&spec);
        let s = degree_stats(&g);
        t.row(vec![
            spec.abbr.to_string(),
            spec.name.to_string(),
            human(spec.paper_vertices),
            human(spec.paper_edges),
            f2(spec.paper_avg_degree),
            human(s.vertices as u64),
            human(s.edges as u64),
            f2(s.avg),
            f2(s.cv),
            f2(g.size_bytes() as f64 / 1e6),
        ]);
    }
    vec![t]
}

fn human(x: u64) -> String {
    if x >= 1_000_000_000 {
        format!("{:.1}B", x as f64 / 1e9)
    } else if x >= 1_000_000 {
        format!("{:.1}M", x as f64 / 1e6)
    } else if x >= 1_000 {
        format!("{:.1}K", x as f64 / 1e3)
    } else {
        x.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_covers_all_thirteen() {
        let t = &table1()[0];
        assert_eq!(t.len(), 13);
    }

    #[test]
    fn table2_covers_all_ten() {
        let t = &table2()[0];
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn human_formatting() {
        assert_eq!(human(999), "999");
        assert_eq!(human(1_500), "1.5K");
        assert_eq!(human(3_400_000), "3.4M");
        assert_eq!(human(1_800_000_000), "1.8B");
    }
}
