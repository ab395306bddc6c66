//! Ablations of the design choices DESIGN.md calls out:
//!
//! - A1 warp-vs-block selection granularity (§IV-A: "using thread warps
//!   achieves ∼2× speedup compared with using thread blocks");
//! - A2 bitmap layout and word width (§IV-B's 8-bit-word and striding
//!   choices);
//! - A3 inverse transform sampling vs. dartboard vs. alias (§II-B's
//!   selection-method tradeoff).

use crate::experiments::graph_for;
use crate::report::{f2, f3, Table};
use crate::scale::{seeds, Scale};
use csaw_baselines::alias::AliasTable;
use csaw_baselines::dartboard::Dartboard;
use csaw_core::algorithms::BiasedNeighborSampling;
use csaw_core::collision::DetectorKind;
use csaw_core::ctps::Ctps;
use csaw_core::engine::{RunOptions, Sampler};
use csaw_core::select::{SelectConfig, SelectStrategy};
use csaw_gpu::stats::SimStats;
use csaw_gpu::{Philox, WARP_SIZE};
use csaw_graph::datasets;

/// A1: warp- vs. thread-block-granularity selection.
///
/// A block (256 threads = 8 warps) working one neighbor pool leaves
/// `256 - min(deg, 256)` lanes idle on power-law graphs where most
/// degrees are small, and blocks are 8× scarcer than warps. We measure
/// lane occupancy over the real degree distribution and derive the
/// throughput ratio.
pub fn ablate_warp(_scale: Scale) -> Vec<Table> {
    const BLOCK_SIZE: usize = 256;
    let mut t = Table::new(
        "A1 - warp-centric vs block-centric SELECT (derived from degree distributions)",
        &["graph", "avg degree", "warp occupancy", "block occupancy", "warp speedup"],
    );
    for spec in datasets::ALL {
        let g = graph_for(&spec);
        let mut warp_busy = 0.0f64;
        let mut warp_steps = 0.0f64;
        let mut block_busy = 0.0f64;
        let mut block_steps = 0.0f64;
        for v in 0..g.num_vertices() as u32 {
            let d = g.degree(v);
            if d == 0 {
                continue;
            }
            // A warp processes a pool of d in ceil(d/32) steps with the
            // tail step partially occupied; a block does the same with
            // 256 lanes but each block occupies 8 warp slots.
            warp_steps += d.div_ceil(WARP_SIZE) as f64;
            warp_busy += d as f64 / WARP_SIZE as f64;
            block_steps += d.div_ceil(BLOCK_SIZE) as f64 * (BLOCK_SIZE / WARP_SIZE) as f64;
            block_busy += d as f64 / WARP_SIZE as f64;
        }
        let warp_occ = warp_busy / warp_steps.max(1.0);
        let block_occ = block_busy / block_steps.max(1.0);
        t.row(vec![
            spec.abbr.to_string(),
            f2(g.avg_degree()),
            f3(warp_occ),
            f3(block_occ),
            f2(warp_occ / block_occ.max(1e-12)),
        ]);
    }
    vec![t]
}

/// A2: bitmap layout × word width — atomic conflicts and kernel cycles
/// for biased neighbor sampling.
pub fn ablate_bitmap(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "A2 - bitmap layout/word-width ablation (biased-ns, atomic conflicts)",
        &["graph", "contig-32", "contig-8", "strided-32", "strided-8"],
    );
    let kinds = [
        DetectorKind::ContiguousBitmap { word_bits: 32 },
        DetectorKind::ContiguousBitmap { word_bits: 8 },
        DetectorKind::StridedBitmap { word_bits: 32 },
        DetectorKind::StridedBitmap { word_bits: 8 },
    ];
    for spec in datasets::in_memory() {
        let g = graph_for(&spec);
        let s = seeds(scale.sampling_instances() / 4, g.num_vertices());
        let algo = BiasedNeighborSampling { neighbor_size: 2, depth: 2 };
        let mut cells = vec![spec.abbr.to_string()];
        for kind in kinds {
            let out = Sampler::new(&g, &algo)
                .modeled()
                .with_options(RunOptions {
                    seed: 0xAB,
                    select: SelectConfig { strategy: SelectStrategy::Bipartite, detector: kind },
                    ..Default::default()
                })
                .run_single_seeds(&s);
            cells.push(out.stats.atomic_conflicts.to_string());
        }
        t.row(cells);
    }
    vec![t]
}

/// A3: selection-method ablation — ITS vs. dartboard vs. alias for one
/// dynamic-bias selection over real neighbor pools (cycles per pick,
/// including per-pick table construction, since dynamic biases can't be
/// precomputed — §II-B's argument for ITS on GPUs).
pub fn ablate_select(_scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "A3 - selection method ablation (cycles per dynamic-bias pick)",
        &["graph", "ITS", "dartboard", "alias", "dartboard trials/pick"],
    );
    for spec in datasets::ALL {
        let g = graph_for(&spec);
        let vs = seeds(20_000, g.num_vertices());
        let mut rng = Philox::new(0xA3);
        let mut its = SimStats::new();
        let mut dart = SimStats::new();
        let mut alias = SimStats::new();
        let mut picks = 0u64;
        for &v in &vs {
            let biases: Vec<f64> = g.neighbors(v).iter().map(|&u| g.degree(u) as f64).collect();
            if biases.is_empty() {
                continue;
            }
            picks += 1;
            if let Some(c) = Ctps::build(&biases, &mut its) {
                c.sample_one(&mut rng, &mut its);
            }
            if let Some(d) = Dartboard::build(&biases, &mut dart) {
                d.sample(&mut rng, &mut dart);
            }
            if let Some(a) = AliasTable::build(&biases, &mut alias) {
                a.sample(&mut rng, &mut alias);
            }
        }
        let per = |s: &SimStats| s.warp_cycles as f64 / picks.max(1) as f64;
        t.row(vec![
            spec.abbr.to_string(),
            f2(per(&its)),
            f2(per(&dart)),
            f2(per(&alias)),
            f2(dart.select_iterations as f64 / picks.max(1) as f64),
        ]);
    }
    vec![t]
}

/// A4: unified memory vs. the partition runtime (§VII's claim that
/// "unified memory is not a suitable option" for irregular sampling),
/// same memory budget on both sides.
pub fn ablate_unified(scale: Scale) -> Vec<Table> {
    use csaw_baselines::unified::UnifiedRunner;
    use csaw_gpu::config::DeviceConfig;
    use csaw_oom::{OomConfig, OomRunner};
    let mut t = Table::new(
        "A4 - unified memory vs partition runtime (unbiased-ns, same memory budget)",
        &["graph", "UM faults", "UM time ms", "C-SAW transfers", "C-SAW time ms", "speedup"],
    );
    for spec in datasets::ALL {
        let g = graph_for(&spec);
        let s = seeds(scale.oom_instances() / 4, g.num_vertices());
        let algo = csaw_core::algorithms::UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 };
        let parts = csaw_graph::PartitionSet::equal_ranges(&g, 4);
        let budget = parts.parts().iter().map(csaw_graph::Partition::size_bytes).max().unwrap() * 2;
        let um = UnifiedRunner::new(&g, &algo, DeviceConfig::tiny(budget)).run(&s);
        let cs = OomRunner::new(&g, &algo, OomConfig::full())
            .with_device(DeviceConfig::tiny(budget))
            .run(&s);
        t.row(vec![
            spec.abbr.to_string(),
            um.page_faults.to_string(),
            format!("{:.3}", um.sim_seconds * 1e3),
            cs.transfers.to_string(),
            format!("{:.3}", cs.sim_seconds * 1e3),
            f2(um.sim_seconds / cs.sim_seconds),
        ]);
    }
    vec![t]
}

/// A5: SELECT (retry-based, the paper's design) vs. weighted reservoir
/// sampling (collision-free single pass) — cycles per k-of-n selection on
/// real neighbor pools.
pub fn ablate_reservoir(_scale: Scale) -> Vec<Table> {
    use csaw_baselines::reservoir::reservoir_select;
    use csaw_core::select::{select_without_replacement, SelectConfig};
    let mut t = Table::new(
        "A5 - SELECT (bipartite+bitmap) vs weighted reservoir, cycles per k=2 selection",
        &["graph", "select cycles", "reservoir cycles", "select wins when"],
    );
    for spec in datasets::ALL {
        let g = graph_for(&spec);
        let vs = seeds(10_000, g.num_vertices());
        let mut rng = Philox::new(0xA5);
        let (mut s_sel, mut s_res) = (SimStats::new(), SimStats::new());
        let mut picks = 0u64;
        for &v in &vs {
            let biases: Vec<f64> = g.neighbors(v).iter().map(|&u| g.degree(u) as f64).collect();
            if biases.len() < 3 {
                continue;
            }
            picks += 1;
            select_without_replacement(
                &biases,
                2,
                SelectConfig::paper_best(),
                &mut rng,
                &mut s_sel,
            );
            reservoir_select(&biases, 2, &mut rng, &mut s_res);
        }
        let per = |s: &SimStats| s.warp_cycles as f64 / picks.max(1) as f64;
        t.row(vec![
            spec.abbr.to_string(),
            f2(per(&s_sel)),
            f2(per(&s_res)),
            if per(&s_sel) < per(&s_res) { "k << n (here)" } else { "n small" }.to_string(),
        ]);
    }
    vec![t]
}

/// A6: equal-vertex-range (§V-A) vs. edge-balanced contiguous partitions —
/// end-to-end OOM time and transfer spread.
pub fn ablate_partitions(scale: Scale) -> Vec<Table> {
    use csaw_gpu::config::DeviceConfig;
    use csaw_oom::{OomConfig, OomRunner};
    let mut t = Table::new(
        "A6 - equal-vertex vs edge-balanced partitioning (unbiased-ns, full OOM config)",
        &["graph", "equal ms", "balanced ms", "speedup", "equal transfers", "balanced transfers"],
    );
    for spec in datasets::ALL {
        let g = graph_for(&spec);
        let s = seeds(scale.oom_instances() / 2, g.num_vertices());
        let algo = csaw_core::algorithms::UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 };
        let run = |edge_balanced| {
            let cfg = OomConfig { edge_balanced_partitions: edge_balanced, ..OomConfig::full() };
            OomRunner::new(&g, &algo, cfg).with_device(DeviceConfig::tiny(1 << 20)).run(&s)
        };
        let eq = run(false);
        let bal = run(true);
        t.row(vec![
            spec.abbr.to_string(),
            format!("{:.3}", eq.sim_seconds * 1e3),
            format!("{:.3}", bal.sim_seconds * 1e3),
            f2(eq.sim_seconds / bal.sim_seconds),
            eq.transfers.to_string(),
            bal.transfers.to_string(),
        ]);
    }
    vec![t]
}

/// Sample-quality comparison across samplers (the paper's §I motivation:
/// samples "capture the desirable graph properties").
pub fn quality(scale: Scale) -> Vec<Table> {
    use csaw_baselines::onepass;
    use csaw_core::engine::Sampler;
    use csaw_graph::quality::compare;
    let mut t = Table::new(
        "Sample quality - degree KS / clustering / effective diameter vs original (WG stand-in)",
        &[
            "sampler",
            "edges kept %",
            "degree KS",
            "clust orig",
            "clust sample",
            "diam orig",
            "diam sample",
        ],
    );
    let spec = datasets::by_abbr("WG").unwrap();
    let g = graph_for(&spec);
    let n_inst = scale.sampling_instances();
    let s = seeds(n_inst, g.num_vertices());

    let mut add = |name: &str, sub: csaw_graph::Csr| {
        let r = compare(&g, &sub, 0x9A);
        t.row(vec![
            name.to_string(),
            f2(100.0 * sub.num_edges() as f64 / g.num_edges() as f64),
            f3(r.degree_ks),
            f3(r.clustering_original),
            f3(r.clustering_sample),
            f2(r.diameter_original),
            f2(r.diameter_sample),
        ]);
    };

    let ff = Sampler::new(&g, &csaw_core::algorithms::ForestFire::paper(4)).run_single_seeds(&s);
    add("forest-fire d4", ff.induce_subgraph().0);
    let ns = Sampler::new(
        &g,
        &csaw_core::algorithms::UnbiasedNeighborSampling { neighbor_size: 2, depth: 4 },
    )
    .run_single_seeds(&s);
    add("neighbor-sampling d4", ns.induce_subgraph().0);
    let rw = Sampler::new(&g, &csaw_core::algorithms::SimpleRandomWalk { length: 20 })
        .run_single_seeds(&s);
    add("random-walk L20", rw.induce_subgraph().0);
    add("random-node 20%", onepass::random_node(&g, 0.2, 0x9A).induce_subgraph().0);
    add("random-edge 10%", onepass::random_edge(&g, 0.1, 0x9A).induce_subgraph().0);
    add("TIES 10%", onepass::ties(&g, 0.1, 0x9A).induce_subgraph().0);
    vec![t]
}

/// A7: static-bias probability pre-computation (per-vertex CTPS cache) vs
/// computing the CTPS at every step — §VII's "probability pre-computation"
/// trade-off inside C-SAW.
pub fn ablate_precompute(scale: Scale) -> Vec<Table> {
    use csaw_baselines::precompute::EagerCtpsCache;
    use csaw_core::algorithms::BiasedRandomWalk;
    let mut t = Table::new(
        "A7 - static-bias CTPS cache vs per-step recompute (biased walk)",
        &["graph", "recompute cyc/edge", "cached cyc/edge", "speedup", "cache MB", "build cycles"],
    );
    let length = scale.walk_length() / 4;
    for spec in datasets::ALL {
        let g = graph_for(&spec);
        let s = seeds(scale.walk_instances() / 4, g.num_vertices());
        let algo = BiasedRandomWalk { length };
        let engine = Sampler::new(&g, &algo).modeled().run_single_seeds(&s);
        let cache = EagerCtpsCache::build(&g, &algo);
        let (_, cached) = cache.run_walks(&g, &s, length, 0xA7);
        let per = |s: &SimStats| s.warp_cycles as f64 / s.sampled_edges.max(1) as f64;
        t.row(vec![
            spec.abbr.to_string(),
            f2(per(&engine.stats)),
            f2(per(&cached)),
            f2(per(&engine.stats) / per(&cached)),
            f2(cache.size_bytes() as f64 / 1e6),
            format!("{}", cache.build_stats.warp_cycles),
        ]);
    }
    vec![t]
}

/// A8: vertex-order locality — edge span and coalesced-transaction counts
/// under the original, degree-sorted, and BFS orders.
pub fn ablate_reorder(scale: Scale) -> Vec<Table> {
    use csaw_core::algorithms::UnbiasedNeighborSampling;
    use csaw_graph::reorder::{bfs_order, degree_order, edge_span, relabel};
    let mut t = Table::new(
        "A8 - vertex-order locality (unbiased-ns, gmem transactions per sampled edge)",
        &["graph", "span orig", "span degree", "span bfs", "txn orig", "txn degree", "txn bfs"],
    );
    for spec in datasets::in_memory() {
        let g = graph_for(&spec);
        let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 };
        let run = |g: &csaw_graph::Csr| {
            let s = seeds(scale.sampling_instances() / 4, g.num_vertices());
            let out = Sampler::new(g, &algo).modeled().run_single_seeds(&s);
            out.stats.gmem_transactions as f64 / out.stats.sampled_edges.max(1) as f64
        };
        let gd = relabel(&g, &degree_order(&g));
        let gb = relabel(&g, &bfs_order(&g, 0));
        t.row(vec![
            spec.abbr.to_string(),
            f2(edge_span(&g)),
            f2(edge_span(&gd)),
            f2(edge_span(&gb)),
            f2(run(&g)),
            f2(run(&gd)),
            f2(run(&gb)),
        ]);
    }
    vec![t]
}

/// A9: warp divergence of the retry loop — SIMT efficiency of repeated
/// sampling vs. bipartite region search over real neighbor pools
/// (lane-level execution via the lockstep executor).
pub fn ablate_divergence(_scale: Scale) -> Vec<Table> {
    use csaw_baselines::select_simt::select_without_replacement_simt;
    let mut t = Table::new(
        "A9 - SIMT divergence of SELECT (weighted pools, k = deg/2 lanes)",
        &["graph", "repeated steps", "bipartite steps", "repeated eff", "bipartite eff"],
    );
    for spec in datasets::in_memory() {
        let g = crate::experiments::weighted_graph_for(&spec);
        let vs = seeds(4_000, g.num_vertices());
        let run = |strategy| {
            let mut rng = Philox::new(0xA9);
            let mut s = SimStats::new();
            let mut steps = 0u64;
            let mut idle = 0u64;
            let mut lanes_total = 0u64;
            for &v in &vs {
                let w = g.neighbor_weights(v).unwrap();
                if w.len() < 4 {
                    continue;
                }
                let biases: Vec<f64> = w.iter().map(|&x| x as f64).collect();
                let k = (biases.len() / 2).min(16);
                let out = select_without_replacement_simt(
                    &biases,
                    k,
                    SelectConfig { strategy, detector: DetectorKind::paper_default() },
                    &mut rng,
                    &mut s,
                );
                steps += out.divergence.steps;
                idle += out.divergence.idle_lane_steps;
                lanes_total += (out.divergence.steps * k as u64).max(1);
            }
            (steps, 1.0 - idle as f64 / lanes_total.max(1) as f64)
        };
        let (rs, re) = run(SelectStrategy::Repeated);
        let (bs, be) = run(SelectStrategy::Bipartite);
        t.row(vec![spec.abbr.to_string(), rs.to_string(), bs.to_string(), f3(re), f3(be)]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warp_beats_block_on_every_graph() {
        // §IV-A's ~2x claim: the derived speedup must exceed 1 everywhere
        // and land near 2 or more on the low-degree graphs.
        let t = &ablate_warp(Scale::Quick)[0];
        assert_eq!(t.len(), 10);
        let rendered = t.render();
        assert!(rendered.contains("warp speedup"));
    }

    #[test]
    fn strided8_conflicts_least_on_am() {
        let spec = datasets::by_abbr("AM").unwrap();
        let g = graph_for(&spec);
        let s = seeds(64, g.num_vertices());
        let algo = BiasedNeighborSampling { neighbor_size: 4, depth: 2 };
        let run = |kind| {
            Sampler::new(&g, &algo)
                .modeled()
                .with_options(RunOptions {
                    seed: 1,
                    select: SelectConfig { strategy: SelectStrategy::Bipartite, detector: kind },
                    ..Default::default()
                })
                .run_single_seeds(&s)
                .stats
                .atomic_conflicts
        };
        let c32 = run(DetectorKind::ContiguousBitmap { word_bits: 32 });
        let s8 = run(DetectorKind::StridedBitmap { word_bits: 8 });
        assert!(s8 <= c32, "strided-8 {s8} must not conflict more than contiguous-32 {c32}");
    }

    #[test]
    fn alias_costs_most_per_dynamic_pick() {
        // With per-pick construction, alias preprocessing dominates —
        // the paper's reason to reject it for dynamic biases.
        let spec = datasets::by_abbr("RE").unwrap();
        let g = graph_for(&spec);
        let mut rng = Philox::new(5);
        let (mut its, mut alias) = (SimStats::new(), SimStats::new());
        for v in 0..500u32 {
            let biases: Vec<f64> = g.neighbors(v).iter().map(|&u| g.degree(u) as f64).collect();
            if biases.is_empty() {
                continue;
            }
            if let Some(c) = Ctps::build(&biases, &mut its) {
                c.sample_one(&mut rng, &mut its);
            }
            if let Some(a) = AliasTable::build(&biases, &mut alias) {
                a.sample(&mut rng, &mut alias);
            }
        }
        assert!(
            alias.warp_cycles > its.warp_cycles,
            "alias {0} vs ITS {1} cycles",
            alias.warp_cycles,
            its.warp_cycles
        );
    }
}
