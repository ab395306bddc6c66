//! Outside-in layer replays for the offline workloads.
//!
//! A traced run cannot put clocks inside the engine, so for one launch in
//! [`crate::common::SAMPLE_EVERY`] it reads the expansions that launch
//! made back from its output edges and calls each layer's *public*
//! function on exactly those inputs, one stage at a time, with a clock
//! around each stage. The stages run against private twins of the
//! launch's cache and disk pool, so a replay never changes what the next
//! timed launch finds.
//!
//! What the stages leave out — sink, frontier pool, ledger merge, output
//! vectors, dispatch — is `core.engine.unattributed_share`.

use crate::trace::Tracer;
use csaw_core::api::{Algorithm, EdgeCand};
use csaw_core::ctps::Ctps;
use csaw_core::ctps_cache::{widths_agree, CacheOutcome, CtpsCache};
use csaw_core::residency::{DiskAccess, DiskRunConfig};
use csaw_core::select::{
    select_one_preloaded, select_one_uniform, select_one_with, select_without_replacement_into,
    SelectConfig, SelectScratch,
};
use csaw_core::step::{CsrAccess, NeighborAccess};
use csaw_core::SampleOutput;
use csaw_gpu::{task_key, Philox, SimStats};
use csaw_graph::Csr;
use std::hint::black_box;
use std::time::Instant;

/// Expansions per block when bias lanes are materialised: small enough
/// that a block's lanes stay in L1/L2 between the fill, build and select
/// stages, as one expansion's lane does inside the engine.
const BIASED_BLOCK: usize = 32;
/// Closed-form uniform expansions have no lanes; bigger blocks mean fewer
/// spans.
const UNIFORM_BLOCK: usize = 4096;
/// Partitions decoded per replay for `graph.store.decode_us_per_partition`.
const DECODES_PER_REPLAY: usize = 16;

/// One frontier expansion, as recovered from a launch's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expansion {
    pub instance: u32,
    pub depth: u32,
    pub vertex: u32,
    pub prev: Option<u32>,
}

/// Reads the expansions back from sampled edges. A walk expands once per
/// edge. A neighbour sample expands once per run of edges that share a
/// source; the first run is depth 0 and the rest depth 1, which is exact
/// for the depth-2 workload here. Expansions that emitted no edge (dead
/// ends) are invisible from outside and cost the launch a gather each.
pub fn expansions(out: &SampleOutput, walk: bool) -> Vec<Expansion> {
    let mut exps = Vec::with_capacity(out.sampled_edges() as usize);
    for (i, edges) in out.instances.iter().enumerate() {
        let instance = i as u32;
        if walk {
            exps.extend(edges.iter().enumerate().map(|(j, &(v, _))| Expansion {
                instance,
                depth: j as u32,
                vertex: v,
                prev: j.checked_sub(1).map(|p| edges[p].0),
            }));
        } else {
            let mut last = None;
            for &(v, _) in edges {
                if last != Some(v) {
                    let depth = u32::from(last.is_some());
                    exps.push(Expansion { instance, depth, vertex: v, prev: None });
                    last = Some(v);
                }
            }
        }
    }
    exps
}

/// Stage clocks and counts summed over every replayed launch.
#[derive(Debug, Default, Clone)]
pub struct ReplayTotals {
    pub launches: u64,
    /// Wall time of the replayed launches themselves.
    pub launch_ns: u64,
    /// One per expansion, or one per vertex group when grouped.
    pub gathers: u64,
    pub gather_ns: u64,
    pub lookup_ns: u64,
    pub lookups: u64,
    pub promote_ns: u64,
    pub fill_ns: u64,
    /// Stand-alone CTPS builds (also part of `select_ns`).
    pub build_ns: u64,
    pub build_edges: u64,
    /// SELECT as the engine calls it: stream creation, rebuild and draws
    /// included.
    pub select_ns: u64,
    pub picks: u64,
    /// Stand-alone Philox stream creation + draws (also in `select_ns`).
    pub rng_ns: u64,
    pub rng_draws: u64,
    pub decode_ns: u64,
    pub decodes: u64,
    /// Depth-synchronous launches build once per vertex group and every
    /// member draws from that build, so there `build_ns` is a stage of
    /// its own and not a part of `select_ns`.
    pub grouped: bool,
}

impl ReplayTotals {
    /// Time of the stages that partition a launch. The stand-alone RNG
    /// clock, and the build clock of ungrouped launches, are parts of
    /// `select_ns` and not added twice.
    pub fn attributed_ns(&self) -> u64 {
        let build = if self.grouped { self.build_ns } else { 0 };
        self.gather_ns + self.lookup_ns + self.promote_ns + self.fill_ns + build + self.select_ns
    }

    /// SELECT's own time: the replayed calls minus the streams, draws and
    /// rebuilds they contain.
    pub fn select_self_ns(&self) -> u64 {
        let build = if self.grouped { 0 } else { self.build_ns };
        self.select_ns.saturating_sub(self.rng_ns).saturating_sub(build)
    }
}

/// The replayer for one offline workload.
pub struct Replayer<'a> {
    graph: &'a Csr,
    algo: &'a dyn Algorithm,
    walk: bool,
    neighbor_size: usize,
    select_cfg: SelectConfig,
    cache: Option<CtpsCache>,
    disk: Option<DiskAccess>,
    lanes: Vec<f64>,
    lane_ends: Vec<usize>,
    block_ctps: Vec<Ctps>,
    lead: Vec<usize>,
    hit: Vec<bool>,
    draws: Vec<u32>,
    ctps: Ctps,
    scratch: SelectScratch,
    pub totals: ReplayTotals,
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

impl<'a> Replayer<'a> {
    /// `grouped` says the launches are depth-synchronous: co-located
    /// walkers share one gather, lookup and build. `cache_budget` and
    /// `disk` describe the launch's cache and disk tier; the replayer
    /// builds private twins of both.
    pub fn new(
        graph: &'a Csr,
        algo: &'a dyn Algorithm,
        grouped: bool,
        cache_budget: Option<usize>,
        disk: Option<&DiskRunConfig>,
    ) -> Replayer<'a> {
        let cfg = algo.config();
        let neighbor_size = match cfg.neighbor_size {
            csaw_core::NeighborSize::Constant(k) => k,
            other => panic!("replay supports constant neighbour sizes, not {other:?}"),
        };
        let walk = neighbor_size == 1 && !cfg.without_replacement;
        assert!(
            disk.is_none() || algo.edge_bias_is_uniform(),
            "the disk replay covers the closed-form uniform kernel only"
        );
        assert!(!grouped || walk, "the grouped replay covers walks only");
        Replayer {
            graph,
            algo,
            walk,
            neighbor_size,
            select_cfg: SelectConfig::paper_best(),
            cache: cache_budget.map(CtpsCache::new),
            disk: disk.map(|d| DiskAccess::new(&DiskRunConfig { shared: None, ..d.clone() })),
            lanes: Vec::new(),
            lane_ends: Vec::new(),
            block_ctps: (0..BIASED_BLOCK).map(|_| Ctps::empty()).collect(),
            lead: Vec::new(),
            hit: Vec::new(),
            draws: Vec::new(),
            ctps: Ctps::empty(),
            scratch: SelectScratch::new(),
            totals: ReplayTotals { grouped, ..ReplayTotals::default() },
        }
    }

    /// Replays launch `launch` (RNG seed `seed`, output `out`, wall time
    /// `launch_ns`), recording one span per stage under a `replay` span.
    pub fn replay(
        &mut self,
        tracer: &mut Tracer,
        launch: u64,
        seed: u64,
        out: &SampleOutput,
        launch_ns: u64,
    ) {
        let mut exps = expansions(out, self.walk);
        if self.totals.grouped {
            // The lockstep frontier: one vertex group after another.
            exps.sort_by_key(|e| (e.depth, e.vertex));
        }
        let grouped = self.totals.grouped;
        let leads = |i: usize| !grouped || i == 0 || !same_group(&exps[i], &exps[i - 1]);
        let replay_span = tracer.begin("replay", launch);
        self.totals.launches += 1;
        self.totals.launch_ns += launch_ns;
        let mut stats = SimStats::new();

        // GATHERNEIGHBORS through the workload's access tier.
        let t = Instant::now();
        match self.disk.as_mut() {
            Some(disk) => {
                for e in &exps {
                    black_box(disk.gather(e.vertex, &mut stats).neighbors.len());
                }
                disk.flush_stats(&mut stats);
                self.totals.gathers += exps.len() as u64;
            }
            None => {
                let mut access = CsrAccess { graph: self.graph };
                for (i, e) in exps.iter().enumerate() {
                    if leads(i) {
                        black_box(access.gather(e.vertex, &mut stats).neighbors.len());
                        self.totals.gathers += 1;
                    }
                }
            }
        }
        self.totals.gather_ns += ns_since(t);
        tracer.record("replay.gather", launch, t, Instant::now());

        self.draws.clear();
        if self.algo.edge_bias_is_uniform() && self.walk {
            for block in exps.chunks(UNIFORM_BLOCK) {
                self.select_uniform(tracer, launch, seed, block, &mut stats);
            }
        } else {
            for block in exps.chunks(BIASED_BLOCK) {
                self.select_biased(tracer, launch, seed, block, &mut stats);
            }
        }

        // Philox alone: the stream of every expansion and the draws its
        // SELECT made.
        let t = Instant::now();
        for (e, &d) in exps.iter().zip(&self.draws) {
            let mut rng = Philox::for_task(seed, task_key(e.instance, e.depth, e.vertex, 0));
            for _ in 0..d {
                black_box(rng.uniform());
            }
        }
        self.totals.rng_ns += ns_since(t);
        self.totals.rng_draws += self.draws.iter().map(|&d| u64::from(d)).sum::<u64>();
        tracer.record("replay.rng", launch, t, Instant::now());

        if let Some(disk) = self.disk.as_ref() {
            let store = disk.hierarchy().store();
            let t = Instant::now();
            for e in exps.iter().take(DECODES_PER_REPLAY) {
                black_box(store.decode_partition(store.partition_of(e.vertex)).is_ok());
                self.totals.decodes += 1;
            }
            self.totals.decode_ns += ns_since(t);
            tracer.record("replay.store.decode", launch, t, Instant::now());
        }
        tracer.end(replay_span);
    }

    /// Closed-form uniform SELECT: no lane, no CTPS.
    fn select_uniform(
        &mut self,
        tracer: &mut Tracer,
        launch: u64,
        seed: u64,
        block: &[Expansion],
        stats: &mut SimStats,
    ) {
        let t = Instant::now();
        for e in block {
            let mut rng = Philox::for_task(seed, task_key(e.instance, e.depth, e.vertex, 0));
            let before = stats.rng_draws;
            black_box(select_one_uniform(self.graph.degree(e.vertex), &mut rng, stats));
            self.draws.push((stats.rng_draws - before) as u32);
        }
        self.totals.select_ns += ns_since(t);
        self.totals.picks += block.len() as u64;
        tracer.record("replay.select", launch, t, Instant::now());
    }

    /// Static-bias SELECT: cache lookup (when the launch had a cache),
    /// bias fill and CTPS build on misses, then the draws. Grouped, the
    /// first member of a vertex group looks up, fills and builds for the
    /// whole group (a group cut by a block edge does so twice).
    fn select_biased(
        &mut self,
        tracer: &mut Tracer,
        launch: u64,
        seed: u64,
        block: &[Expansion],
        stats: &mut SimStats,
    ) {
        let view = self.graph.view();
        let grouped = self.totals.grouped;
        self.lead.clear();
        for i in 0..block.len() {
            let follows = grouped && i > 0 && same_group(&block[i], &block[i - 1]);
            self.lead.push(if follows { self.lead[i - 1] } else { i });
        }
        self.hit.clear();
        self.hit.resize(block.len(), false);
        if let Some(cache) = self.cache.as_ref() {
            let t = Instant::now();
            for (i, e) in block.iter().enumerate() {
                if self.lead[i] == i {
                    let found = cache.lookup_into(e.vertex, 0, &mut self.block_ctps[i]);
                    self.hit[i] = matches!(found, CacheOutcome::Hit { .. });
                    self.totals.lookups += 1;
                } else {
                    self.hit[i] = self.hit[self.lead[i]];
                }
            }
            self.totals.lookup_ns += ns_since(t);
            tracer.record("replay.ctps_cache.lookup", launch, t, Instant::now());
        }

        // EDGEBIAS into one flat lane buffer per block.
        let t = Instant::now();
        self.lanes.clear();
        self.lane_ends.clear();
        for (i, e) in block.iter().enumerate() {
            if self.lead[i] == i && !self.hit[i] {
                let nbrs = self.graph.neighbors(e.vertex);
                let (v, prev) = (e.vertex, e.prev);
                self.lanes.extend(nbrs.iter().enumerate().map(|(j, &u)| {
                    let weight = view.edge_weight(v, j);
                    self.algo.edge_bias(view, &EdgeCand { v, u, weight, prev })
                }));
            }
            self.lane_ends.push(self.lanes.len());
        }
        self.totals.fill_ns += ns_since(t);
        tracer.record("replay.bias_fill", launch, t, Instant::now());

        // The CTPS build alone. Grouped, the members draw from it.
        let t = Instant::now();
        for i in 0..block.len() {
            if self.lead[i] == i && !self.hit[i] {
                let lane = lane_of(&self.lanes, &self.lane_ends, i);
                let ctps = if grouped { &mut self.block_ctps[i] } else { &mut self.ctps };
                black_box(ctps.rebuild(lane, stats));
                self.totals.build_edges += lane.len() as u64;
            }
        }
        self.totals.build_ns += ns_since(t);
        tracer.record("replay.ctps.build", launch, t, Instant::now());

        let t = Instant::now();
        for (i, e) in block.iter().enumerate() {
            let mut rng = Philox::for_task(seed, task_key(e.instance, e.depth, e.vertex, 0));
            let before = (stats.rng_draws, stats.selections);
            let lane = lane_of(&self.lanes, &self.lane_ends, i);
            if self.hit[i] || grouped {
                let ctps = &self.block_ctps[self.lead[i]];
                if !ctps.is_empty() {
                    black_box(select_one_preloaded(ctps, &mut rng, stats));
                }
            } else if self.walk {
                black_box(select_one_with(lane, &mut self.ctps, &mut rng, stats));
            } else {
                let k = self.neighbor_size.min(lane.len());
                select_without_replacement_into(
                    lane,
                    k,
                    self.select_cfg,
                    &mut self.scratch,
                    &mut rng,
                    stats,
                );
                black_box(self.scratch.out.len());
            }
            self.draws.push((stats.rng_draws - before.0) as u32);
            self.totals.picks += stats.selections - before.1;
        }
        self.totals.select_ns += ns_since(t);
        tracer.record("replay.select", launch, t, Instant::now());

        // The admission the engine offers after a miss's build.
        if let Some(cache) = self.cache.as_ref() {
            let t = Instant::now();
            for (i, e) in block.iter().enumerate() {
                if self.lead[i] == i && !self.hit[i] {
                    let lane = lane_of(&self.lanes, &self.lane_ends, i);
                    let ctps = if grouped { &mut self.block_ctps[i] } else { &mut self.ctps };
                    if (grouped || ctps.rebuild(lane, stats)) && widths_agree(ctps, lane) {
                        let selectable = lane.iter().filter(|&&b| b > 0.0).count() as u32;
                        cache.promote(e.vertex, 0, ctps, selectable, lane.len() as u32);
                    }
                }
            }
            self.totals.promote_ns += ns_since(t);
            tracer.record("replay.ctps_cache.promote", launch, t, Instant::now());
        }
    }
}

/// Two expansions of one depth-synchronous vertex group.
fn same_group(a: &Expansion, b: &Expansion) -> bool {
    (a.depth, a.vertex) == (b.depth, b.vertex)
}

/// Lane `i` of a block's flat bias buffer.
fn lane_of<'l>(lanes: &'l [f64], ends: &[usize], i: usize) -> &'l [f64] {
    let start = if i == 0 { 0 } else { ends[i - 1] };
    &lanes[start..ends[i]]
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_core::engine::{RunOptions, Sampler};
    use csaw_core::AlgoSpec;
    use csaw_graph::generators::toy_graph;

    #[test]
    fn walk_expansions_are_one_per_edge_with_predecessors() {
        let g = toy_graph();
        let algo = AlgoSpec::by_name("simple-walk").unwrap().with_depth(5).build().unwrap();
        let algo: &dyn Algorithm = algo.as_ref();
        let out = Sampler::new(&g, &algo).run_single_seeds(&[0, 8]);
        let exps = expansions(&out, true);
        assert_eq!(exps.len() as u64, out.sampled_edges());
        assert_eq!(exps[0], Expansion { instance: 0, depth: 0, vertex: 0, prev: None });
        assert_eq!(exps[1].prev, Some(0));
        assert_eq!(exps[1].vertex, out.instances[0][0].1);
    }

    #[test]
    fn neighbour_expansions_are_runs_of_one_source() {
        let g = toy_graph();
        let algo = AlgoSpec::by_name("biased-neighbor")
            .unwrap()
            .with_depth(2)
            .with_neighbor_size(2)
            .build()
            .unwrap();
        let algo: &dyn Algorithm = algo.as_ref();
        let out = Sampler::new(&g, &algo).run_single_seeds(&[8]);
        let exps = expansions(&out, false);
        assert_eq!(exps[0], Expansion { instance: 0, depth: 0, vertex: 8, prev: None });
        assert!(exps.len() >= 2 && exps[1..].iter().all(|e| e.depth == 1));
    }

    #[test]
    fn replay_counts_every_pick_of_the_launch() {
        let g = toy_graph();
        for (name, grouped, cache) in [
            ("simple-walk", false, None),
            ("biased-walk", false, Some(1 << 16)),
            ("biased-walk", true, Some(1 << 16)),
        ] {
            let algo = AlgoSpec::by_name(name).unwrap().with_depth(6).build().unwrap();
            let algo: &dyn Algorithm = algo.as_ref();
            let out = Sampler::new(&g, &algo)
                .with_options(RunOptions { seed: 3, ..Default::default() })
                .run_single_seeds(&[8, 8, 0, 3]);
            let mut tracer = Tracer::new(Instant::now());
            let mut r = Replayer::new(&g, algo, grouped, cache, None);
            r.replay(&mut tracer, 0, 3, &out, 1000);
            r.replay(&mut tracer, 1, 3, &out, 1000);
            assert_eq!(r.totals.picks, 2 * out.sampled_edges(), "{name}");
            assert_eq!(r.totals.rng_draws, 2 * out.stats.rng_draws, "{name}");
            assert_eq!(r.totals.launches, 2);
            if cache.is_some() && !grouped {
                assert_eq!(r.totals.lookups, 2 * out.sampled_edges());
            }
            if grouped {
                assert!(r.totals.lookups < 2 * out.sampled_edges());
                assert_eq!(r.totals.gathers, r.totals.lookups);
            }
            assert!(tracer.spans().iter().any(|s| s.name == "replay.select"));
        }
    }
}
