//! The four offline workloads: a closed loop of `Sampler` launches on one
//! thread. One request is one launch.

use crate::common::{
    build_graph, cpu_seconds, out_dir, Args, Layers, Report, SetUp, GRAPH_SEED, SAMPLE_EVERY,
};
use crate::refwalk::ref_walk_seps;
use crate::replay::{ReplayTotals, Replayer};
use crate::stats::{keep_fastest, median, paired_overhead_share, percentile, ratio, SplitMix};
use crate::trace::Tracer;
use csaw_core::api::Algorithm;
use csaw_core::ctps_cache::{CacheSnapshot, CtpsCache};
use csaw_core::engine::{ExecMode, RunOptions, Sampler};
use csaw_core::residency::{with_thread_disk_access, DiskRunConfig, DiskTierStats};
use csaw_core::{AlgoSpec, SampleOutput};
use csaw_gpu::SimStats;
use csaw_graph::store::write_store;
use csaw_graph::{Csr, DiskStore};
use std::path::PathBuf;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

/// Store partitions for `disk_walk`.
const PARTITIONS: usize = 256;
/// `disk_walk`'s decoded-partition pool, as a share of the decoded graph.
const POOL_SHARE: f64 = 0.10;
/// `walk_biased_depth`'s CTPS cache: the service's default budget.
const CACHE_BUDGET: usize = 4 << 20;

/// One offline workload. `launches_per_second` and `warmup_launches` are
/// sizes, not measurements: they were read off the reference box once
/// (README.md, "Sizing") and fix the work a run does.
pub struct Spec {
    pub name: &'static str,
    algo: &'static str,
    depth: usize,
    neighbor_size: Option<usize>,
    walkers: usize,
    launches_per_second: f64,
    warmup_launches: usize,
    exec: ExecMode,
    cache: bool,
    disk: bool,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "walk_uniform",
        algo: "simple-walk",
        depth: 80,
        neighbor_size: None,
        walkers: 2048,
        launches_per_second: 26.0,
        warmup_launches: 8,
        exec: ExecMode::InstanceMajor,
        cache: false,
        disk: false,
    },
    Spec {
        name: "neighbor_biased",
        algo: "biased-neighbor",
        depth: 2,
        neighbor_size: Some(10),
        walkers: 512,
        launches_per_second: 28.0,
        warmup_launches: 10,
        exec: ExecMode::InstanceMajor,
        cache: false,
        disk: false,
    },
    Spec {
        name: "walk_biased_depth",
        algo: "biased-walk",
        depth: 80,
        neighbor_size: None,
        walkers: 512,
        launches_per_second: 13.0,
        warmup_launches: 4,
        exec: ExecMode::DepthSync,
        cache: true,
        disk: false,
    },
    Spec {
        name: "disk_walk",
        algo: "simple-walk",
        depth: 80,
        neighbor_size: None,
        walkers: 256,
        launches_per_second: 8.5,
        warmup_launches: 3,
        exec: ExecMode::InstanceMajor,
        cache: false,
        disk: true,
    },
];

/// Inputs of one launch, generated from `--seed` before any clock starts.
struct LaunchInput {
    seeds: Vec<u32>,
    rng_seed: u64,
}

/// Everything one set-up builds.
struct Round {
    graph: Csr,
    algo: Box<dyn Algorithm>,
    opts: RunOptions,
    cache: Option<Arc<CtpsCache>>,
    tier: Option<Arc<DiskTierStats>>,
    store_dir: Option<PathBuf>,
    warmup: Vec<LaunchInput>,
    timed: Vec<LaunchInput>,
}

impl Drop for Round {
    fn drop(&mut self) {
        if let Some(dir) = self.store_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl Round {
    fn launch(&self, input: &LaunchInput) -> SampleOutput {
        let opts = RunOptions { seed: input.rng_seed, ..self.opts.clone() };
        Sampler::new(&self.graph, &self.algo).with_options(opts).run_single_seeds(&input.seeds)
    }

    /// The same launch on the plain path: instance-major, no cache, no
    /// disk tier.
    fn reference_launch(&self, input: &LaunchInput) -> SampleOutput {
        let opts = RunOptions { seed: input.rng_seed, ..RunOptions::default() };
        Sampler::new(&self.graph, &self.algo).with_options(opts).run_single_seeds(&input.seeds)
    }
}

/// Graph build, store write + open, cache, inputs and the warm-up
/// launches: everything between process start and the first timed launch.
fn set_up(spec: &Spec, args: &Args, setup: &mut SetUp, round: usize, launches: usize) -> Round {
    let (graph, pool) = build_graph(args, setup);
    let mut algo = AlgoSpec::by_name(spec.algo).expect("registry name").with_depth(spec.depth);
    if let Some(ns) = spec.neighbor_size {
        algo = algo.with_neighbor_size(ns);
    }
    let algo = algo.build().expect("valid algorithm spec");

    let walkers = if args.quick { spec.walkers / 8 } else { spec.walkers };
    let mut rng = SplitMix(args.seed);
    let mut inputs = |n: usize| -> Vec<LaunchInput> {
        (0..n)
            .map(|_| LaunchInput { seeds: rng.picks(&pool, walkers), rng_seed: rng.next_u64() })
            .collect()
    };
    let warmup = inputs(if args.quick { 1 } else { spec.warmup_launches });
    let timed = inputs(launches);

    // One chunk per launch: the auto size depends on the machine's core
    // count, and the group counts must not.
    let mut opts =
        RunOptions { exec: spec.exec, batch_chunk: Some(walkers), ..RunOptions::default() };
    let cache = spec.cache.then(|| Arc::new(CtpsCache::new(CACHE_BUDGET)));
    opts.ctps_cache = cache.clone();

    let (mut tier, mut store_dir) = (None, None);
    if spec.disk {
        let dir = out_dir().join(format!("store-{}-{}-{round}", spec.name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        setup
            .step("graph.store.write", || write_store(&dir, &graph, PARTITIONS, 0))
            .expect("write store");
        let store = setup.step("graph.store.open", || DiskStore::open(&dir));
        let store = Arc::new(store.expect("open store"));
        let pool_budget = ((store.total_decoded_bytes() as f64 * POOL_SHARE) as usize).max(4096);
        let shared = Arc::new(DiskTierStats::default());
        opts.disk = Some(DiskRunConfig { store, pool_budget, shared: Some(Arc::clone(&shared)) });
        tier = Some(shared);
        store_dir = Some(dir);
    }

    let round = Round { graph, algo, opts, cache, tier, store_dir, warmup, timed };
    setup.warm_up(|| run_phase(&round, &round.warmup, false, None).launch_ms);
    round
}

/// What one pass over the launch list measured.
struct Phase {
    launch_ms: Vec<f64>,
    launch_edges: Vec<u64>,
    stats: SimStats,
    cpu_s: f64,
    verified: u64,
    verify_failed: u64,
    last: Option<SampleOutput>,
}

impl Phase {
    fn edges(&self) -> u64 {
        self.launch_edges.iter().sum()
    }
    fn seps(&self) -> f64 {
        ratio(self.edges() as f64, self.launch_ms.iter().sum::<f64>() * 1e-3)
    }

    /// Folds in a repetition of the same launch list: every launch keeps
    /// the faster of its two times. Returns whether the repetition
    /// sampled the same number of edges launch by launch, as it must.
    fn keep_fastest(&mut self, rep: &Phase) -> bool {
        keep_fastest(&mut self.launch_ms, &rep.launch_ms);
        self.verified += rep.verified;
        self.verify_failed += rep.verify_failed;
        self.launch_edges == rep.launch_edges
    }
}

/// Every sampled edge is an edge of the graph.
fn edges_exist(graph: &Csr, out: &SampleOutput) -> bool {
    out.instances.iter().flatten().all(|&(v, u)| graph.has_edge(v, u))
}

/// Runs `inputs` as a closed loop on `round`'s state. One launch in
/// `SAMPLE_EVERY` is verified when `verify` is set and replayed when a
/// replayer is given; both happen between launches, outside every launch
/// clock.
fn run_phase(
    round: &Round,
    inputs: &[LaunchInput],
    verify: bool,
    mut trace: Option<(&mut Tracer, &mut Replayer)>,
) -> Phase {
    let mut phase = Phase {
        launch_ms: Vec::with_capacity(inputs.len()),
        launch_edges: Vec::with_capacity(inputs.len()),
        stats: SimStats::new(),
        cpu_s: 0.0,
        verified: 0,
        verify_failed: 0,
        last: None,
    };
    let cpu0 = cpu_seconds();
    for (i, input) in inputs.iter().enumerate() {
        let t0 = Instant::now();
        let out = round.launch(input);
        let t1 = Instant::now();
        let ns = t1.duration_since(t0).as_nanos() as u64;
        phase.launch_ms.push(ns as f64 * 1e-6);
        phase.launch_edges.push(out.sampled_edges());
        phase.stats.merge(&out.stats);
        let sampled = i % SAMPLE_EVERY == 0 || i + 1 == inputs.len();
        if let Some((tracer, replayer)) = trace.as_mut() {
            tracer.record("launch", i as u64, t0, t1);
            if sampled {
                replayer.replay(tracer, i as u64, input.rng_seed, &out, ns);
            }
        }
        if verify && sampled {
            phase.verified += 1;
            phase.verify_failed += u64::from(!edges_exist(&round.graph, &out));
        }
        phase.last = Some(out);
    }
    phase.cpu_s = cpu_seconds() - cpu0;
    phase
}

/// Runs one offline workload and reports it.
///
/// An untraced run repeats the same launch list [`REPETITIONS`] times,
/// each after its own set-up, and keeps every launch's fastest time. A
/// traced run does two passes: plain (the baseline of
/// `bench.trace_overhead_share`), then traced.
pub fn run(spec: &Spec, args: &Args, tracer: &mut Tracer) -> Report {
    let rounds = args.passes();
    let launches = args.work(spec.launches_per_second / rounds as f64, 4);

    let mut report = Report::new();
    let mut setups = Vec::new();
    let mut plain: Option<Phase> = None;
    let mut measured: Option<Phase> = None;
    let mut repetitions_agree = true;
    for r in 0..rounds {
        let mut setup = SetUp::begin(tracer, r);
        let round = set_up(spec, args, &mut setup, r, launches);
        setups.push(setup.finish());
        if args.is_plain_baseline(r) {
            plain = Some(run_phase(&round, &round.timed, false, None));
            continue;
        }

        let phase = if args.trace {
            let before = Counters::read(&round);
            let budget = round.cache.as_ref().map(|c| c.budget());
            let mut replayer = Replayer::new(
                &round.graph,
                round.algo.as_ref(),
                spec.exec == ExecMode::DepthSync,
                budget,
                round.opts.disk.as_ref(),
            );
            let phase = run_phase(&round, &round.timed, true, Some((tracer, &mut replayer)));
            let counts = Counters::read(&round).since(&before);
            let mut layers = Layers::new();
            let plain = plain.as_ref().unwrap_or(&phase);
            fill_layers(
                &mut layers,
                spec,
                &round,
                tracer,
                &phase,
                plain,
                &replayer.totals,
                &counts,
            );
            report.layers = Some(layers);
            phase
        } else {
            run_phase(&round, &round.timed, true, None)
        };
        report.attempted += phase.launch_ms.len() as u64;
        report.failed += phase.verify_failed;
        if r + 1 == rounds {
            check_round(&mut report, args, &round, &phase);
        }
        match measured.as_mut() {
            None => measured = Some(phase),
            Some(first) => repetitions_agree &= first.keep_fastest(&phase),
        }
    }

    let phase = measured.expect("at least one round measures");
    report.check("repetitions_sampled_the_same_edges", repetitions_agree);
    report.measured(&setups, phase.edges(), &phase.launch_ms);
    report.notes.push(format!(
        "{} launches verified edge by edge, {} failed",
        phase.verified, phase.verify_failed
    ));
    report
}

/// The untimed checks on the state the last repetition left.
fn check_round(report: &mut Report, args: &Args, round: &Round, phase: &Phase) {
    // The last launch again on the plain path: instance-major, no cache,
    // no disk tier. Depth-sync + cache and the disk tier must match it
    // bit for bit; on the two plain workloads it checks determinism.
    let last = phase.last.as_ref().expect("at least one launch");
    let reference = round.reference_launch(round.timed.last().expect("at least one launch"));
    report.check("bit_identical_to_plain_launch", reference.instances == last.instances);
    if let Some(cache) = round.cache.as_ref() {
        report.check("ctps_cache_conserved", cache.snapshot().is_conserved());
    }
    if let Some(disk) = round.opts.disk.as_ref() {
        let snap = with_thread_disk_access(disk, |a| a.snapshot());
        report.check("disk_pool_conserved", snap.is_conserved() && snap.lookups > 0);
    }
    report.notes.push(format!(
        "graph rmat({}, 16, GRAPH500, {GRAPH_SEED}): {} vertices, {} edges, CSR {:.2} MB; {} walkers a launch",
        args.graph_scale(),
        round.graph.num_vertices(),
        round.graph.num_edges(),
        round.graph.size_bytes() as f64 / 1e6,
        round.timed[0].seeds.len()
    ));
}

/// Cache and disk-tier counters, read at phase boundaries.
#[derive(Default, Clone, Copy)]
struct Counters {
    cache: CacheSnapshot,
    disk_lookups: u64,
    disk_hits: u64,
    disk_evictions: u64,
    disk_decode_bytes: u64,
}

impl Counters {
    fn read(round: &Round) -> Counters {
        let mut c = Counters::default();
        if let Some(cache) = round.cache.as_ref() {
            c.cache = cache.snapshot();
        }
        if let Some(t) = round.tier.as_ref() {
            c.disk_lookups = t.lookups.load(Relaxed);
            c.disk_hits = t.hits.load(Relaxed);
            c.disk_evictions = t.evictions.load(Relaxed);
            c.disk_decode_bytes = t.decode_bytes.load(Relaxed);
        }
        c
    }

    fn since(&self, before: &Counters) -> Counters {
        let mut d = *self;
        d.cache.lookups -= before.cache.lookups;
        d.cache.hits -= before.cache.hits;
        d.cache.evictions -= before.cache.evictions;
        d.cache.admission_rejects -= before.cache.admission_rejects;
        d.disk_lookups -= before.disk_lookups;
        d.disk_hits -= before.disk_hits;
        d.disk_evictions -= before.disk_evictions;
        d.disk_decode_bytes -= before.disk_decode_bytes;
        d
    }
}

/// Turns a traced phase into the per-layer metrics of this workload.
#[allow(clippy::too_many_arguments)]
fn fill_layers(
    layers: &mut Layers,
    spec: &Spec,
    round: &Round,
    tracer: &Tracer,
    traced: &Phase,
    plain: &Phase,
    t: &ReplayTotals,
    counts: &Counters,
) {
    let picks = t.picks as f64;
    layers.set("graph.generators.build_s", median(&tracer.durations_s("graph.generators.build")));
    layers.set("graph.store.write_s", median(&tracer.durations_s("graph.store.write")));
    layers.set("graph.store.open_s", median(&tracer.durations_s("graph.store.open")));
    layers.set(
        "graph.store.decode_us_per_partition",
        ratio(t.decode_ns as f64 * 1e-3, t.decodes as f64),
    );

    let gather = if spec.disk { "core.residency.gather_ns" } else { "core.step.gather_ns" };
    layers.set(gather, ratio(t.gather_ns as f64, t.gathers as f64));
    layers.set("core.ctps.build_ns_per_edge", ratio(t.build_ns as f64, t.build_edges as f64));
    layers.set("core.select.ns_per_pick", ratio(t.select_self_ns() as f64, picks));
    let s = &traced.stats;
    layers.set(
        "core.select.iterations_per_pick",
        ratio(s.select_iterations as f64, s.selections as f64),
    );
    layers.set(
        "core.select.collision_share",
        ratio(s.select_iterations.saturating_sub(s.selections) as f64, s.select_iterations as f64),
    );

    layers.set("core.ctps_cache.lookup_ns", ratio(t.lookup_ns as f64, t.lookups as f64));
    layers.set(
        "core.ctps_cache.hit_share",
        ratio(counts.cache.hits as f64, counts.cache.lookups as f64),
    );
    layers.set("core.ctps_cache.evictions", counts.cache.evictions as f64);
    layers.set("core.ctps_cache.admission_rejects", counts.cache.admission_rejects as f64);
    layers.set(
        "core.batch.group_size_mean",
        ratio(s.batch_group_entries as f64, s.batch_groups as f64),
    );
    layers.set(
        "core.batch.prefetch_hit_share",
        ratio(s.batch_prefetch_hits as f64, s.batch_groups as f64),
    );
    layers.set(
        "core.residency.pool_hit_share",
        ratio(counts.disk_hits as f64, counts.disk_lookups as f64),
    );
    layers.set("core.residency.evictions", counts.disk_evictions as f64);
    layers.set("core.residency.decode_bytes", counts.disk_decode_bytes as f64);

    layers.set("gpu.rng.ns_per_draw", ratio(t.rng_ns as f64, t.rng_draws as f64));
    layers.set("gpu.rng.draws_per_edge", ratio(s.rng_draws as f64, traced.edges() as f64));
    layers.set(
        "core.engine.unattributed_share",
        1.0 - ratio(t.attributed_ns() as f64, t.launch_ns as f64),
    );

    // The frozen reference walker on the first launch's seeds.
    let ref_seps = ref_walk_seps(&round.graph, &round.timed[0].seeds, spec.depth, 16);
    layers.set("bench.ref_walk_seps", ref_seps);
    if spec.name == "walk_uniform" {
        layers.set("core.engine.overhead_x", ratio(ref_seps, plain.seps()));
    }

    layers.set("bench.cpu_us_per_edge", ratio(plain.cpu_s * 1e6, plain.edges() as f64));
    layers.set("bench.request_ms_p99", percentile(&traced.launch_ms, 0.99));
    layers.set(
        "bench.trace_overhead_share",
        paired_overhead_share(&plain.launch_ms, &traced.launch_ms),
    );
}
