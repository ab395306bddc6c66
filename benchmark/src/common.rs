//! What every workload shares: the command line, the metric catalogue,
//! the graph and its seed pool, process readings and the report.

use crate::stats::{keep_fastest, median, percentile, ratio, Metric};
use crate::trace::Tracer;
use csaw_graph::generators::{rmat, RmatParams};
use csaw_graph::Csr;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// The five workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 5] =
    ["walk_uniform", "neighbor_biased", "walk_biased_depth", "disk_walk", "serve_mixed"];

/// End-to-end metrics: `(name, unit)`, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("seps", "edges/s"), ("request_ms_p50", "ms"), ("peak_rss_mb", "MB")];

/// Per-layer metrics: `(name, unit)`, as in `BENCHMARK.json`. A traced
/// run prints every one for every workload; 0 means the layer does no
/// work on that workload (README.md has the layer-by-workload table).
pub const PER_LAYER: [(&str, &str); 36] = [
    ("graph.generators.build_s", "s"),
    ("graph.store.write_s", "s"),
    ("graph.store.open_s", "s"),
    ("graph.store.decode_us_per_partition", "us"),
    ("graph.dynamic.apply_batch_us", "us"),
    ("graph.dynamic.overlay_vertices_end", "count"),
    ("core.step.gather_ns", "ns"),
    ("core.ctps.build_ns_per_edge", "ns"),
    ("core.select.ns_per_pick", "ns"),
    ("core.select.iterations_per_pick", "ratio"),
    ("core.select.collision_share", "ratio"),
    ("core.ctps_cache.lookup_ns", "ns"),
    ("core.ctps_cache.hit_share", "ratio"),
    ("core.ctps_cache.evictions", "count"),
    ("core.ctps_cache.admission_rejects", "count"),
    ("core.batch.group_size_mean", "count"),
    ("core.batch.prefetch_hit_share", "ratio"),
    ("core.residency.gather_ns", "ns"),
    ("core.residency.pool_hit_share", "ratio"),
    ("core.residency.evictions", "count"),
    ("core.residency.decode_bytes", "bytes"),
    ("gpu.rng.ns_per_draw", "ns"),
    ("gpu.rng.draws_per_edge", "ratio"),
    ("core.engine.unattributed_share", "ratio"),
    ("core.engine.overhead_x", "ratio"),
    ("service.inproc_ms_p50", "ms"),
    ("service.queue_wait_us_p50", "us"),
    ("service.batch_instances_mean", "count"),
    ("service.biased_drift_x", "ratio"),
    ("serve.wire.encode_ns_per_kb", "ns"),
    ("serve.wire.decode_ns_per_kb", "ns"),
    ("serve.server.overhead_ms_p50", "ms"),
    ("bench.cpu_us_per_edge", "us"),
    ("bench.request_ms_p99", "ms"),
    ("bench.trace_overhead_share", "ratio"),
    ("bench.ref_walk_seps", "edges/s"),
];

/// Per-layer metrics made only of counts the program keeps: they repeat
/// exactly for a seed, and go into the span file beside the spans.
pub const EXACT_COUNTS: [&str; 13] = [
    "graph.dynamic.overlay_vertices_end",
    "core.select.iterations_per_pick",
    "core.select.collision_share",
    "core.ctps_cache.hit_share",
    "core.ctps_cache.evictions",
    "core.ctps_cache.admission_rejects",
    "core.batch.group_size_mean",
    "core.batch.prefetch_hit_share",
    "core.residency.pool_hit_share",
    "core.residency.evictions",
    "core.residency.decode_bytes",
    "gpu.rng.draws_per_edge",
    "service.batch_instances_mean",
];

/// An untraced run repeats its fixed request list this many times, each
/// after its own set-up, and times every request by the fastest of its
/// repetitions. Interference from the box's other tenants only ever adds
/// time, and comes and goes within seconds, so the fastest of ten
/// identical requests spread over the run sits near the quiet-box time
/// where one pass swings by a quarter (README.md, "Noise").
pub const REPETITIONS: usize = 10;

/// One launch in this many is verified (and, traced, replayed).
pub const SAMPLE_EVERY: usize = 16;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <n> --trace [0|1]
    /// --quick`. Every flag is optional.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args { workload: None, seed: 1, seconds: 10, trace: false, quick: false };
        let mut it = argv.iter().peekable();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let w = value("--workload")?;
                    if !WORKLOADS.contains(&w.as_str()) {
                        return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
                    }
                    args.workload = Some(w.clone());
                }
                "--seed" => {
                    args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    args.seconds =
                        value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(1..=60).contains(&args.seconds) {
                        return Err("--seconds must be 1..=60".into());
                    }
                }
                "--quick" => args.quick = true,
                // `--trace 1`, `--trace 0`, or a bare `--trace`.
                "--trace" => match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        args.trace = false;
                    }
                    Some("1") => {
                        it.next();
                        args.trace = true;
                    }
                    _ => args.trace = true,
                },
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(args)
    }

    /// R-MAT scale of the workload graph. 14 keeps the CSR (~1.9 MB)
    /// inside a 4 MiB private L2: a graph that spills it swung 17% from
    /// run to run on the shared box (README.md, "Noise").
    pub fn graph_scale(&self) -> u32 {
        if self.quick {
            10
        } else {
            14
        }
    }

    /// Passes over the request list, each after its own set-up: the
    /// repetitions of an untraced run, or a traced run's plain pass and
    /// traced pass.
    pub fn passes(&self) -> usize {
        match (self.quick, self.trace) {
            (true, _) => 1,
            (false, true) => 2,
            (false, false) => REPETITIONS,
        }
    }

    /// Whether pass `r` is the plain baseline of a traced run.
    pub fn is_plain_baseline(&self, r: usize) -> bool {
        self.trace && !self.quick && r == 0
    }

    /// Fixed work from `--seconds`: `per_second` is the rate measured on
    /// the reference box, so a run lasts about `--seconds` there and does
    /// the same work everywhere.
    pub fn work(&self, per_second: f64, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            ((per_second * self.seconds as f64).round() as usize).max(1)
        }
    }
}

/// The graph is the data set and does not change with `--seed`; the
/// request lists do. Between R-MAT seeds `walk_biased_depth`'s `seps`
/// differed by 13% (the cache hit rate follows the hub structure), far
/// more than between runs, so a per-seed graph would have measured the
/// generator (README.md, "Noise").
pub const GRAPH_SEED: u64 = 42;

/// Builds the workload graph as the set-up step `graph.generators.build`
/// and returns it with its seed pool (the vertices of degree > 0).
pub fn build_graph(args: &Args, setup: &mut SetUp) -> (Csr, Vec<u32>) {
    let graph = setup.step("graph.generators.build", || {
        rmat(args.graph_scale(), 16, RmatParams::GRAPH500, GRAPH_SEED)
    });
    let pool = (0..graph.num_vertices() as u32).filter(|&v| graph.degree(v) > 0).collect();
    (graph, pool)
}

/// One set-up, clocked step by step. `setup_s` is process start to first
/// timed operation, and like the timed requests every step of it is
/// timed by the fastest of its repetitions ([`setup_seconds`]).
pub struct SetUp<'t> {
    tracer: &'t mut Tracer,
    span: usize,
    started: Instant,
    steps: Vec<f64>,
}

impl SetUp<'_> {
    /// Opens set-up `round` of a run. The first began with the process.
    pub fn begin(tracer: &mut Tracer, round: usize) -> SetUp<'_> {
        let span = tracer.begin("setup", round as u64);
        let started = if round == 0 { tracer.backdate_to_origin(span) } else { Instant::now() };
        SetUp { tracer, span, started, steps: Vec::new() }
    }

    /// Runs one step inside a span of its own.
    pub fn step<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let (r, seconds) = self.tracer.span(name, 0, f);
        self.steps.push(seconds);
        r
    }

    /// Runs the warm-up inside a `warmup` span. `f` returns the time of
    /// each warm-up request in milliseconds; each is a step.
    pub fn warm_up(&mut self, f: impl FnOnce() -> Vec<f64>) {
        let (ms, _) = self.tracer.span("warmup", 0, f);
        self.steps.extend(ms.iter().map(|ms| ms * 1e-3));
    }

    /// Closes the set-up. The last step is whatever the named steps do not
    /// cover: input generation, algorithm and cache construction.
    pub fn finish(mut self) -> Vec<f64> {
        let total = self.started.elapsed().as_secs_f64();
        self.tracer.end(self.span);
        let rest = total - self.steps.iter().sum::<f64>();
        self.steps.push(rest.max(0.0));
        self.steps
    }
}

/// `setup_s` from the step times of a run's set-ups: every step counts
/// with the fastest of its repetitions.
pub fn setup_seconds(rounds: &[Vec<f64>]) -> f64 {
    let mut fastest = rounds.first().cloned().unwrap_or_default();
    for round in rounds.iter().skip(1) {
        keep_fastest(&mut fastest, round);
    }
    fastest.iter().sum()
}

/// Whole set-ups in seconds, for the reader.
fn rounds_totals(rounds: &[Vec<f64>]) -> Vec<f64> {
    rounds.iter().map(|steps| steps.iter().sum()).collect()
}

/// Where the benchmark writes (`benchmark/out`): inside the checkout it
/// runs from, or beside its manifest when started elsewhere.
pub fn out_dir() -> PathBuf {
    let dir = if std::path::Path::new("benchmark/Cargo.toml").is_file() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
    };
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system, all threads) this process has used.
/// `/proc/self/stat` counts in `USER_HZ` ticks, which is 100 on Linux.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 after the name.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 =
        after.split_whitespace().skip(11).take(2).filter_map(|t| t.parse::<f64>().ok()).sum();
    ticks / 100.0
}

/// Per-layer values by name; starts with the whole catalogue at 0.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Layers {
        Layers(PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect())
    }

    /// Sets a catalogued metric; a name outside the catalogue is a bug.
    pub fn set(&mut self, name: &str, value: f64) {
        *self.0.get_mut(name).unwrap_or_else(|| panic!("{name} is not a per-layer metric")) = value;
    }

    /// Every per-layer metric, in catalogue order.
    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER.iter().map(|&(name, unit)| Metric { name, unit, value: self.0[name] }).collect()
    }

    /// The [`EXACT_COUNTS`] subset, for the span file.
    pub fn exact_counts(&self) -> Vec<(String, f64)> {
        EXACT_COUNTS.iter().map(|&name| (name.to_string(), self.0[name])).collect()
    }
}

/// What one workload run found.
pub struct Report {
    /// Timed operations (launches or wire requests) plus named checks.
    pub attempted: u64,
    /// Operations that failed, were refused or did not verify.
    pub failed: u64,
    /// Named verification outcomes (each also counted above).
    pub checks: Vec<(&'static str, bool)>,
    /// `setup_s`, `seps`, `request_ms_p50` (peak RSS is read at exit).
    pub end_to_end: Vec<Metric>,
    /// Set on a traced run.
    pub layers: Option<Layers>,
    /// Lines for the reader: sample counts, sizes, tails.
    pub notes: Vec<String>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            end_to_end: Vec::new(),
            layers: None,
            notes: Vec::new(),
        }
    }

    /// Records a named check; a failed check is a failed operation.
    pub fn check(&mut self, name: &'static str, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        self.checks.push((name, ok));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Sets the timing metrics from the set-ups' step times and the
    /// per-request times of the timed list, which sampled `edges` edges.
    pub fn measured(&mut self, setups: &[Vec<f64>], edges: u64, request_ms: &[f64]) {
        let request_s = request_ms.iter().sum::<f64>() * 1e-3;
        self.end_to_end = vec![
            Metric { name: "setup_s", unit: "s", value: setup_seconds(setups) },
            Metric { name: "seps", unit: "edges/s", value: ratio(edges as f64, request_s) },
            Metric { name: "request_ms_p50", unit: "ms", value: median(request_ms) },
        ];
        self.notes.push(format!(
            "timed: {} requests, {edges} edges in {request_s:.3} s inside requests; set-ups {:?} s",
            request_ms.len(),
            rounds_totals(setups)
        ));
        self.notes.push(format!(
            "request_ms p50 {:.4} / p99 {:.4} over {} requests",
            median(request_ms),
            percentile(request_ms, 0.99),
            request_ms.len()
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse("--workload disk_walk --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!((a.workload.as_deref(), a.seed, a.seconds), (Some("disk_walk"), 7, 12));
        assert!(a.trace && !a.quick);
        assert!(!parse("--trace 0").unwrap().trace);
        assert!(parse("--trace --quick").unwrap().trace);
        assert!(parse("--trace --quick").unwrap().quick);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--frobnicate").is_err());
    }

    #[test]
    fn work_is_fixed_by_seconds_alone() {
        let a = parse("--seconds 10").unwrap();
        assert_eq!(a.work(26.0, 4), 260);
        assert_eq!(a.work(0.01, 4), 1);
        assert_eq!(parse("--quick").unwrap().work(26.0, 4), 4);
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} [{unit}] is missing from BENCHMARK.json"
            );
        }
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w} missing");
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn layers_start_complete_and_reject_unknown_names() {
        let mut l = Layers::new();
        l.set("core.step.gather_ns", 3.0);
        let m = l.metrics();
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(m[6].value, 3.0);
        assert!(std::panic::catch_unwind(move || l.set("nope", 1.0)).is_err());
    }

    #[test]
    fn setup_counts_every_step_once_at_its_fastest() {
        let mut tracer = Tracer::new(Instant::now());
        let mut rounds = Vec::new();
        for r in 0..2 {
            let mut setup = SetUp::begin(&mut tracer, r);
            assert_eq!(setup.step("graph.generators.build", || 7), 7);
            setup.warm_up(|| vec![2.0, 3.0]);
            rounds.push(setup.finish());
        }
        assert_eq!(rounds[0].len(), 4);
        assert_eq!(rounds[0][1..3], [0.002, 0.003]);
        assert_eq!(tracer.spans()[0].start_ns, 0, "the first set-up starts with the process");
        assert_eq!(tracer.spans()[1].parent, Some(0));
        assert_eq!(tracer.spans()[2].name, "warmup");
        assert_eq!(setup_seconds(&[vec![1.0, 5.0, 0.5], vec![2.0, 4.0, 0.25]]), 5.25);
        assert_eq!(rounds_totals(&[vec![1.0, 5.0], vec![2.0, 4.0]]), [6.0, 6.0]);
        assert_eq!(setup_seconds(&[]), 0.0);
    }

    #[test]
    fn process_readings_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
