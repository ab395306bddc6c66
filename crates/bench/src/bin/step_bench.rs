//! Hot-path microbench for the shared expand step: steps/sec and
//! heap-allocations-per-step for every Table-I algorithm.
//!
//! Unlike `repro` (which reproduces the paper's figures through the full
//! runtimes), this bench drives [`StepKernel`] directly, single-threaded,
//! through the engine's own per-instance depth loop. That isolates
//! exactly the code the zero-allocation work targets — candidate/bias
//! construction and SELECT — from scheduler noise, and makes the
//! before/after comparison an apples-to-apples measurement of the kernel.
//!
//! Two metrics per algorithm:
//!
//! - **steps/sec**: kernel invocations (one `expand`, `expand_layer`, or
//!   `expand_replace` call) per wall-clock second over repeated full runs.
//! - **allocs/step, bytes/step**: heap traffic of one *steady-state*
//!   repetition, counted by [`CountingAllocator`]. The first repetition
//!   warms every buffer (driver pools, visited sets, kernel scratch);
//!   the measured repetition performs identical work, so any allocation
//!   it makes is per-step churn, not warm-up.
//!
//! Output: human-readable table on stdout, plus optional `--json` /
//! `--csv` row dumps (the checked-in `BENCH_step.json` and
//! `results_csv/step_hot_path.csv` are assembled from these).
//!
//! Usage: `step_bench [--quick] [--label NAME] [--json PATH] [--csv PATH]`

use csaw_core::algorithms::registry::{AlgoSpec, AlgorithmId};
use csaw_core::api::{AlgoConfig, Algorithm, FrontierMode};
use csaw_core::engine::{drive_pool, PoolBufs};
use csaw_core::select::SelectConfig;
use csaw_core::step::{CsrAccess, StepKernel, StepScratch};
use csaw_gpu::alloc_count::CountingAllocator;
use csaw_gpu::stats::SimStats;
use csaw_graph::generators::{rmat, RmatParams};
use csaw_graph::{Csr, VertexId};
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Reusable driver state: one instance's pools and outputs, cleared (never
/// dropped) between instances and repetitions so steady-state repetitions
/// run entirely in warmed capacity.
#[derive(Default)]
struct DriverBufs {
    pool: PoolBufs,
    out: Vec<(VertexId, VertexId)>,
    stats: SimStats,
    scratch: StepScratch,
}

/// One full repetition: every instance of `algo` over its seed chunks,
/// each through the engine's own per-instance depth loop. Returns (kernel
/// step invocations, sampled edges).
fn run_rep(
    kernel: &StepKernel<'_>,
    g: &Csr,
    chunks: &[Vec<VertexId>],
    b: &mut DriverBufs,
) -> (u64, u64) {
    let mut access = CsrAccess { graph: g };
    let (mut steps, mut edges) = (0u64, 0u64);
    for (inst, seeds) in chunks.iter().enumerate() {
        b.out.clear();
        steps += drive_pool(
            kernel,
            &mut access,
            inst as u32,
            seeds,
            &mut b.pool,
            &mut b.out,
            &mut b.scratch,
            &mut b.stats,
        );
        edges += b.out.len() as u64;
    }
    (steps, edges)
}

struct Row {
    algo: &'static str,
    mode: &'static str,
    uniform_bias: bool,
    steps: u64,
    edges: u64,
    steps_per_sec: f64,
    allocs_per_step: f64,
    bytes_per_step: f64,
}

fn mode_name(cfg: &AlgoConfig) -> &'static str {
    match cfg.frontier {
        FrontierMode::IndependentPerVertex => "per-vertex",
        FrontierMode::SharedLayer => "layer",
        FrontierMode::BiasedReplace => "replace",
    }
}

/// Algorithms whose EDGEBIAS is the uniform default — the ≥1.5× steps/sec
/// target population (static-bias algorithms, ISSUE 4).
fn has_uniform_edge_bias(id: AlgorithmId) -> bool {
    !matches!(
        id,
        AlgorithmId::BiasedRandomWalk
            | AlgorithmId::Node2Vec
            | AlgorithmId::BiasedNeighborSampling
            | AlgorithmId::LayerSampling
    )
}

fn bench_algorithm(id: AlgorithmId, g: &Csr, instances: usize, timed_reps: usize) -> Row {
    // Bench-scale parameters: short walks, registry-default depths.
    let spec =
        if id.uses_walk_length() { AlgoSpec::new(id).with_depth(16) } else { AlgoSpec::new(id) };
    let algo = spec.build().expect("registry specs are valid");
    let cfg = algo.config();

    // Pool-frontier algorithms get 3-seed pools; the rest one seed per
    // instance. Seeds stride the vertex set deterministically.
    let n = g.num_vertices() as VertexId;
    let seeds_per = match cfg.frontier {
        FrontierMode::IndependentPerVertex => 1,
        _ => 3,
    };
    let chunks: Vec<Vec<VertexId>> = (0..instances)
        .map(|i| (0..seeds_per).map(|j| ((i * seeds_per + j) as VertexId * 131) % n).collect())
        .collect();

    let kernel = StepKernel::new(&*algo, 0x5eed).with_select(SelectConfig::paper_best());
    let mut bufs = DriverBufs::default();

    // Warm-up: establishes every buffer capacity (deterministic work, so
    // the measured repetitions never outgrow it). Two passes, because the
    // pool/frontier double-buffer swaps roles when a repetition performs
    // an odd number of depth steps — the second pass warms the other
    // parity.
    let (steps, edges) = run_rep(&kernel, g, &chunks, &mut bufs);
    run_rep(&kernel, g, &chunks, &mut bufs);

    // Allocation measurement: one steady-state repetition.
    let before = ALLOC.snapshot();
    let (steps2, _) = run_rep(&kernel, g, &chunks, &mut bufs);
    let delta = ALLOC.snapshot().since(&before);
    assert_eq!(steps, steps2, "repetitions must perform identical work");

    // Throughput: timed repetitions.
    let t0 = Instant::now();
    let mut total_steps = 0u64;
    for _ in 0..timed_reps {
        total_steps += run_rep(&kernel, g, &chunks, &mut bufs).0;
    }
    let elapsed = t0.elapsed().as_secs_f64();

    Row {
        algo: id.name(),
        mode: mode_name(&cfg),
        uniform_bias: has_uniform_edge_bias(id),
        steps,
        edges,
        steps_per_sec: total_steps as f64 / elapsed,
        allocs_per_step: delta.allocations as f64 / steps as f64,
        bytes_per_step: delta.bytes as f64 / steps as f64,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let flag = |name: &str| -> Option<String> {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
    };
    let label = flag("--label").unwrap_or_else(|| "run".to_string());
    let json_path = flag("--json");
    let csv_path = flag("--csv");

    // RMAT graph: power-law degrees exercise both short and long
    // adjacency gathers, like the paper's Table-II inputs.
    let (scale, instances, timed_reps) = if quick { (9, 16, 2) } else { (13, 192, 12) };
    let g = rmat(scale, 8, RmatParams::MILD, 42);
    println!(
        "step_bench [{label}]: rmat scale={scale} ({} vertices, {} edges), {instances} instances, {timed_reps} timed reps",
        g.num_vertices(),
        g.num_edges()
    );
    println!(
        "{:<28} {:>10} {:>9} {:>14} {:>12} {:>12}",
        "algorithm", "mode", "steps", "steps/sec", "allocs/step", "bytes/step"
    );

    let mut rows = Vec::new();
    for id in AlgorithmId::ALL {
        let row = bench_algorithm(id, &g, instances, timed_reps);
        println!(
            "{:<28} {:>10} {:>9} {:>14.0} {:>12.2} {:>12.1}",
            row.algo,
            row.mode,
            row.steps,
            row.steps_per_sec,
            row.allocs_per_step,
            row.bytes_per_step
        );
        rows.push(row);
    }

    if let Some(path) = json_path {
        let mut s = String::from("[\n");
        for (i, r) in rows.iter().enumerate() {
            s.push_str(&format!(
                "  {{\"label\": \"{}\", \"algo\": \"{}\", \"mode\": \"{}\", \
                 \"uniform_bias\": {}, \"steps\": {}, \"edges\": {}, \
                 \"steps_per_sec\": {:.1}, \"allocs_per_step\": {:.3}, \
                 \"bytes_per_step\": {:.1}}}{}\n",
                label,
                r.algo,
                r.mode,
                r.uniform_bias,
                r.steps,
                r.edges,
                r.steps_per_sec,
                r.allocs_per_step,
                r.bytes_per_step,
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        s.push_str("]\n");
        std::fs::write(&path, s).expect("write json");
        println!("wrote {path}");
    }
    if let Some(path) = csv_path {
        let mut s =
            String::from("label,algo,mode,uniform_bias,steps,edges,steps_per_sec,allocs_per_step,bytes_per_step\n");
        for r in &rows {
            s.push_str(&format!(
                "{},{},{},{},{},{},{:.1},{:.3},{:.1}\n",
                label,
                r.algo,
                r.mode,
                r.uniform_bias,
                r.steps,
                r.edges,
                r.steps_per_sec,
                r.allocs_per_step,
                r.bytes_per_step
            ));
        }
        std::fs::write(&path, s).expect("write csv");
        println!("wrote {path}");
    }
}
