//! Sensitivity sweeps beyond the paper's Fig. 16: sampling depth (the
//! exponential-frontier claim behind the Fig. 14 analysis) and the
//! out-of-memory runtime's structural knobs (streams, resident
//! partitions).
//!
//! Four more sweeps cover what the cache-resident benchmark
//! (`BENCHMARK.json`) does not show: the execution schedule out of LLC
//! ([`sweep_exec`]), the disk tier's pool budget ([`sweep_disk`]), the
//! mutable graph's overlay fraction ([`sweep_overlay`]) and the adaptive
//! method policy, which no workload runs ([`sweep_method`]). Their rates
//! are host wall-clock, so unlike every other `repro` table they differ
//! from run to run; each asserts on every row that the sample matches
//! its reference — bit for bit, or for the method policy, in edge count.

use crate::experiments::graph_for;
use crate::report::{f2, f3, ms, Table};
use crate::scale::{seeds, Scale};
use csaw_core::algorithms::{BiasedNeighborSampling, BiasedRandomWalk};
use csaw_core::engine::{ExecMode, RunOptions, Sampler};
use csaw_core::method::MethodPolicy;
use csaw_core::residency::{DiskRunConfig, DiskTierStats};
use csaw_core::{AlgoSpec, Algorithm, SampleOutput};
use csaw_gpu::config::DeviceConfig;
use csaw_gpu::Device;
use csaw_graph::generators::{rmat, RmatParams};
use csaw_graph::store::write_store;
use csaw_graph::{datasets, DiskStore, EdgeEdit, MutableGraph, VertexId};
use csaw_oom::{OomConfig, OomRunner};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

/// Depth sweep: "active vertices increase exponentially with depth
/// during sampling" (§VI-C's explanation of the Fig. 14 trends). Sampled
/// edges per instance ≈ NS^depth until without-replacement saturates.
pub fn sweep_depth(scale: Scale) -> Vec<Table> {
    let dev = DeviceConfig::v100();
    let mut t = Table::new(
        "Depth sweep - biased neighbor sampling, NS = 2 (edges/instance and time)",
        &["graph", "d=1", "d=2", "d=3", "d=4", "d=5", "time d=5 ms"],
    );
    for spec in datasets::in_memory() {
        let g = graph_for(&spec);
        let s = seeds(scale.sampling_instances() / 2, g.num_vertices());
        let mut cells = vec![spec.abbr.to_string()];
        let mut last_time = 0.0;
        for depth in 1..=5usize {
            let algo = BiasedNeighborSampling { neighbor_size: 2, depth };
            let out = Sampler::new(&g, &algo).with_device(Device::v100()).run_single_seeds(&s);
            cells.push(f2(out.edges_per_instance()));
            last_time = out.kernel_seconds(&dev);
        }
        cells.push(ms(last_time));
        t.row(cells);
    }
    vec![t, frontier_profile(scale)]
}

/// Companion table: the frontier size per depth measured directly with
/// the BSP depth profiler.
fn frontier_profile(scale: Scale) -> Table {
    use csaw_baselines::profile::profile_depths;
    let mut t = Table::new(
        "Frontier size per depth (biased-ns, NS = 2, depth 5) - the exponential-growth claim",
        &["graph", "d0", "d1", "d2", "d3", "d4"],
    );
    for spec in datasets::in_memory() {
        let g = graph_for(&spec);
        let s = seeds(scale.sampling_instances() / 4, g.num_vertices());
        let algo = BiasedNeighborSampling { neighbor_size: 2, depth: 5 };
        let prof = profile_depths(&g, &algo, &s, 0x0D);
        let mut cells = vec![spec.abbr.to_string()];
        for d in 0..5 {
            cells.push(prof.get(d).map(|p| p.frontier.to_string()).unwrap_or_else(|| "-".into()));
        }
        t.row(cells);
    }
    t
}

/// Out-of-memory structural sweep on the Friendster stand-in: streams ×
/// resident partitions, end-to-end time and transfers.
pub fn sweep_oom(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "OOM structure sweep - unbiased-ns on FR (time ms / transfers)",
        &["partitions", "kernels", "resident", "time ms", "transfers", "rounds"],
    );
    let spec = datasets::by_abbr("FR").unwrap();
    let g = graph_for(&spec);
    let s = seeds(scale.oom_instances() / 2, g.num_vertices());
    let algo = csaw_core::algorithms::UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 };
    for (parts, kernels, resident) in
        [(4usize, 1usize, 2usize), (4, 2, 2), (4, 2, 3), (4, 4, 4), (8, 2, 2), (8, 2, 4), (8, 4, 4)]
    {
        let cfg = OomConfig {
            num_partitions: parts,
            num_kernels: kernels,
            resident_partitions: resident,
            ..OomConfig::full()
        };
        let out = OomRunner::new(&g, &algo, cfg).with_device(DeviceConfig::tiny(1 << 20)).run(&s);
        t.row(vec![
            parts.to_string(),
            kernels.to_string(),
            resident.to_string(),
            ms(out.sim_seconds),
            out.transfers.to_string(),
            out.rounds.to_string(),
        ]);
    }
    vec![t]
}

/// Sampled edges per host second over `reps` runs of `run(rep)`.
fn edges_per_sec(reps: usize, mut run: impl FnMut(usize) -> SampleOutput) -> f64 {
    let t0 = Instant::now();
    let edges: u64 = (0..reps).map(|rep| run(rep).sampled_edges()).sum();
    edges as f64 / t0.elapsed().as_secs_f64()
}

/// `num / den`, or 0 when nothing was counted.
fn share(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Execution-order sweep: instance-major against depth-synchronous
/// execution over prefetch distance × group size (chunk), on an R-MAT
/// graph inside LLC and, at `--full`, one (rmat-20, ≈ 260 MB of CSR)
/// far outside it — the regime where instance-major execution stalls on
/// a dependent DRAM miss every step and the depth-synchronous schedule
/// (ThunderRW's step interleaving) can prefetch rows a depth ahead.
/// Work per run is identical across schedules, so `speedup` is pure
/// schedule. Every depth-synchronous row is asserted bit-identical to
/// the instance-major row it is measured against.
pub fn sweep_exec(scale: Scale) -> Vec<Table> {
    // (rmat scale, edge factor, timed reps); walkers for walks,
    // biased-neighbor and snowball (whose frontier covers much of the
    // graph by depth 2).
    let full = scale == Scale::Full;
    let graphs: &[(u32, usize, usize)] =
        if full { &[(16, 16, 3), (20, 16, 1)] } else { &[(10, 8, 2)] };
    let prefetches: &[usize] = if full { &[0, 8, 16] } else { &[0, 8] };
    let chunks: &[Option<usize>] = if full { &[Some(256), Some(4096), None] } else { &[None] };
    let walkers = if full { (8_192, 2_048, 12) } else { (256, 128, 8) };
    let workloads = [
        ("biased-walk", 16, walkers.0),
        ("simple-walk", 16, walkers.0),
        ("biased-neighbor", 3, walkers.1),
        ("snowball", 2, walkers.2),
    ];
    let mut t = Table::new(
        "Execution-order sweep - instance-major vs depth-sync (host M steps/s; group and \
         prefetch-hit share from the batch counters)",
        &["graph", "algo", "exec", "prefetch", "chunk", "M steps/s", "group", "pf-hit", "speedup"],
    );
    for &(log_n, ef, reps) in graphs {
        let g = rmat(log_n, ef, RmatParams::GRAPH500, 42).with_unit_weights();
        let graph = format!("rmat-{log_n} ({:.1} MB)", g.size_bytes() as f64 / 1e6);
        for (name, depth, walkers) in workloads {
            let algo = AlgoSpec::by_name(name).unwrap().with_depth(depth).build().unwrap();
            let algo: &dyn Algorithm = algo.as_ref();
            let seeds = seeds(walkers, g.num_vertices());
            let mut base: Option<(SampleOutput, f64)> = None;
            let instance_major = std::iter::once((ExecMode::InstanceMajor, 0, None));
            let depth_sync = chunks.iter().flat_map(|&chunk| {
                prefetches.iter().map(move |&pf| (ExecMode::DepthSync, pf, chunk))
            });
            for (exec, prefetch, chunk) in instance_major.chain(depth_sync) {
                let opts = RunOptions {
                    exec,
                    prefetch_distance: prefetch,
                    batch_chunk: chunk,
                    ..Default::default()
                };
                let sampler = Sampler::new(&g, &algo).with_options(opts);
                let out = sampler.run_single_seeds(&seeds);
                let sps = edges_per_sec(reps, |_| sampler.run_single_seeds(&seeds));
                let speedup = match &base {
                    Some((reference, base_sps)) => {
                        assert_eq!(
                            out.instances, reference.instances,
                            "{name} on rmat-{log_n}: depth-sync (prefetch {prefetch}, chunk \
                             {chunk:?}) changed the sample"
                        );
                        sps / base_sps
                    }
                    None => 1.0,
                };
                let s = &out.stats;
                t.row(vec![
                    graph.clone(),
                    name.to_string(),
                    if exec == ExecMode::DepthSync { "depth" } else { "instance" }.into(),
                    prefetch.to_string(),
                    chunk.map_or("auto".into(), |c| c.to_string()),
                    f2(sps / 1e6),
                    f2(share(s.batch_group_entries, s.batch_groups)),
                    f2(share(s.batch_prefetch_hits, s.batch_groups)),
                    f2(speedup),
                ]);
                if base.is_none() {
                    base = Some((out, sps));
                }
            }
        }
    }
    vec![t]
}

/// Disk-tier budget sweep: biased walks through the mmap-backed store at
/// decoded-run pool budgets from nothing to all of the graph, against
/// the in-memory CSR on the same walks. At budget 0 every miss decodes
/// into scratch and nothing is pooled: the baseline the pool must beat
/// to earn its place. (Uniform walks read neighbors in place and skip
/// the pool, so only a biased walk measures it.) The graph is a
/// degree-reordered R-MAT over 256 partitions, so hubs share segment
/// pages. Every budget row is asserted bit-identical to the in-memory
/// sample; the full-budget row must never evict and must decode no more
/// runs than the half-budget row, which every scale runs (a pool with
/// room for everything that re-decodes is the regression this guards).
/// Both are counts, so they hold at any timing. The same shape at test
/// scale is tier-1 (`tests/disk_store.rs`).
pub fn sweep_disk(scale: Scale) -> Vec<Table> {
    let (log_n, walks, length, reps, fracs): (u32, usize, usize, usize, &[f64]) = match scale {
        Scale::Quick => (11, 128, 16, 2, &[0.0, 0.1, 0.5, 1.0]),
        Scale::Full => (14, 1024, 32, 12, &[0.0, 0.05, 0.1, 0.25, 0.5, 1.0]),
    };
    let g = {
        let raw = rmat(log_n, 8, RmatParams::GRAPH500, 42);
        csaw_graph::reorder::relabel(&raw, &csaw_graph::reorder::degree_order(&raw))
    };
    let seeds = seeds(walks, g.num_vertices());
    let algo = BiasedRandomWalk { length };
    let dir = std::env::var_os("CSAW_DISK_TMPDIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(std::env::temp_dir)
        .join(format!("csaw-disk-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_store(&dir, &g, 256, 0).expect("write store");
    let store = Arc::new(DiskStore::open(&dir).expect("open store"));
    let graph_bytes = store.total_decoded_bytes();
    let run = |seed: u64, disk: Option<&DiskRunConfig>| {
        let opts = RunOptions { seed, disk: disk.cloned(), ..Default::default() };
        Sampler::new(&g, &algo).with_options(opts).run_single_seeds(&seeds)
    };

    let mut t = Table::new(
        format!(
            "Disk-tier budget sweep - biased walk on degree-ordered rmat-{log_n}, 256 partitions, \
             {:.1} MB decoded (host M steps/s; slowdown vs the in-memory CSR)",
            graph_bytes as f64 / 1e6
        ),
        &[
            "budget",
            "pool bytes",
            "M steps/s",
            "slowdown",
            "hit share",
            "evictions",
            "mmap faults",
            "decode ms",
        ],
    );
    let reference = run(7, None);
    let mem_sps = edges_per_sec(reps, |rep| run(7 + rep as u64, None));
    let dash = || "-".to_string();
    t.row(vec![
        "memory".into(),
        dash(),
        f2(mem_sps / 1e6),
        f2(1.0),
        dash(),
        dash(),
        dash(),
        dash(),
    ]);
    let mut half_decodes = None;
    for &frac in fracs {
        let pool_budget = match frac {
            0.0 => 0,
            _ => ((graph_bytes as f64 * frac) as usize).max(4096),
        };
        let cfg = |shared| DiskRunConfig { store: Arc::clone(&store), pool_budget, shared };
        assert_eq!(
            run(7, Some(&cfg(None))).instances,
            reference.instances,
            "the disk tier changed the sample at a {frac} budget"
        );
        // A sink for the timed reps alone: their steady-state counters.
        let tier = Arc::new(DiskTierStats::default());
        let timed = cfg(Some(Arc::clone(&tier)));
        let sps = edges_per_sec(reps, |rep| run(7 + rep as u64, Some(&timed)));
        let evictions = tier.evictions.load(Relaxed);
        let decodes = tier.decode_count.load(Relaxed);
        if frac == 0.5 {
            half_decodes = Some(decodes);
        }
        if frac == 1.0 {
            assert_eq!(evictions, 0, "a full budget must never evict");
            let half =
                half_decodes.expect("every scale runs a half-budget row before the full one");
            assert!(
                decodes <= half,
                "full budget decoded {decodes} runs, half budget {half}: a pool with room for \
                 everything is re-decoding"
            );
        }
        t.row(vec![
            format!("{frac:.2}"),
            pool_budget.to_string(),
            f2(sps / 1e6),
            f2(mem_sps / sps),
            f3(share(tier.hits.load(Relaxed), tier.lookups.load(Relaxed))),
            evictions.to_string(),
            tier.mmap_faults.load(Relaxed).to_string(),
            f2(tier.decode_sum_us.load(Relaxed) as f64 / 1e3),
        ]);
    }
    let _ = std::fs::remove_dir_all(&dir);
    vec![t]
}

/// Mutable-graph overlay sweep: walks seeded at the highest-degree
/// vertices while edits land on the lowest-degree ones, so the overlay
/// grows without touching what the walks mostly read — what does the
/// indirection cost when almost every probe answers "untouched"? Each
/// row times snapshot walks against static walks on the same epoch's
/// compacted CSR (`GraphSnapshot::to_csr`), alternating single reps so
/// machine drift hits both sides; `rel` is snapshot over static. Every
/// row asserts the two samples are bit-identical, and the 0% row that
/// the empty-overlay snapshot samples the untouched input graph.
pub fn sweep_overlay(scale: Scale) -> Vec<Table> {
    let (log_n, num_seeds, length, reps) = match scale {
        Scale::Quick => (9, 32, 8, 2),
        Scale::Full => (12, 256, 16, 40),
    };
    let g = rmat(log_n, 8, RmatParams::MILD, 42);
    let n = g.num_vertices();
    let algo = BiasedRandomWalk { length };
    let mut by_degree: Vec<VertexId> = (0..n as VertexId).collect();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    let seeds = &by_degree[..num_seeds];
    let cold: Vec<VertexId> =
        by_degree[num_seeds..].iter().rev().copied().filter(|&v| g.degree(v) > 0).collect();
    let opts = RunOptions { seed: 0x5eed, ..RunOptions::default() };
    let untouched = Sampler::new(&g, &algo).with_options(opts.clone()).run_single_seeds(seeds);

    let mut t = Table::new(
        format!(
            "Overlay sweep - biased walk from {num_seeds} hub seeds, edits on cold vertices, \
             rmat-{log_n} (host M steps/s; rel = snapshot / same-epoch compacted CSR)"
        ),
        &[
            "overlay %",
            "vertices",
            "edits",
            "M edits/s",
            "M steps/s",
            "rel",
            "folded",
            "compact ms",
        ],
    );
    for frac in [0.0, 0.001, 0.01, 0.05, 0.10, 0.25] {
        let touched = ((n as f64 * frac) as usize).min(cold.len());
        // Two inserts per cold vertex, in service-sized batches.
        let edits: Vec<EdgeEdit> = cold[..touched]
            .iter()
            .flat_map(|&v| {
                [1, 7].map(|d| EdgeEdit::Insert {
                    src: v,
                    dst: (v + d) % n as VertexId,
                    weight: 1.0,
                })
            })
            .collect();
        let mut mg = MutableGraph::new(g.clone());
        let t0 = Instant::now();
        for batch in edits.chunks(256) {
            mg.apply_batch(batch).expect("in-range inserts");
        }
        let edits_per_sec =
            if edits.is_empty() { 0.0 } else { edits.len() as f64 / t0.elapsed().as_secs_f64() };

        let snap = mg.snapshot();
        let compacted = snap.to_csr();
        let on_snap = Sampler::new(snap.base(), &algo)
            .with_options(RunOptions { snapshot: Some(snap.clone()), ..opts.clone() });
        let on_static = Sampler::new(&compacted, &algo).with_options(opts.clone());
        let sample = on_snap.run_single_seeds(seeds).instances;
        assert_eq!(
            sample,
            on_static.run_single_seeds(seeds).instances,
            "snapshot walks diverged from the compacted CSR at a {frac} overlay"
        );
        if frac == 0.0 {
            assert_eq!(sample, untouched.instances, "the empty-overlay snapshot is not the input");
        }
        // Interleaved A/B timing: one rep of each side in turn.
        let (mut steps, mut snap_secs, mut static_secs) = (0u64, 0.0, 0.0);
        for _ in 0..reps {
            let t0 = Instant::now();
            steps += on_snap.run_single_seeds(seeds).sampled_edges();
            snap_secs += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            on_static.run_single_seeds(seeds);
            static_secs += t0.elapsed().as_secs_f64();
        }

        let t0 = Instant::now();
        let folded = mg.compact();
        let compact_s = t0.elapsed().as_secs_f64();
        t.row(vec![
            format!("{:.1}", frac * 100.0),
            touched.to_string(),
            edits.len().to_string(),
            f2(edits_per_sec / 1e6),
            f2(steps as f64 / snap_secs / 1e6),
            f3(static_secs / snap_secs),
            folded.to_string(),
            ms(compact_s),
        ]);
    }
    vec![t]
}

/// Method sweep: node2vec under `ForceIts` against `Adaptive`, which
/// serves its dynamic-bias expansions by bounded rejection — one bias
/// evaluation per throw where ITS evaluates every candidate's. This is
/// the measurement that keeps the adaptive policy (EXPERIMENTS.md
/// §"Retiring the cached alias method"). Timed reps alternate between
/// the policies so machine drift hits both. Every row asserts both
/// policies sample equally many edges and that rejection ran under
/// `Adaptive`; rates and the ratio are reported, never asserted.
pub fn sweep_method(scale: Scale) -> Vec<Table> {
    let (log_n, walkers, depth, reps) = match scale {
        Scale::Quick => (10, 128, 40, 2),
        Scale::Full => (14, 512, 80, 6),
    };
    let g = rmat(log_n, 16, RmatParams::GRAPH500, 42);
    let seeds = seeds(walkers, g.num_vertices());
    let algo = AlgoSpec::by_name("node2vec").unwrap().with_depth(depth).build().unwrap();
    let mut t = Table::new(
        format!(
            "Method sweep - node2vec on rmat-{log_n}, {walkers} walkers x depth {depth} (host M \
             edges/s; ratio = Adaptive / ForceIts)"
        ),
        &["exec", "policy", "M edges/s", "rejection share", "trials/pick", "ratio"],
    );
    let policies = [MethodPolicy::ForceIts, MethodPolicy::Adaptive];
    for exec in [ExecMode::InstanceMajor, ExecMode::DepthSync] {
        let samplers = policies.map(|method_policy| {
            let opts = RunOptions { exec, method_policy, ..Default::default() };
            Sampler::new(&g, &algo).with_options(opts)
        });
        let outs = samplers.each_ref().map(|s| s.run_single_seeds(&seeds));
        let mut secs = [0.0; 2];
        for _ in 0..reps {
            for (s, secs) in samplers.iter().zip(&mut secs) {
                let t0 = Instant::now();
                s.run_single_seeds(&seeds);
                *secs += t0.elapsed().as_secs_f64();
            }
        }
        let seps = |i: usize| (reps as u64 * outs[i].sampled_edges()) as f64 / secs[i];
        for (i, (policy, out)) in policies.iter().zip(&outs).enumerate() {
            let s = &out.stats;
            let what = format!("node2vec {policy:?} ({exec:?}) on rmat-{log_n}");
            assert_eq!(out.sampled_edges(), outs[0].sampled_edges(), "{what}: edge count moved");
            assert!(s.rejection_trials >= s.method_rejection, "{what}: a served pick never threw");
            if *policy == MethodPolicy::Adaptive {
                assert!(s.method_rejection > 0, "{what}: rejection never ran");
            }
            t.row(vec![
                if exec == ExecMode::DepthSync { "depth" } else { "instance" }.into(),
                format!("{policy:?}"),
                f2(seps(i) / 1e6),
                f3(share(s.method_rejection, s.method_its + s.method_rejection)),
                f2(share(s.rejection_trials, s.method_rejection)),
                f2(seps(i) / seps(0)),
            ]);
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_grows_with_depth() {
        let spec = datasets::by_abbr("LJ").unwrap();
        let g = graph_for(&spec);
        let s = seeds(32, g.num_vertices());
        let edges = |depth| {
            let algo = BiasedNeighborSampling { neighbor_size: 2, depth };
            Sampler::new(&g, &algo).run_single_seeds(&s).edges_per_instance()
        };
        let (d1, d3) = (edges(1), edges(3));
        assert!(d3 > 2.5 * d1, "frontier must grow near-exponentially: {d1} -> {d3}");
    }

    #[test]
    fn more_resident_partitions_never_hurt() {
        let spec = datasets::by_abbr("WG").unwrap();
        let g = graph_for(&spec);
        let s = seeds(32, g.num_vertices());
        let algo = csaw_core::algorithms::UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 };
        let run = |resident| {
            let cfg = OomConfig { resident_partitions: resident, ..OomConfig::full() };
            OomRunner::new(&g, &algo, cfg).with_device(DeviceConfig::tiny(1 << 20)).run(&s)
        };
        assert!(run(4).transfers <= run(2).transfers);
    }
}
