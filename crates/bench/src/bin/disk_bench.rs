//! Budget sweep for the disk tier: sampling throughput through the
//! mmap-backed partitioned store at decoded-run pool budgets from a
//! small fraction of the graph up to fully resident, against the
//! in-memory CSR baseline on the identical workload.
//!
//! The headline row is the **10× over-subscription** point — the pool
//! holds ~1/10 of the graph's decoded bytes, so the clock sweep is
//! constantly evicting — where the disk tier must stay within ~3× of
//! in-memory steps/sec (the ISSUE acceptance bar). Output equality is
//! asserted on every row, not sampled: eviction pressure may change the
//! counters, never the walks.
//!
//! The graph is a synthetic power-law R-MAT: a degree-biased walk
//! spends most of its steps on hubs, whose runs are the expensive ones
//! to decode — exactly what the pool's frequency gate keeps resident.
//! A row is sized to run for a second or more; shorter rows read
//! anywhere between 0.8× and 2.3× of in-memory from run to run.
//!
//! Usage: `disk_bench [--quick] [--label NAME] [--json PATH] [--csv PATH]`
//!
//! Writes `results_csv/disk_tier.csv` when run from the repo root.

use csaw_bench::report::{f2, Table};
use csaw_core::algorithms::BiasedRandomWalk;
use csaw_core::engine::{RunOptions, Sampler};
use csaw_core::residency::{DiskRunConfig, DiskTierStats};
use csaw_graph::generators::{rmat, RmatParams};
use csaw_graph::store::write_store;
use csaw_graph::{Csr, DiskStore};
use std::path::PathBuf;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

struct Row {
    budget_frac: f64,
    pool_bytes: usize,
    steps_per_sec: f64,
    vs_memory: f64,
    hit_rate: f64,
    evictions: u64,
    mmap_faults: u64,
    decode_ms: f64,
}

fn store_dir() -> PathBuf {
    let base =
        std::env::var_os("CSAW_DISK_TMPDIR").map(PathBuf::from).unwrap_or_else(std::env::temp_dir);
    base.join(format!("csaw-disk-bench-{}", std::process::id()))
}

/// One timed run; returns (steps/sec, sampled edges).
fn timed_run(
    g: &Csr,
    seeds: &[u32],
    length: usize,
    reps: usize,
    disk: Option<&DiskRunConfig>,
) -> (f64, u64) {
    let algo = BiasedRandomWalk { length };
    let mut edges = 0u64;
    let start = Instant::now();
    for rep in 0..reps {
        let opts = RunOptions { seed: 7 + rep as u64, disk: disk.cloned(), ..Default::default() };
        let out = Sampler::new(g, &algo).with_options(opts).run_single_seeds(seeds);
        edges += out.sampled_edges();
    }
    (edges as f64 / start.elapsed().as_secs_f64(), edges)
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

    let (scale, walks, length, reps) = if quick { (11, 128, 16, 2) } else { (14, 1024, 32, 12) };
    let partitions = 256usize;
    // Degree-reorder the R-MAT graph (the paper's locality optimization):
    // hubs get the leading ids, so their records share segment pages —
    // both runs, in-memory and disk, use the same labels.
    let g = {
        let raw = rmat(scale, 8, RmatParams::GRAPH500, 42);
        csaw_graph::reorder::relabel(&raw, &csaw_graph::reorder::degree_order(&raw))
    };
    let seeds: Vec<u32> =
        (0..walks).map(|i| (i as u64 * 2_654_435_761 % (1 << scale)) as u32).collect();

    let dir = store_dir();
    let _ = std::fs::remove_dir_all(&dir);
    write_store(&dir, &g, partitions, 0).expect("write store");
    let store = Arc::new(DiskStore::open(&dir).expect("open store"));
    let graph_bytes = store.total_decoded_bytes();
    eprintln!(
        "# disk_bench [{label}]: rmat({scale},8), {} vertices, {} edges, {} partitions, \
         {:.1} MB decoded",
        g.num_vertices(),
        g.num_edges(),
        partitions,
        graph_bytes as f64 / 1e6
    );

    // Warm-up + in-memory baseline.
    timed_run(&g, &seeds, length, 1, None);
    let (mem_sps, mem_edges) = timed_run(&g, &seeds, length, reps, None);
    eprintln!("# in-memory baseline: {:.0} steps/sec ({mem_edges} edges)", mem_sps);

    // Reference output for the bit-identity assertion.
    let algo = BiasedRandomWalk { length };
    let reference = Sampler::new(&g, &algo)
        .with_options(RunOptions { seed: 7, ..Default::default() })
        .run_single_seeds(&seeds);

    // Pool budgets as fractions of the decoded graph; 0.1 is the 10×
    // over-subscription acceptance point.
    let fracs: &[f64] = if quick { &[0.1, 1.0] } else { &[0.05, 0.1, 0.25, 0.5, 1.0] };
    let mut rows = Vec::new();
    for &frac in fracs {
        let pool = ((graph_bytes as f64 * frac) as usize).max(4096);
        let tier = Arc::new(DiskTierStats::default());
        let cfg = DiskRunConfig {
            store: Arc::clone(&store),
            pool_budget: pool,
            shared: Some(Arc::clone(&tier)),
        };
        let disk_out = Sampler::new(&g, &algo)
            .with_options(RunOptions { seed: 7, disk: Some(cfg.clone()), ..Default::default() })
            .run_single_seeds(&seeds);
        assert_eq!(
            disk_out.instances, reference.instances,
            "disk tier changed the sample at {frac}x budget"
        );
        // Reset the sink so the timed reps report steady-state counters.
        let tier = Arc::new(DiskTierStats::default());
        let cfg = DiskRunConfig { shared: Some(Arc::clone(&tier)), ..cfg };
        let (sps, _) = timed_run(&g, &seeds, length, reps, Some(&cfg));
        let (lookups, hits) = (tier.lookups.load(Relaxed), tier.hits.load(Relaxed));
        rows.push(Row {
            budget_frac: frac,
            pool_bytes: pool,
            steps_per_sec: sps,
            vs_memory: mem_sps / sps,
            hit_rate: if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 },
            evictions: tier.evictions.load(Relaxed),
            mmap_faults: tier.mmap_faults.load(Relaxed),
            decode_ms: tier.decode_sum_us.load(Relaxed) as f64 / 1e3,
        });
    }
    let _ = std::fs::remove_dir_all(&dir);

    let mut table = Table::new(
        "disk tier: steps/sec vs pool budget (in-memory baseline = 1.0x)",
        &[
            "budget_frac",
            "pool_bytes",
            "steps_per_sec",
            "slowdown_x",
            "hit_rate",
            "evictions",
            "mmap_faults",
            "decode_ms",
        ],
    );
    for r in &rows {
        table.row(vec![
            format!("{:.2}", r.budget_frac),
            r.pool_bytes.to_string(),
            format!("{:.0}", r.steps_per_sec),
            f2(r.vs_memory),
            format!("{:.3}", r.hit_rate),
            r.evictions.to_string(),
            r.mmap_faults.to_string(),
            f2(r.decode_ms),
        ]);
    }
    table.print();

    let headline = rows.iter().find(|r| (r.budget_frac - 0.1).abs() < 1e-9);
    if let Some(r) = headline {
        println!(
            "# 10x over-subscription: {:.2}x of in-memory (bar: ~3x), hit rate {:.3}",
            r.vs_memory, r.hit_rate
        );
    }

    // Full-budget regression row: with `pool_bytes >= graph_bytes`
    // every run is admitted on its first miss and nothing has to leave,
    // so the fully-resident run must never evict, must out-hit every
    // starved budget, and must not be slower than the half-budget point
    // — the anomaly this guards against was a full-budget pool whose
    // admission policy kept re-decoding what it had room to keep.
    if let Some(full) = rows.iter().find(|r| (r.budget_frac - 1.0).abs() < 1e-9) {
        assert_eq!(full.evictions, 0, "full budget must never evict");
        for r in rows.iter().filter(|r| r.budget_frac < 1.0) {
            assert!(
                full.hit_rate >= r.hit_rate,
                "full budget hit rate {:.3} below {:.2}x-budget {:.3} — admission regressed",
                full.hit_rate,
                r.budget_frac,
                r.hit_rate
            );
        }
        if let Some(half) = rows.iter().find(|r| (r.budget_frac - 0.5).abs() < 1e-9) {
            assert!(
                full.steps_per_sec >= 0.9 * half.steps_per_sec,
                "full budget ({:.0} steps/sec) slower than half budget ({:.0}) — \
                 a pool with room for everything is re-decoding",
                full.steps_per_sec,
                half.steps_per_sec
            );
        }
        println!(
            "# full-budget regression row ok: {:.0} steps/sec, hit rate {:.3}, 0 evictions",
            full.steps_per_sec, full.hit_rate
        );
    }

    if let Some(path) = json_path {
        let mut s = String::from("[\n");
        for (i, r) in rows.iter().enumerate() {
            s.push_str(&format!(
                "  {{\"label\": \"{}\", \"graph\": \"rmat-{}\", \"partitions\": {}, \
                 \"graph_bytes\": {}, \"budget_frac\": {}, \"pool_bytes\": {}, \
                 \"mem_steps_per_sec\": {:.0}, \"steps_per_sec\": {:.0}, \"slowdown_x\": {:.2}, \
                 \"hit_rate\": {:.4}, \"evictions\": {}, \"mmap_faults\": {}, \
                 \"decode_ms\": {:.2}, \"bit_identical\": true}}{}\n",
                label,
                scale,
                partitions,
                graph_bytes,
                r.budget_frac,
                r.pool_bytes,
                mem_sps,
                r.steps_per_sec,
                r.vs_memory,
                r.hit_rate,
                r.evictions,
                r.mmap_faults,
                r.decode_ms,
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        s.push_str("]\n");
        std::fs::write(&path, s).expect("write json");
        println!("wrote {path}");
    }

    let out = std::path::Path::new("results_csv");
    if let Some(path) = csv_path {
        std::fs::write(&path, table.to_csv()).expect("write csv");
        println!("# wrote {path}");
    } else if out.is_dir() {
        let path = out.join("disk_tier.csv");
        std::fs::write(&path, table.to_csv()).expect("write csv");
        println!("# wrote {}", path.display());
    }
}
