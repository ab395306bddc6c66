//! Criterion bench for the out-of-memory scheduler (Fig. 13 ladder) on
//! the WG stand-in with the paper's 4-partition / 2-stream / 2-resident
//! frame.

use criterion::{criterion_group, criterion_main, Criterion};
use csaw_core::algorithms::UnbiasedNeighborSampling;
use csaw_gpu::config::DeviceConfig;
use csaw_graph::datasets;
use csaw_oom::{OomConfig, OomRunner};
use std::hint::black_box;

fn bench_oom(c: &mut Criterion) {
    let g = datasets::by_abbr("WG").unwrap().build();
    let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 };
    let seeds: Vec<u32> = (0..128u32).map(|i| i * 61 % g.num_vertices() as u32).collect();
    let mut group = c.benchmark_group("oom");
    group.sample_size(10);
    for (label, cfg) in OomConfig::figure13_ladder() {
        group.bench_function(label, |b| {
            b.iter(|| {
                black_box(
                    OomRunner::new(&g, &algo, cfg)
                        .with_device(DeviceConfig::tiny(1 << 20))
                        .run(&seeds),
                )
            })
        });
    }
    group.finish();
}

/// Host-parallelism headroom: the same 8-partition / 4-stream / 4-resident
/// run with stream tasks on the rayon pool vs. the serial reference path.
/// Simulated output is bit-identical (asserted below); the wall-clock gap
/// is the host-side speedup, expected ≥2× on a multi-core host and ~1× on
/// a single-core one.
fn bench_host_parallel(c: &mut Criterion) {
    let g = datasets::by_abbr("WG").unwrap().build();
    let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 };
    let seeds: Vec<u32> = (0..128u32).map(|i| i * 61 % g.num_vertices() as u32).collect();
    let cfg = OomConfig {
        num_partitions: 8,
        resident_partitions: 4,
        num_kernels: 4,
        ..OomConfig::full()
    };
    let run = |cfg: OomConfig| {
        OomRunner::new(&g, &algo, cfg).with_device(DeviceConfig::tiny(1 << 20)).run(&seeds)
    };
    // Guard: host execution mode must not leak into the simulation.
    let (par, ser) = (run(cfg), run(cfg.serial()));
    assert_eq!(par.sim_seconds.to_bits(), ser.sim_seconds.to_bits());
    assert_eq!(par.sample.instances, ser.sample.instances);

    let mut group = c.benchmark_group("oom-host");
    group.sample_size(10);
    group.bench_function("parallel-8p4s", |b| b.iter(|| black_box(run(cfg))));
    group.bench_function("serial-8p4s", |b| b.iter(|| black_box(run(cfg.serial()))));
    group.finish();
}

fn bench_unified(c: &mut Criterion) {
    use csaw_baselines::unified::UnifiedRunner;
    let g = datasets::by_abbr("WG").unwrap().build();
    let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 };
    let seeds: Vec<u32> = (0..128u32).map(|i| i * 61 % g.num_vertices() as u32).collect();
    c.bench_function("oom/unified-memory", |b| {
        b.iter(|| black_box(UnifiedRunner::new(&g, &algo, DeviceConfig::tiny(1 << 20)).run(&seeds)))
    });
}

criterion_group!(benches, bench_oom, bench_host_parallel, bench_unified);
criterion_main!(benches);
