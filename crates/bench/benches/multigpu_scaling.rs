//! Criterion bench for the multi-GPU driver (Fig. 17): host-side cost of
//! splitting instances across 1/3/6 simulated devices.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use csaw_core::algorithms::BiasedNeighborSampling;
use csaw_core::engine::RunOptions;
use csaw_graph::datasets;
use csaw_oom::MultiGpu;
use std::hint::black_box;

fn bench_multigpu(c: &mut Criterion) {
    let g = datasets::by_abbr("CP").unwrap().build();
    let algo = BiasedNeighborSampling { neighbor_size: 2, depth: 2 };
    let seeds: Vec<u32> = (0..512u32).map(|i| i * 31 % g.num_vertices() as u32).collect();
    let mut group = c.benchmark_group("multigpu");
    group.sample_size(10);
    for gpus in [1usize, 3, 6] {
        group.bench_with_input(BenchmarkId::from_parameter(gpus), &gpus, |b, &n| {
            b.iter(|| {
                black_box(MultiGpu::new(n).run_single_seeds(
                    &g,
                    &algo,
                    &seeds,
                    RunOptions::default(),
                ))
            })
        });
    }
    group.finish();
}

/// Host cost of the OOM multi-GPU driver with one rayon task per device
/// vs. the serial reference path — same simulated results either way.
fn bench_multigpu_oom_host(c: &mut Criterion) {
    use csaw_oom::OomConfig;
    let g = datasets::by_abbr("CP").unwrap().build();
    let algo = BiasedNeighborSampling { neighbor_size: 2, depth: 2 };
    let seeds: Vec<u32> = (0..256u32).map(|i| i * 31 % g.num_vertices() as u32).collect();
    let mut group = c.benchmark_group("multigpu-oom-host");
    group.sample_size(10);
    for (label, cfg) in [("parallel", OomConfig::full()), ("serial", OomConfig::full().serial())] {
        group.bench_function(label, |b| {
            b.iter(|| {
                black_box(MultiGpu::new(4).run_oom(&g, &algo, &seeds, cfg, RunOptions::default()))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_multigpu, bench_multigpu_oom_host);
criterion_main!(benches);
