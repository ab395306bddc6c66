//! Criterion bench for the substrate primitives: warp scan, Philox
//! throughput, Fenwick selection, and CSR construction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use csaw_gpu::stats::SimStats;
use csaw_gpu::warp::inclusive_scan;
use csaw_gpu::Philox;
use csaw_graph::fenwick::Fenwick;
use csaw_graph::generators::{rmat, RmatParams};
use std::hint::black_box;

fn bench_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/warp-scan");
    group.sample_size(30);
    for &n in &[32usize, 256, 2048] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let vals = vec![1.0f64; n];
            let mut stats = SimStats::new();
            b.iter(|| {
                let mut v = vals.clone();
                inclusive_scan(black_box(&mut v), &mut stats);
                black_box(v)
            })
        });
    }
    group.finish();
}

fn bench_philox(c: &mut Criterion) {
    c.bench_function("substrate/philox-1k-draws", |b| {
        let mut rng = Philox::new(1);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..1000 {
                acc += rng.uniform();
            }
            black_box(acc)
        })
    });
}

fn bench_fenwick(c: &mut Criterion) {
    let weights: Vec<f64> = (0..2000).map(|i| 1.0 + (i % 13) as f64).collect();
    let f = Fenwick::new(&weights);
    c.bench_function("substrate/fenwick-select-2000", |b| {
        let mut rng = Philox::new(2);
        b.iter(|| black_box(f.select(rng.uniform() * f.total())))
    });
}

fn bench_graph_build(c: &mut Criterion) {
    c.bench_function("substrate/rmat-build-scale12", |b| {
        b.iter(|| black_box(rmat(12, 8, RmatParams::GRAPH500, 7)))
    });
}

criterion_group!(benches, bench_scan, bench_philox, bench_fenwick, bench_graph_build);
criterion_main!(benches);
