//! Criterion bench for the graph tooling: one-pass samplers, quality
//! metrics, and reordering.

use criterion::{criterion_group, criterion_main, Criterion};
use csaw_baselines::onepass;
use csaw_graph::datasets;
use csaw_graph::quality::{clustering_coefficient_sampled, degree_ks};
use csaw_graph::reorder::{bfs_order, degree_order, relabel};
use std::hint::black_box;

fn bench_onepass(c: &mut Criterion) {
    let g = datasets::by_abbr("WG").unwrap().build();
    let mut group = c.benchmark_group("onepass");
    group.sample_size(10);
    group.bench_function("random-node-20pct", |b| {
        b.iter(|| black_box(onepass::random_node(&g, 0.2, 1)))
    });
    group.bench_function("random-edge-10pct", |b| {
        b.iter(|| black_box(onepass::random_edge(&g, 0.1, 1)))
    });
    group.bench_function("ties-10pct", |b| b.iter(|| black_box(onepass::ties(&g, 0.1, 1))));
    group.finish();
}

fn bench_quality(c: &mut Criterion) {
    let g = datasets::by_abbr("WG").unwrap().build();
    let h = datasets::by_abbr("YE").unwrap().build();
    let mut group = c.benchmark_group("quality");
    group.sample_size(10);
    group.bench_function("degree-ks", |b| b.iter(|| black_box(degree_ks(&g, &h))));
    group.bench_function("clustering-sampled-20k", |b| {
        b.iter(|| black_box(clustering_coefficient_sampled(&g, 20_000, 3)))
    });
    group.finish();
}

fn bench_reorder(c: &mut Criterion) {
    let g = datasets::by_abbr("WG").unwrap().build();
    let mut group = c.benchmark_group("reorder");
    group.sample_size(10);
    group.bench_function("degree-order+relabel", |b| {
        b.iter(|| black_box(relabel(&g, &degree_order(&g))))
    });
    group.bench_function("bfs-order", |b| b.iter(|| black_box(bfs_order(&g, 0))));
    group.finish();
}

criterion_group!(benches, bench_onepass, bench_quality, bench_reorder);
criterion_main!(benches);
