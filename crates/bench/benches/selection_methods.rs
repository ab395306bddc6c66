//! Criterion bench for the A3 ablation: one dynamic-bias pick by inverse
//! transform sampling vs. dartboard vs. alias, including per-pick table
//! construction (dynamic biases cannot be precomputed — §II-B).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use csaw_baselines::alias::AliasTable;
use csaw_baselines::dartboard::Dartboard;
use csaw_core::ctps::Ctps;
use csaw_gpu::stats::SimStats;
use csaw_gpu::Philox;
use std::hint::black_box;

fn skewed(n: usize) -> Vec<f64> {
    (0..n).map(|i| if i % 17 == 0 { 64.0 } else { 1.0 }).collect()
}

fn bench_methods(c: &mut Criterion) {
    let mut group = c.benchmark_group("selection-method");
    group.sample_size(30);
    for &n in &[8usize, 64, 512] {
        let biases = skewed(n);
        group.bench_with_input(BenchmarkId::new("its", n), &n, |b, _| {
            let mut rng = Philox::new(1);
            let mut s = SimStats::new();
            b.iter(|| {
                let c = Ctps::build(black_box(&biases), &mut s).unwrap();
                black_box(c.sample_one(&mut rng, &mut s))
            })
        });
        group.bench_with_input(BenchmarkId::new("dartboard", n), &n, |b, _| {
            let mut rng = Philox::new(2);
            let mut s = SimStats::new();
            b.iter(|| {
                let d = Dartboard::build(black_box(&biases), &mut s).unwrap();
                black_box(d.sample(&mut rng, &mut s))
            })
        });
        group.bench_with_input(BenchmarkId::new("alias", n), &n, |b, _| {
            let mut rng = Philox::new(3);
            let mut s = SimStats::new();
            b.iter(|| {
                let a = AliasTable::build(black_box(&biases), &mut s).unwrap();
                black_box(a.sample(&mut rng, &mut s))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_methods);
criterion_main!(benches);
