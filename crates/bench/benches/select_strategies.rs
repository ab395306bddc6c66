//! Criterion bench for the SELECT kernel (Figs. 10–12 microbenchmark):
//! host-side throughput of the three collision strategies × detectors on
//! skewed and uniform candidate pools.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use csaw_core::collision::DetectorKind;
use csaw_core::select::{select_without_replacement, SelectConfig, SelectStrategy};
use csaw_gpu::stats::SimStats;
use csaw_gpu::Philox;
use std::hint::black_box;

fn skewed_pool(n: usize) -> Vec<f64> {
    // One hub plus a long tail — the §II-B pathology.
    (0..n).map(|i| if i == 0 { n as f64 * 4.0 } else { 1.0 }).collect()
}

fn bench_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("select/strategy");
    group.sample_size(20);
    for (label, strategy) in [
        ("repeated", SelectStrategy::Repeated),
        ("updated", SelectStrategy::Updated),
        ("bipartite", SelectStrategy::Bipartite),
    ] {
        for &n in &[8usize, 32, 128] {
            let biases = skewed_pool(n);
            let cfg = SelectConfig { strategy, detector: DetectorKind::paper_default() };
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                let mut rng = Philox::new(42);
                let mut stats = SimStats::new();
                b.iter(|| {
                    black_box(select_without_replacement(
                        black_box(&biases),
                        n / 2,
                        cfg,
                        &mut rng,
                        &mut stats,
                    ))
                })
            });
        }
    }
    group.finish();
}

fn bench_detectors(c: &mut Criterion) {
    let mut group = c.benchmark_group("select/detector");
    group.sample_size(20);
    let biases = skewed_pool(64);
    for (label, detector) in [
        ("linear", DetectorKind::LinearSearch),
        ("contig8", DetectorKind::ContiguousBitmap { word_bits: 8 }),
        ("strided8", DetectorKind::StridedBitmap { word_bits: 8 }),
    ] {
        let cfg = SelectConfig { strategy: SelectStrategy::Bipartite, detector };
        group.bench_function(label, |b| {
            let mut rng = Philox::new(7);
            let mut stats = SimStats::new();
            b.iter(|| {
                black_box(select_without_replacement(
                    black_box(&biases),
                    32,
                    cfg,
                    &mut rng,
                    &mut stats,
                ))
            })
        });
    }
    group.finish();
}

fn bench_selector_implementations(c: &mut Criterion) {
    use csaw_baselines::reservoir::reservoir_select;
    use csaw_baselines::select_simt::select_without_replacement_simt;
    let mut group = c.benchmark_group("select/implementation");
    group.sample_size(20);
    let biases = skewed_pool(64);
    let cfg = SelectConfig {
        strategy: SelectStrategy::Bipartite,
        detector: DetectorKind::paper_default(),
    };
    group.bench_function("round-based", |b| {
        let mut rng = Philox::new(21);
        let mut stats = SimStats::new();
        b.iter(|| {
            black_box(select_without_replacement(black_box(&biases), 16, cfg, &mut rng, &mut stats))
        })
    });
    group.bench_function("simt-lane-level", |b| {
        let mut rng = Philox::new(22);
        let mut stats = SimStats::new();
        b.iter(|| {
            black_box(select_without_replacement_simt(
                black_box(&biases),
                16,
                cfg,
                &mut rng,
                &mut stats,
            ))
        })
    });
    group.bench_function("reservoir", |b| {
        let mut rng = Philox::new(23);
        let mut stats = SimStats::new();
        b.iter(|| black_box(reservoir_select(black_box(&biases), 16, &mut rng, &mut stats)))
    });
    group.finish();
}

criterion_group!(benches, bench_strategies, bench_detectors, bench_selector_implementations);
criterion_main!(benches);
