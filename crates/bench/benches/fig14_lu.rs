//! Figure 14 — tiled LU factorisation on the mirage-like node: makespan
//! versus memory (in tiles) for the memory-aware heuristics.

use criterion::{criterion_group, criterion_main, Criterion};
use mals_bench::{lu_fixture, mirage};
use mals_experiments::figures::{fig14, LinalgConfig};
use mals_experiments::heft_baseline;
use mals_sched::{MemHeft, MemMinMin, Scheduler};
use mals_util::ParallelConfig;
use std::hint::black_box;
use std::time::Duration;

fn bench_fig14(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig14");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));

    let graph = lu_fixture(6);
    let platform = mirage(0.0);
    let baseline = heft_baseline(&graph, &platform);
    let bound = (0.6 * baseline.peaks.max()).round();
    let bounded = platform.with_memory_bounds(bound, bound);

    group.bench_function("memheft_lu6_60pct", |b| {
        b.iter(|| MemHeft::new().schedule(black_box(&graph), black_box(&bounded)))
    });
    group.bench_function("memminmin_lu6_60pct", |b| {
        b.iter(|| MemMinMin::new().schedule(black_box(&graph), black_box(&bounded)))
    });
    group.bench_function("full_sweep_lu5", |b| {
        let config = LinalgConfig {
            tiles: 5,
            steps: 8,
            parallel: ParallelConfig::sequential(),
        };
        b.iter(|| fig14(black_box(&config)))
    });
    group.finish();
}

criterion_group!(benches, bench_fig14);
criterion_main!(benches);
