//! Figure 12 — LargeRandSet campaign: MemHEFT and MemMinMin on large random
//! DAGs under normalised memory bounds.

use criterion::{criterion_group, criterion_main, Criterion};
use mals_bench::{large_rand_dag, single_pair};
use mals_experiments::figures::{fig12, Fig12Config};
use mals_experiments::heft_baseline;
use mals_sched::{MemHeft, MemMinMin, Scheduler};
use mals_util::ParallelConfig;
use std::hint::black_box;
use std::time::Duration;

fn bench_fig12(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig12");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));

    let graph = large_rand_dag(200, 0x12);
    let platform = single_pair(0.0);
    let baseline = heft_baseline(&graph, &platform);
    let bound = 0.5 * baseline.peaks.max();
    let bounded = platform.with_memory_bounds(bound, bound);

    group.bench_function("memheft_200_tasks_50pct", |b| {
        b.iter(|| MemHeft::new().schedule(black_box(&graph), black_box(&bounded)))
    });
    group.bench_function("memminmin_200_tasks_50pct", |b| {
        b.iter(|| MemMinMin::new().schedule(black_box(&graph), black_box(&bounded)))
    });
    group.bench_function("campaign_3_dags_100_tasks", |b| {
        let config = Fig12Config {
            n_dags: 3,
            n_tasks: 100,
            alphas: vec![0.4, 0.7, 1.0],
            parallel: ParallelConfig::sequential(),
            ..Fig12Config::default()
        };
        b.iter(|| fig12(black_box(&config)))
    });
    group.finish();
}

criterion_group!(benches, bench_fig12);
criterion_main!(benches);
