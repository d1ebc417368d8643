//! Figure 13 — absolute memory sweep on one LargeRandSet DAG.

use criterion::{criterion_group, criterion_main, Criterion};
use mals_bench::{large_rand_dag, single_pair};
use mals_experiments::{heft_baseline, sweep_absolute};
use mals_sched::{Heft, MemHeft, MemMinMin, MinMin, SolveCtx};
use std::hint::black_box;
use std::time::Duration;

fn bench_fig13(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig13");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));

    let graph = large_rand_dag(300, 0x13);
    let platform = single_pair(0.0);
    let baseline = heft_baseline(&graph, &platform);
    let grid: Vec<f64> = (2..=10)
        .map(|i| baseline.peaks.max() * i as f64 / 10.0)
        .collect();

    group.bench_function("sweep_300_tasks_9_bounds", |b| {
        let memheft = MemHeft::new();
        let memminmin = MemMinMin::new();
        let heft = Heft::new();
        let minmin = MinMin::new();
        b.iter(|| {
            sweep_absolute(
                black_box(&graph),
                black_box(&platform),
                &grid,
                &[&memheft, &memminmin],
                &[&heft, &minmin],
                &SolveCtx::sequential(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fig13);
criterion_main!(benches);
