//! Figure 11 — absolute memory sweep on one SmallRandSet DAG: all four
//! schedulers plus the lower bound.

use criterion::{criterion_group, criterion_main, Criterion};
use mals_bench::{single_pair, small_rand_dag};
use mals_exact::makespan_lower_bound;
use mals_experiments::figures::{fig11, SingleRandConfig};
use mals_experiments::{heft_baseline, sweep_absolute};
use mals_sched::{Heft, MemHeft, MemMinMin, MinMin, SolveCtx};
use mals_util::ParallelConfig;
use std::hint::black_box;
use std::time::Duration;

fn bench_fig11(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig11");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    let graph = small_rand_dag(30, 0x5EED_0001);
    let platform = single_pair(0.0);
    let baseline = heft_baseline(&graph, &platform);
    let grid: Vec<f64> = (0..=10)
        .map(|i| baseline.peaks.max() * i as f64 / 10.0)
        .collect();

    group.bench_function("sweep_30_tasks_11_bounds", |b| {
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
    group.bench_function("lower_bound_30_tasks", |b| {
        b.iter(|| makespan_lower_bound(black_box(&graph), black_box(&platform)))
    });
    group.bench_function("figure_entry_point_default", |b| {
        let config = SingleRandConfig {
            n_tasks: 20,
            steps: 8,
            parallel: ParallelConfig::sequential(),
            ..SingleRandConfig::fig11_default()
        };
        b.iter(|| fig11(black_box(&config)))
    });
    group.finish();
}

criterion_group!(benches, bench_fig11);
criterion_main!(benches);
