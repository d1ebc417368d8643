//! Scheduler-runtime scaling: how the heuristics' cost grows with the task
//! count (the paper states a worst-case complexity of `O(n²(n + m))` for both
//! memory-aware heuristics).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mals_bench::{large_rand_dag, single_pair};
use mals_experiments::heft_baseline;
use mals_sched::{MemHeft, MemMinMin, Scheduler};
use std::hint::black_box;
use std::time::Duration;

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    for &n_tasks in &[50usize, 100, 200, 400] {
        let graph = large_rand_dag(n_tasks, 0x5CA1E + n_tasks as u64);
        let platform = single_pair(0.0);
        let baseline = heft_baseline(&graph, &platform);
        let bound = 0.7 * baseline.peaks.max();
        let bounded = platform.with_memory_bounds(bound, bound);

        group.bench_with_input(BenchmarkId::new("memheft", n_tasks), &n_tasks, |b, _| {
            b.iter(|| MemHeft::new().schedule(black_box(&graph), black_box(&bounded)))
        });
        group.bench_with_input(BenchmarkId::new("memminmin", n_tasks), &n_tasks, |b, _| {
            b.iter(|| MemMinMin::new().schedule(black_box(&graph), black_box(&bounded)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
