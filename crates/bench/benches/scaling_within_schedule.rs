//! Within-schedule parallel scaling: the same 1000-task LargeRandSet
//! instance (Figures 12–13 scale) scheduled with the ready-list evaluation
//! spread over 1 / 2 / 4 / 8 threads.
//!
//! The schedules are bit-identical at every thread count (asserted by
//! `tests/parallel_determinism.rs`); this bench measures only the wall-clock
//! effect of the `mals_util::WorkerPool` engine. On a single-core machine
//! the >1-thread rows show the pool's synchronisation overhead instead of a
//! speedup — read them next to the machine's `available_parallelism`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mals_bench::{large_rand_dag, single_pair, WITHIN_SCHEDULE_SEED, WITHIN_SCHEDULE_TASKS};
use mals_experiments::heft_baseline;
use mals_sched::{MemHeft, MemMinMin, Scheduler};
use mals_util::ParallelConfig;
use std::hint::black_box;
use std::time::Duration;

fn bench_within_schedule(c: &mut Criterion) {
    let mut group = c.benchmark_group("within_schedule");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));

    let graph = large_rand_dag(WITHIN_SCHEDULE_TASKS, WITHIN_SCHEDULE_SEED);
    let platform = single_pair(0.0);
    let baseline = heft_baseline(&graph, &platform);
    let bound = 0.7 * baseline.peaks.max();
    let bounded = platform.with_memory_bounds(bound, bound);

    for &threads in &[1usize, 2, 4, 8] {
        let cfg = ParallelConfig::with_threads(threads);
        group.bench_with_input(BenchmarkId::new("memminmin", threads), &threads, |b, _| {
            b.iter(|| {
                MemMinMin::with_parallelism(cfg).schedule(black_box(&graph), black_box(&bounded))
            })
        });
        group.bench_with_input(BenchmarkId::new("memheft", threads), &threads, |b, _| {
            b.iter(|| {
                MemHeft::with_parallelism(cfg).schedule(black_box(&graph), black_box(&bounded))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_within_schedule);
criterion_main!(benches);
