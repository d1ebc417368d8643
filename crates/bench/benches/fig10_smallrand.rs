//! Figure 10 — SmallRandSet campaign: memory-aware heuristics and the exact
//! branch-and-bound solver under normalised memory bounds.

use criterion::{criterion_group, criterion_main, Criterion};
use mals_bench::{single_pair, small_rand_dag, small_rand_set};
use mals_exact::BranchAndBound;
use mals_experiments::figures::{fig10, Fig10Config};
use mals_experiments::heft_baseline;
use mals_sched::{MemHeft, MemMinMin, Scheduler};
use mals_util::ParallelConfig;
use std::hint::black_box;
use std::time::Duration;

fn bench_fig10(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    // One representative DAG at the tightest of {70%, 80%, 90%, 100%} of
    // HEFT's memory requirement that is still schedulable, so the heuristics
    // are measured on real scheduling work rather than on failure detection.
    let graph = small_rand_dag(16, 0x51);
    let platform = single_pair(0.0);
    let baseline = heft_baseline(&graph, &platform);
    let bound = [0.7, 0.8, 0.9, 1.0]
        .iter()
        .map(|f| f * baseline.peaks.max())
        .find(|&b| {
            MemHeft::new()
                .schedule(&graph, &platform.with_memory_bounds(b, b))
                .is_ok()
        })
        .unwrap_or(baseline.peaks.max());
    let bounded = platform.with_memory_bounds(bound, bound);
    eprintln!(
        "# fig10 single-DAG memory bound: {bound:.1} ({:.0}% of HEFT's footprint)",
        100.0 * bound / baseline.peaks.max()
    );

    group.bench_function("memheft_one_dag_70pct", |b| {
        b.iter(|| MemHeft::new().schedule(black_box(&graph), black_box(&bounded)))
    });
    group.bench_function("memminmin_one_dag_70pct", |b| {
        b.iter(|| MemMinMin::new().schedule(black_box(&graph), black_box(&bounded)))
    });
    group.bench_function("optimal_bb_one_dag_70pct", |b| {
        b.iter(|| {
            BranchAndBound::with_node_limit(20_000).solve(black_box(&graph), black_box(&bounded))
        })
    });

    // The whole (scaled-down) campaign, sequentially, as one measurement.
    let _warm = small_rand_set(2, 8);
    group.bench_function("campaign_4_dags_8_tasks", |b| {
        let config = Fig10Config {
            n_dags: 4,
            n_tasks: 8,
            alphas: vec![0.4, 0.7, 1.0],
            optimal_node_limit: 5_000,
            parallel: ParallelConfig::sequential(),
            ..Fig10Config::default()
        };
        b.iter(|| fig10(black_box(&config)))
    });
    group.finish();
}

criterion_group!(benches, bench_fig10);
criterion_main!(benches);
