//! Property-based tests on the core invariants of the workspace, driven by
//! proptest over randomly generated task graphs, platforms and memory bounds.

use mals::gen::{DaggenParams, WeightRanges};
use mals::prelude::*;
use mals::sim::memory_peaks;
use mals::util::Staircase;
use proptest::prelude::*;

/// Strategy: a seeded random DAG of 4..=18 tasks with SmallRandSet-style
/// weights (the seed is the shrinkable quantity, keeping failures replayable).
fn arb_graph() -> impl Strategy<Value = TaskGraph> {
    (any::<u64>(), 4usize..=18, 2usize..=6).prop_map(|(seed, size, jumps)| {
        let mut rng = Pcg64::new(seed);
        mals::gen::daggen::generate(
            &DaggenParams {
                size,
                width: 0.4,
                density: 0.5,
                jumps,
            },
            &WeightRanges::small_rand(),
            &mut rng,
        )
    })
}

/// Strategy: a platform with 1..=3 processors of each colour.
fn arb_platform() -> impl Strategy<Value = Platform> {
    (1usize..=3, 1usize..=3).prop_map(|(p1, p2)| Platform::new(p1, p2, 0.0, 0.0).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every schedule produced by a memory-aware heuristic is valid: flow,
    /// resource and *both* memory constraints hold, for any memory bound.
    #[test]
    fn heuristic_schedules_are_always_valid(
        graph in arb_graph(),
        platform in arb_platform(),
        fraction in 0.2f64..1.5,
    ) {
        let unbounded = platform.unbounded();
        let reference = memory_peaks(&graph, &unbounded, &Heft::new().schedule(&graph, &unbounded).unwrap());
        let bound = (reference.max() * fraction).ceil();
        let bounded = platform.with_memory_bounds(bound, bound);
        for scheduler in [&MemHeft::new() as &dyn Scheduler, &MemMinMin::new()] {
            match scheduler.schedule(&graph, &bounded) {
                Ok(schedule) => {
                    prop_assert!(schedule.is_complete(&graph));
                    let report = validate(&graph, &bounded, &schedule);
                    prop_assert!(report.is_valid(), "{}: {:?}", scheduler.name(), report.errors);
                    prop_assert!(report.peaks.blue <= bound + 1e-6);
                    prop_assert!(report.peaks.red <= bound + 1e-6);
                }
                Err(ScheduleError::Infeasible { .. }) => {}
                Err(e) => prop_assert!(false, "unexpected error: {e}"),
            }
        }
    }

    /// With memory bounds no tighter than the total file volume, the memory
    /// terms of the EST can never bind and MemHEFT reproduces HEFT exactly
    /// (the paper's Section 6.2.1 observation).
    #[test]
    fn memheft_equals_heft_with_ample_memory(graph in arb_graph(), platform in arb_platform()) {
        let unbounded = platform.unbounded();
        let heft = Heft::new().schedule(&graph, &unbounded).unwrap();
        let ample = graph.total_file_size();
        let bounded = platform.with_memory_bounds(ample, ample);
        let memheft = MemHeft::new().schedule(&graph, &bounded).unwrap();
        prop_assert_eq!(&heft, &memheft);
        // And HEFT's own footprint indeed fits in that budget.
        let peaks = memory_peaks(&graph, &unbounded, &heft);
        prop_assert!(peaks.max() <= ample + 1e-9);
    }

    /// The memory-oblivious baselines always succeed and never report a
    /// makespan below the critical-path lower bound.
    #[test]
    fn baselines_always_succeed_and_respect_lower_bound(
        graph in arb_graph(),
        platform in arb_platform(),
    ) {
        let lb = mals::exact::makespan_lower_bound(&graph, &platform);
        for scheduler in [&Heft::new() as &dyn Scheduler, &MinMin::new()] {
            let schedule = scheduler.schedule(&graph, &platform).unwrap();
            prop_assert!(schedule.is_complete(&graph));
            prop_assert!(schedule.makespan() >= lb - 1e-9);
        }
    }

    /// The branch-and-bound optimum never exceeds any heuristic makespan and
    /// never undercuts the combinatorial lower bound.
    #[test]
    fn exact_between_lower_bound_and_heuristics(seed in any::<u64>()) {
        let mut rng = Pcg64::new(seed);
        let graph = mals::gen::daggen::generate(
            &DaggenParams { size: 7, width: 0.4, density: 0.5, jumps: 3 },
            &WeightRanges::small_rand(),
            &mut rng,
        );
        let platform = Platform::single_pair(150.0, 150.0);
        let ctx = SolveCtx::with_limits(SolveLimits::with_node_limit(200_000));
        let exact = BranchAndBound.solve(&graph, &platform, &ctx);
        let opt = exact.makespan().expect("ample memory");
        let lb = mals::exact::makespan_lower_bound(&graph, &platform);
        prop_assert!(opt >= lb - 1e-9);
        for scheduler in [&MemHeft::new() as &dyn Scheduler, &MemMinMin::new()] {
            let heuristic = scheduler.schedule(&graph, &platform).unwrap().makespan();
            prop_assert!(opt <= heuristic + 1e-9);
        }
    }

    /// Upward ranks strictly decrease along every edge of a positive-cost
    /// graph (the property that makes the MemHEFT priority list a valid
    /// topological order).
    #[test]
    fn upward_ranks_decrease_along_edges(graph in arb_graph()) {
        let ranks = mals::dag::upward_ranks(&graph);
        for e in graph.edge_ids() {
            let edge = graph.edge(e);
            prop_assert!(ranks[edge.src.index()] > ranks[edge.dst.index()]);
        }
    }

    /// Staircase algebra: reserving and then releasing the same amount leaves
    /// the profile identical, and `earliest_sustained_ge` always returns a
    /// time at which the requirement indeed holds.
    #[test]
    fn staircase_reserve_release_roundtrip(
        capacity in 1.0f64..100.0,
        updates in proptest::collection::vec((0.0f64..50.0, 0.0f64..50.0, 0.1f64..20.0), 0..12),
        threshold in 0.0f64..60.0,
    ) {
        let mut profile = Staircase::constant(capacity);
        let baseline = profile.clone();
        for (start, len, amount) in &updates {
            profile.add_range(*start, start + len, -amount);
        }
        if let Some(t) = profile.earliest_sustained_ge(0.0, threshold) {
            prop_assert!(profile.min_from(t) >= threshold - 1e-9);
        } else {
            prop_assert!(profile.final_value() < threshold);
        }
        // Undo everything: back to the constant function.
        for (start, len, amount) in &updates {
            profile.add_range(*start, start + len, *amount);
        }
        for x in [0.0, 1.0, 7.5, 33.3, 120.0] {
            prop_assert!((profile.value_at(x) - baseline.value_at(x)).abs() < 1e-9);
        }
    }

    /// The DAGGEN generator always produces valid DAGs of the requested size
    /// whose non-source tasks all have parents.
    #[test]
    fn generator_produces_well_formed_dags(seed in any::<u64>(), size in 1usize..60) {
        let mut rng = Pcg64::new(seed);
        let graph = mals::gen::daggen::generate(
            &DaggenParams { size, width: 0.3, density: 0.5, jumps: 4 },
            &WeightRanges::large_rand(),
            &mut rng,
        );
        prop_assert_eq!(graph.n_tasks(), size);
        prop_assert!(graph.validate().is_ok());
        let levels = mals::dag::algo::levels(&graph);
        for t in graph.task_ids() {
            if levels[t.index()] > 0 {
                prop_assert!(graph.in_degree(t) >= 1);
            }
        }
    }
}
