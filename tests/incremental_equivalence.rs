//! Equivalence guard for the incremental scheduling engine.
//!
//! PR 5 reworked the MemHEFT / MemMinMin / ablation selection loops around
//! an incrementally maintained ready-set and an epoch-based EST cache
//! (the crate-private `EstCache`), and made the staircase queries indexed.
//! None of that may change a single placement: this suite re-implements the
//! pre-refactor loops *verbatim* on the public `PartialSchedule` API —
//! scan-everything, fresh evaluation at every step, no cache — and asserts
//! that every production scheduler produces **bit-identical** schedules (and
//! identical failures) across random DAGs and memory bounds from hopeless to
//! ample. The static solvers and the online replayer share one selection
//! core, so the online registry solvers (a whole-DAG-at-`t = 0` replay) are
//! held to the same loops here rather than only to the static solvers.

use mals::dag::rank;
use mals::gen::{ArrivalTrace, DaggenParams, WeightRanges};
use mals::prelude::*;
use mals::sched::{
    online, MemHeftVariant, MemoryPreference, OnlineSolver, PartialSchedule, PriorityScheme,
};
use mals::sim::memory_peaks;
use proptest::prelude::*;

/// The pre-refactor MemHEFT selection engine: scan the priority list from
/// the front at every step, evaluate every ready candidate from scratch,
/// commit the first feasible one.
fn reference_priority_schedule(
    graph: &TaskGraph,
    platform: &Platform,
    order: &[TaskId],
    prefer_red: bool,
) -> Result<Schedule, String> {
    graph.validate().map_err(|e| e.to_string())?;
    let mut partial = PartialSchedule::new(graph, platform);
    let mut remaining: Vec<TaskId> = order.to_vec();
    while !remaining.is_empty() {
        let mut committed = None;
        for (position, &task) in remaining.iter().enumerate() {
            if !partial.is_ready(task) {
                continue;
            }
            if let Some(breakdown) = partial.evaluate_best_with(task, prefer_red) {
                partial.commit(task, &breakdown);
                committed = Some(position);
                break;
            }
        }
        match committed {
            Some(position) => {
                remaining.remove(position);
            }
            None => return partial.finish_or_error().map_err(|e| e.to_string()),
        }
    }
    partial.finish_or_error().map_err(|e| e.to_string())
}

/// The pre-refactor MemMinMin loop: evaluate the whole ready list from
/// scratch at every step, commit the globally smallest EFT.
fn reference_memminmin(graph: &TaskGraph, platform: &Platform) -> Result<Schedule, String> {
    graph.validate().map_err(|e| e.to_string())?;
    let mut partial = PartialSchedule::new(graph, platform);
    while !partial.is_complete() {
        match partial.best_ready_choice() {
            Some((task, breakdown)) => {
                partial.commit(task, &breakdown);
            }
            None => return partial.finish_or_error().map_err(|e| e.to_string()),
        }
    }
    partial.finish_or_error().map_err(|e| e.to_string())
}

fn arb_graph() -> impl Strategy<Value = TaskGraph> {
    (any::<u64>(), 8usize..=40, 2usize..=6).prop_map(|(seed, size, jumps)| {
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

fn arb_platform() -> impl Strategy<Value = Platform> {
    (1usize..=3, 1usize..=3).prop_map(|(p1, p2)| Platform::new(p1, p2, 0.0, 0.0).unwrap())
}

/// Bounds both memories at `fraction` of the memory-oblivious HEFT
/// footprint (the campaign normalisation), from binding to ample.
fn bounded(graph: &TaskGraph, platform: &Platform, fraction: f64) -> Platform {
    let unbounded = platform.unbounded();
    let peaks = memory_peaks(
        graph,
        &unbounded,
        &Heft::new().schedule(graph, &unbounded).unwrap(),
    );
    let bound = (peaks.max() * fraction).ceil();
    platform.with_memory_bounds(bound, bound)
}

fn assert_matches_reference(
    scheduler: &dyn Scheduler,
    reference: &Result<Schedule, String>,
    graph: &TaskGraph,
    platform: &Platform,
) {
    let outcome = scheduler
        .schedule(graph, platform)
        .map_err(|e| e.to_string());
    assert!(
        outcome == *reference,
        "{} diverged from the pre-refactor engine",
        scheduler.name()
    );
}

/// The online registry solver's replay — the whole DAG released at `t = 0`,
/// re-planned on every arrival — must equal the reference loop, failures
/// included.
fn assert_online_matches_reference(
    solver: OnlineSolver,
    reference: &Result<Schedule, String>,
    graph: &TaskGraph,
    platform: &Platform,
) {
    let trace = ArrivalTrace::at_once(graph.n_tasks());
    let outcome = online::replay(
        graph,
        platform,
        &trace,
        solver.config(),
        &SolveCtx::sequential(),
    )
    .map(|outcome| outcome.schedule)
    .map_err(|e| e.to_string());
    assert!(
        outcome == *reference,
        "{} diverged from the pre-refactor engine",
        solver.name()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// MemHEFT and MemMinMin are bit-identical to the scan-everything
    /// engines on tight (0.3–0.8) and loose (≥ 1.0) memory bounds.
    #[test]
    fn memheft_and_memminmin_match_pre_refactor(
        graph in arb_graph(),
        platform in arb_platform(),
        tight in 0.3f64..0.8,
    ) {
        for fraction in [tight, 1.0 + tight] {
            let bounded = bounded(&graph, &platform, fraction);
            let order = rank::rank_sorted_tasks(&graph);
            let memheft_ref = reference_priority_schedule(&graph, &bounded, &order, false);
            assert_matches_reference(&MemHeft::new(), &memheft_ref, &graph, &bounded);
            let memminmin_ref = reference_memminmin(&graph, &bounded);
            assert_matches_reference(&MemMinMin::new(), &memminmin_ref, &graph, &bounded);
            assert_online_matches_reference(OnlineSolver::memheft(), &memheft_ref, &graph, &bounded);
            assert_online_matches_reference(OnlineSolver::memminmin(), &memminmin_ref, &graph, &bounded);
        }
    }

    /// Every ablation variant rides the same engine: each priority scheme
    /// and the red-preference tie-break must match the reference run on its
    /// own priority list.
    #[test]
    fn ablation_variants_match_pre_refactor(
        graph in arb_graph(),
        platform in arb_platform(),
        fraction in 0.4f64..1.4,
    ) {
        let bounded = bounded(&graph, &platform, fraction);
        for (priority, preference) in [
            (PriorityScheme::UpwardRank, MemoryPreference::Blue),
            (PriorityScheme::CriticalPathSum, MemoryPreference::Blue),
            (PriorityScheme::MemoryRequirement, MemoryPreference::Blue),
            (PriorityScheme::UpwardRank, MemoryPreference::Red),
        ] {
            let variant = MemHeftVariant {
                priority,
                memory_preference: preference,
                ..Default::default()
            };
            let order = variant.priority_list(&graph);
            let reference = reference_priority_schedule(
                &graph,
                &bounded,
                &order,
                preference == MemoryPreference::Red,
            );
            assert_matches_reference(&variant, &reference, &graph, &bounded);
        }
    }
}

/// The paper-scale fixture: the exact 1000-task LargeRandSet instance the
/// `memminmin/largerand-1000-t1` bench measures, scheduled at a binding 70%
/// bound — the incremental engine must reproduce the scan-everything
/// schedule bit for bit.
#[test]
fn large_rand_1000_tasks_matches_pre_refactor() {
    let graph = mals_bench::large_rand_dag(1000, 0x1000 + 1000);
    let platform = Platform::single_pair(0.0, 0.0);
    let bounded = bounded(&graph, &platform, 0.7);
    let order = rank::rank_sorted_tasks(&graph);
    let reference =
        reference_priority_schedule(&graph, &bounded, &order, false).expect("feasible at 70%");
    let incremental = MemHeft::new().schedule(&graph, &bounded).unwrap();
    assert_eq!(reference, incremental, "n=1000 MemHEFT diverged");
    assert_online_matches_reference(OnlineSolver::memheft(), &Ok(reference), &graph, &bounded);
    let reference = reference_memminmin(&graph, &bounded).expect("feasible at 70%");
    let incremental = MemMinMin::new().schedule(&graph, &bounded).unwrap();
    assert_eq!(reference, incremental, "n=1000 MemMinMin diverged");
    assert_online_matches_reference(OnlineSolver::memminmin(), &Ok(reference), &graph, &bounded);
}
