//! Portfolio equivalence suite: with no deadline, racing a portfolio is
//! *observationally identical* to running every member individually and
//! keeping the best — same winner, same makespan, bit-identical schedule —
//! for any worker-thread count. With a deadline, the race is anytime: on the
//! 10⁴-task fixture a 500 ms budget still returns a valid schedule well
//! under a second of wall time.

use mals::prelude::*;
use mals::util::Deadline;
use std::time::Instant;

/// Runs every default member individually (same seed, sequential context —
/// exactly what each racing member sees) and returns the best schedule by
/// the portfolio's own tie-break: smallest `(makespan, member index)`.
fn best_of_members_individually(
    graph: &TaskGraph,
    platform: &Platform,
) -> Option<(usize, Schedule)> {
    let registry = solver_registry();
    let mut best: Option<(usize, Schedule)> = None;
    for (i, key) in DEFAULT_MEMBERS.iter().enumerate() {
        let outcome =
            registry
                .build_seeded(key, 0)
                .unwrap()
                .solve(graph, platform, &SolveCtx::sequential());
        if let Some(schedule) = outcome.schedule {
            if validate(graph, platform, &schedule).is_valid()
                && best
                    .as_ref()
                    .is_none_or(|(_, b)| schedule.makespan() < b.makespan())
            {
                best = Some((i, schedule));
            }
        }
    }
    best
}

fn fixture(n_tasks: usize, tightness: f64) -> (TaskGraph, Platform) {
    let graph = mals_bench::large_rand_dag(n_tasks, 42);
    let open = Platform::single_pair(0.0, 0.0);
    let baseline = mals::experiments::heft_baseline(&graph, &open);
    let bound = baseline.peaks.max() * tightness;
    (graph, open.with_memory_bounds(bound, bound))
}

/// The tentpole equivalence: no deadline ⇒ the portfolio is bit-identical
/// to best-of-members, across 1 / 2 / 4 worker threads.
#[test]
fn no_deadline_portfolio_equals_best_of_members_across_thread_counts() {
    let (graph, platform) = fixture(300, 0.9);
    let (expected_winner, expected_schedule) =
        best_of_members_individually(&graph, &platform).expect("fixture is feasible");
    for threads in [1, 2, 4] {
        let engine = Engine::new(
            solver_registry(),
            EngineConfig::default().with_threads(threads),
        );
        let report = engine
            .solve_portfolio::<&str>(&[], 0, &graph, &platform, None)
            .unwrap();
        assert_eq!(
            report.winner,
            Some(expected_winner),
            "{threads} threads picked a different winner"
        );
        assert_eq!(
            report.outcome.schedule.as_ref(),
            Some(&expected_schedule),
            "{threads} threads diverged from the individual best"
        );
        assert_eq!(report.outcome.status, OptimalityStatus::Heuristic);
        // The aggregate makespan is ≤ every member's own result.
        let best = report.outcome.makespan().unwrap();
        for member in &report.members {
            if let Some(makespan) = member.makespan {
                assert!(
                    best <= makespan + 1e-9,
                    "{}: member makespan {makespan} beats the winner {best}",
                    member.key
                );
            }
        }
    }
}

/// Tightening the memory bound changes which member wins on some instances;
/// the equivalence must hold regardless of who that is.
#[test]
fn equivalence_holds_across_memory_pressure_levels() {
    for tightness in [0.7, 0.85, 1.0] {
        let (graph, platform) = fixture(200, tightness);
        let engine = Engine::new(solver_registry(), EngineConfig::default().with_threads(2));
        let report = engine
            .solve_portfolio::<&str>(&[], 0, &graph, &platform, None)
            .unwrap();
        match best_of_members_individually(&graph, &platform) {
            Some((expected_winner, expected_schedule)) => {
                assert_eq!(
                    report.winner,
                    Some(expected_winner),
                    "tightness {tightness}"
                );
                assert_eq!(
                    report.outcome.schedule.as_ref(),
                    Some(&expected_schedule),
                    "tightness {tightness}"
                );
            }
            None => assert_eq!(report.winner, None, "tightness {tightness}"),
        }
    }
}

/// The anytime acceptance bar: a 2-member portfolio over the 10⁴-task
/// fixture with a 500 ms deadline returns a *valid* schedule in < 1 s of
/// wall time — the fast member finishes inside the budget, the slow one is
/// cancelled at its next commit instead of running to completion.
#[test]
fn deadline_bounded_race_returns_valid_schedule_on_large_fixture() {
    let (graph, platform) = fixture(10_000, 1.0);
    let engine = Engine::new(solver_registry(), EngineConfig::sequential());
    let started = Instant::now();
    let report = engine
        .solve_portfolio(
            &["memheft", "memminmin"],
            0,
            &graph,
            &platform,
            Some(Deadline::after_millis(500)),
        )
        .unwrap();
    let elapsed = started.elapsed();
    assert!(
        elapsed.as_millis() < 1000,
        "race overran the deadline: {elapsed:?}"
    );
    let schedule = report
        .outcome
        .schedule
        .as_ref()
        .expect("the fast member finishes inside the 500 ms budget");
    let verdict = validate(&graph, &platform, schedule);
    assert!(verdict.is_valid(), "{:?}", verdict.errors);
    assert!(report.outcome.status.carries_schedule());
    assert!(report.wall_time_ms < 1000);
}

/// Without a pool the race degrades to a deadline-bounded sequential sweep,
/// and the no-deadline result is still identical to the pooled one.
#[test]
fn sequential_and_pooled_races_agree() {
    let (graph, platform) = fixture(150, 0.9);
    let sequential = Engine::new(solver_registry(), EngineConfig::sequential());
    let pooled = Engine::new(solver_registry(), EngineConfig::default().with_threads(4));
    let a = sequential
        .solve_portfolio::<&str>(&[], 0, &graph, &platform, None)
        .unwrap();
    let b = pooled
        .solve_portfolio::<&str>(&[], 0, &graph, &platform, None)
        .unwrap();
    assert_eq!(a.winner, b.winner);
    assert_eq!(a.outcome.schedule, b.outcome.schedule);
    assert_eq!(a.members.len(), b.members.len());
    for (x, y) in a.members.iter().zip(&b.members) {
        assert_eq!(x.key, y.key);
        assert_eq!(x.makespan, y.makespan);
        assert_eq!(x.status, y.status);
    }
}
