//! Cancellation conformance suite: every solver registered in
//! `mals::exact::solver_registry()` must honour the cooperative cancellation
//! protocol — a pre-tripped `CancelToken` (or an already-expired `Deadline`)
//! yields `LimitHit` without panicking and without a schedule, a token
//! tripped *mid-solve* from another thread makes the solver return promptly,
//! and no cancelled solve ever emits an invalid schedule.

use mals::prelude::*;
use mals::util::{CancelToken, Deadline};
use proptest::prelude::*;
use std::time::{Duration, Instant};

fn registry() -> mals::sched::SolverRegistry {
    solver_registry()
}

fn ctx() -> SolveCtx<'static> {
    SolveCtx::with_limits(SolveLimits::with_node_limit(100_000))
}

/// Asserts the cancellation contract for one already-cancelled context:
/// no panic (we got an outcome at all), status/schedule agreement, and no
/// schedule smuggled out under a `LimitHit`.
fn check_cancelled_outcome(key: &str, outcome: &SolveOutcome) {
    assert_eq!(
        outcome.schedule.is_some(),
        outcome.status.carries_schedule(),
        "{key}: status {} vs schedule presence",
        outcome.status
    );
    assert!(
        matches!(
            outcome.status,
            OptimalityStatus::LimitHit | OptimalityStatus::Infeasible
        ),
        "{key}: pre-cancelled solve claimed {}",
        outcome.status
    );
    assert!(outcome.schedule.is_none(), "{key}");
}

/// On the known-feasible toy instance every solver must answer a pre-tripped
/// token with exactly `LimitHit`: the quick infeasibility screens pass, so
/// nothing may be claimed.
#[test]
fn pre_tripped_token_yields_limit_hit_for_every_solver() {
    let (graph, _) = dex();
    let platform = Platform::single_pair(5.0, 5.0);
    let token = CancelToken::new();
    token.cancel();
    let ctx = ctx().with_cancel_token(&token);
    for entry in registry().entries() {
        let outcome = entry.build(7).solve(&graph, &platform, &ctx);
        assert_eq!(
            outcome.status,
            OptimalityStatus::LimitHit,
            "{}",
            entry.info.key
        );
        assert!(outcome.schedule.is_none(), "{}", entry.info.key);
    }
}

/// An already-expired deadline is equivalent to a pre-tripped token — same
/// check points, same `LimitHit` answer.
#[test]
fn expired_deadline_yields_limit_hit_for_every_solver() {
    let (graph, _) = dex();
    let platform = Platform::single_pair(5.0, 5.0);
    let ctx = ctx().with_deadline(Deadline::after_millis(0));
    for entry in registry().entries() {
        let outcome = entry.build(7).solve(&graph, &platform, &ctx);
        assert_eq!(
            outcome.status,
            OptimalityStatus::LimitHit,
            "{}",
            entry.info.key
        );
        assert!(outcome.schedule.is_none(), "{}", entry.info.key);
    }
}

/// Mid-solve cancellation from another thread: on a 1000-task instance the
/// solver must notice the trip at its next per-commit / per-node check point
/// and return — with either `LimitHit` (nothing salvaged), `Feasible` (an
/// exact backend keeping its incumbent) or a complete answer if it beat the
/// trip. Any schedule that does come back must validate.
#[test]
fn mid_solve_cancellation_returns_promptly_with_no_invalid_schedule() {
    let graph = mals_bench::large_rand_dag(1000, 42);
    let open = Platform::single_pair(0.0, 0.0);
    let baseline = mals::experiments::heft_baseline(&graph, &open);
    let bound = baseline.peaks.max();
    let platform = open.with_memory_bounds(bound, bound);

    for (key, delay_ms) in [
        ("memheft", 2),
        ("memminmin", 2),
        ("bb", 10),
        ("portfolio", 2),
    ] {
        let token = CancelToken::new();
        let trip = token.clone();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(delay_ms));
            trip.cancel();
        });
        let solver = registry().build(key).unwrap();
        let base = SolveCtx::with_limits(SolveLimits::with_node_limit(u64::MAX));
        let solve_ctx = base.with_cancel_token(&token);
        let started = Instant::now();
        let outcome = solver.solve(&graph, &platform, &solve_ctx);
        let elapsed = started.elapsed();
        canceller.join().unwrap();
        // "Promptly" with a wide margin: per-commit polling bounds the
        // overrun to one commit, not a full solve (B&B alone would run for
        // hours on a 1000-task instance without the trip).
        assert!(
            elapsed < Duration::from_secs(30),
            "{key}: returned only after {elapsed:?}"
        );
        assert_eq!(
            outcome.schedule.is_some(),
            outcome.status.carries_schedule(),
            "{key}"
        );
        if let Some(schedule) = &outcome.schedule {
            let report = validate(&graph, &platform, schedule);
            assert!(report.is_valid(), "{key}: {:?}", report.errors);
        }
    }
}

/// A token tripped after the solve finished changes nothing: the outcome was
/// already complete, and re-running with a fresh context reproduces it.
#[test]
fn cancellation_after_completion_does_not_retroactively_apply() {
    let (graph, _) = dex();
    let platform = Platform::single_pair(6.0, 6.0);
    let token = CancelToken::new();
    let solve_ctx = ctx().with_cancel_token(&token);
    let outcome = registry()
        .build("memheft")
        .unwrap()
        .solve(&graph, &platform, &solve_ctx);
    token.cancel();
    assert_eq!(outcome.status, OptimalityStatus::Heuristic);
    let fresh = registry()
        .build("memheft")
        .unwrap()
        .solve(&graph, &platform, &ctx());
    assert_eq!(outcome.schedule, fresh.schedule);
}

fn small_instance(seed: u64, n_tasks: usize) -> (TaskGraph, Platform) {
    let mut rng = Pcg64::new(seed);
    let graph = mals::gen::daggen::generate(
        &DaggenParams {
            size: n_tasks,
            width: 0.5,
            density: 0.5,
            jumps: 2,
        },
        &WeightRanges::small_rand(),
        &mut rng,
    );
    let open = Platform::single_pair(0.0, 0.0);
    let baseline = mals::experiments::heft_baseline(&graph, &open);
    let bound = (baseline.peaks.max() * 0.8).max(1.0);
    (graph, open.with_memory_bounds(bound, bound))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Pre-tripped cancellation sweep over random instances and the whole
    /// registry. On a random instance a pre-tripped exact backend may still
    /// return `Infeasible` (its O(n) static memory screen is a real proof
    /// that needs no search), so the contract here is: `LimitHit` or
    /// `Infeasible`, never a schedule, never a panic.
    #[test]
    fn pre_tripped_solvers_conform_on_random_instances(
        seed in any::<u64>(), n_tasks in 4usize..10,
    ) {
        let (graph, platform) = small_instance(seed, n_tasks);
        let token = CancelToken::new();
        token.cancel();
        let solve_ctx = ctx().with_cancel_token(&token);
        for entry in registry().entries() {
            let outcome = entry.build(seed).solve(&graph, &platform, &solve_ctx);
            check_cancelled_outcome(entry.info.key, &outcome);
        }
    }

    /// The deadline path through the same sweep.
    #[test]
    fn expired_deadline_solvers_conform_on_random_instances(
        seed in any::<u64>(), n_tasks in 4usize..10,
    ) {
        let (graph, platform) = small_instance(seed, n_tasks);
        let solve_ctx = ctx().with_deadline(Deadline::after_millis(0));
        for entry in registry().entries() {
            let outcome = entry.build(seed).solve(&graph, &platform, &solve_ctx);
            check_cancelled_outcome(entry.info.key, &outcome);
        }
    }
}
