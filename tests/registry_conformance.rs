//! Registry conformance suite: every solver registered in
//! `mals::exact::solver_registry()` must honour the `Solver` contract —
//! schedules pass the independent validator, the declared optimality status
//! is never stronger than what was proven (exact `Optimal` claims are
//! cross-checked against the B&B oracle), and the JSON service surface
//! round-trips requests and reports bit-for-bit.

use mals::prelude::*;
use proptest::prelude::*;

fn registry() -> mals::sched::SolverRegistry {
    solver_registry()
}

fn ctx() -> SolveCtx<'static> {
    SolveCtx::with_limits(SolveLimits::with_node_limit(100_000))
}

/// The platform a solver's schedule must validate against: the bounded
/// platform for memory-aware solvers, the unbounded one for the baselines
/// (which ignore the bounds by contract).
fn validation_platform(info: &mals::sched::SolverInfo, platform: &Platform) -> Platform {
    if info.memory_aware {
        platform.clone()
    } else {
        platform.unbounded()
    }
}

/// Checks one solver on one instance; returns the makespan when a schedule
/// was produced. `optimal_reference`: the B&B-certified optimum (None when
/// the instance is infeasible).
fn check_solver(
    entry: &mals::sched::SolverEntry,
    graph: &TaskGraph,
    platform: &Platform,
    optimal_reference: Option<f64>,
) -> Option<f64> {
    let key = entry.info.key;
    let outcome = entry.build(42).solve(graph, platform, &ctx());
    // Status and schedule presence must agree.
    assert_eq!(
        outcome.schedule.is_some(),
        outcome.status.carries_schedule(),
        "{key}: status {} vs schedule presence",
        outcome.status
    );
    // Heuristics never claim proofs; exact solvers never claim `Heuristic`.
    if entry.info.exact {
        assert_ne!(outcome.status, OptimalityStatus::Heuristic, "{key}");
    } else if outcome.schedule.is_some() {
        assert_eq!(outcome.status, OptimalityStatus::Heuristic, "{key}");
    }
    let schedule = outcome.schedule.as_ref()?;
    // Every produced schedule passes the independent validator.
    let report = validate(graph, &validation_platform(&entry.info, platform), schedule);
    assert!(report.is_valid(), "{key}: {:?}", report.errors);
    // An `Optimal` claim must match the B&B oracle exactly.
    if outcome.status == OptimalityStatus::Optimal {
        let reference = optimal_reference.expect("oracle disagrees: instance is infeasible");
        assert!(
            (schedule.makespan() - reference).abs() < 1e-6,
            "{key}: claimed optimum {} but B&B proves {reference}",
            schedule.makespan()
        );
    }
    // No schedule may beat the certified optimum.
    if let Some(reference) = optimal_reference {
        if entry.info.memory_aware {
            assert!(
                schedule.makespan() >= reference - 1e-6,
                "{key}: makespan {} beats the optimum {reference}",
                schedule.makespan()
            );
        }
    }
    Some(schedule.makespan())
}

/// The B&B-certified optimal makespan of an instance, if feasible.
fn bb_reference(graph: &TaskGraph, platform: &Platform) -> Option<f64> {
    let outcome = registry()
        .build("bb")
        .unwrap()
        .solve(graph, platform, &ctx());
    assert!(
        outcome.is_optimal() || outcome.status == OptimalityStatus::Infeasible,
        "oracle did not settle the instance"
    );
    outcome.makespan()
}

#[test]
fn every_registered_solver_conforms_on_the_toy_dag() {
    let (graph, _) = dex();
    for bound in [4.0, 5.0, 8.0] {
        let platform = Platform::single_pair(bound, bound);
        let reference = bb_reference(&graph, &platform);
        for entry in registry().entries() {
            check_solver(entry, &graph, &platform, reference);
        }
    }
}

#[test]
fn infeasible_instances_are_never_given_schedules_by_exact_solvers() {
    let (graph, _) = dex();
    let hopeless = Platform::single_pair(2.0, 2.0);
    for entry in registry().entries() {
        if !entry.info.exact {
            continue;
        }
        let outcome = entry.build(0).solve(&graph, &hopeless, &ctx());
        assert_eq!(
            outcome.status,
            OptimalityStatus::Infeasible,
            "{}",
            entry.info.key
        );
    }
}

#[test]
fn engine_batch_api_agrees_with_single_solves() {
    let graphs: Vec<TaskGraph> = (0..3)
        .map(|i| {
            let mut rng = Pcg64::new(100 + i);
            mals::gen::daggen::generate(
                &DaggenParams::small_rand(),
                &WeightRanges::small_rand(),
                &mut rng,
            )
        })
        .collect();
    let platform = Platform::new(2, 2, 150.0, 150.0).unwrap();
    let engine = mals::exact::engine(EngineConfig::default().with_threads(2));
    let batch = engine.solve_batch("memheft", &graphs, &platform).unwrap();
    for (graph, outcome) in graphs.iter().zip(&batch) {
        let single = engine.solve("memheft", graph, &platform).unwrap();
        assert_eq!(single.schedule, outcome.schedule);
    }
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
    // Bound at 80% of HEFT's own footprint so the memory logic does real
    // work but most instances stay feasible.
    let open = Platform::single_pair(0.0, 0.0);
    let baseline = mals::experiments::heft_baseline(&graph, &open);
    let bound = (baseline.peaks.max() * 0.8).max(1.0);
    (graph, open.with_memory_bounds(bound, bound))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Conformance sweep over random small instances: every registered
    /// solver validates and honours its status; exact `Optimal` claims
    /// agree with the B&B oracle.
    #[test]
    fn registry_conformance_on_random_instances(seed in any::<u64>(), n_tasks in 4usize..8) {
        let (graph, platform) = small_instance(seed, n_tasks);
        let reference = bb_reference(&graph, &platform);
        for entry in registry().entries() {
            check_solver(entry, &graph, &platform, reference);
        }
    }

    /// `SolveRequest` round-trips through JSON text exactly.
    #[test]
    fn request_json_roundtrip(seed in any::<u64>(), n_tasks in 1usize..12,
                              threads in 0usize..8, node_limit in 1usize..1_000_000,
                              deadline in 0usize..100_000, has_deadline in any::<bool>(),
                              portfolio in any::<bool>()) {
        let (graph, platform) = small_instance(seed, n_tasks.max(4));
        let request = SolveRequest {
            graph,
            platform,
            solver: if portfolio { "portfolio".into() } else { "memheft-rand".into() },
            threads,
            limits: SolveLimits::with_node_limit(node_limit as u64),
            seed: Some(seed),
            solvers: if portfolio {
                vec!["memheft".into(), "memminmin".into()]
            } else {
                Vec::new()
            },
            deadline_ms: has_deadline.then_some(deadline as u64),
        };
        let text = request.to_json().to_pretty();
        prop_assert_eq!(SolveRequest::parse(&text).unwrap(), request);
    }

    /// `SolveReport` round-trips through JSON text exactly, and its embedded
    /// schedule re-validates, for every solver on the same request.
    #[test]
    fn report_json_roundtrip(seed in any::<u64>()) {
        let (graph, platform) = small_instance(seed, 6);
        for key in ["memheft", "memminmin", "heft", "bb", "milp", "portfolio"] {
            let request = SolveRequest {
                graph: graph.clone(),
                platform: platform.clone(),
                solver: key.into(),
                threads: 1,
                limits: SolveLimits::with_node_limit(100_000),
                seed: None,
                solvers: Vec::new(),
                deadline_ms: (key == "portfolio").then_some(60_000),
            };
            let report = Service::for_request(&request).try_handle(&request).unwrap();
            let back = SolveReport::parse(&report.to_json().to_pretty()).unwrap();
            prop_assert_eq!(&back, &report, "{} diverged through JSON", key);
            if key == "portfolio" {
                // The member breakdown and deadline echo must survive the
                // round-trip, and a winner implies a matching member entry.
                prop_assert_eq!(back.members.len(), DEFAULT_MEMBERS.len());
                prop_assert_eq!(back.deadline_ms, Some(60_000));
                if let Some(winner) = &back.winner {
                    prop_assert!(back.members.iter().any(|m| &m.key == winner));
                }
            }
            if let Some(schedule) = &back.schedule {
                let check = if key == "heft" { platform.unbounded() } else { platform.clone() };
                prop_assert!(validate(&graph, &check, schedule).is_valid());
            }
        }
    }
}
