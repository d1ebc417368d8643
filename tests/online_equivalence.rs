//! Equivalence and determinism guard for the online rolling-horizon layer.
//!
//! The online engine (`mals::sched::online`) replays an arrival trace
//! through an event-driven simulator and re-plans the unscheduled suffix.
//! Its built-in oracle: a trace that releases the whole DAG at `t = 0`,
//! replayed with re-plan-on-every-arrival, must reproduce the static
//! solver's schedule **bit for bit** — same placements, same makespan, same
//! memory peaks, and the same `Infeasible` counts on hopeless instances.
//! This suite pins that oracle on random instances (proptest) and a
//! 1000-task fixture, checks the trace JSON round-trip (serialize → parse →
//! byte-identical re-serialization and an identical replay), and verifies
//! that staggered arrivals are honoured: no task ever starts before its
//! release instant.

use mals::gen::{ArrivalProcess, ArrivalTrace, DaggenParams, WeightRanges};
use mals::prelude::*;
use mals::sched::{online, OnlineConfig, OnlineFlavor, OnlineOutcome, ReplanPolicy};
use mals::sim::memory_peaks;
use proptest::prelude::*;

fn generated(seed: u64, size: usize) -> TaskGraph {
    let mut rng = Pcg64::new(seed);
    mals::gen::daggen::generate(
        &DaggenParams::large_rand().with_size(size),
        &WeightRanges::small_rand(),
        &mut rng,
    )
}

/// Bounds both memories at `fraction` of the memory-oblivious HEFT
/// footprint (the campaign normalisation).
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

fn run_replay(
    graph: &TaskGraph,
    platform: &Platform,
    trace: &ArrivalTrace,
    config: OnlineConfig,
) -> Result<OnlineOutcome, String> {
    online::replay(graph, platform, trace, config, &SolveCtx::sequential())
        .map_err(|e| e.to_string())
}

/// The oracle: at-once trace + every-arrival re-planning must equal the
/// static solver exactly — schedule, makespan, peaks and failures alike.
fn assert_static_equivalence(graph: &TaskGraph, platform: &Platform) {
    let trace = ArrivalTrace::at_once(graph.n_tasks());
    for flavor in [OnlineFlavor::MemHeft, OnlineFlavor::MemMinMin] {
        let config = OnlineConfig::new(flavor, ReplanPolicy::EveryArrival);
        let static_result = match flavor {
            OnlineFlavor::MemHeft => MemHeft::new().schedule(graph, platform),
            OnlineFlavor::MemMinMin => MemMinMin::new().schedule(graph, platform),
        }
        .map_err(|e| e.to_string());
        let online_result = run_replay(graph, platform, &trace, config).map(|o| o.schedule);
        match (&online_result, &static_result) {
            (Ok(online_schedule), Ok(static_schedule)) => {
                assert_eq!(
                    online_schedule, static_schedule,
                    "{flavor:?} diverged from the static solver"
                );
                assert_eq!(
                    memory_peaks(graph, platform, online_schedule),
                    memory_peaks(graph, platform, static_schedule),
                );
            }
            (Err(online_err), Err(static_err)) => {
                assert_eq!(online_err, static_err, "{flavor:?} failed differently");
            }
            _ => panic!("{flavor:?}: online {online_result:?} vs static {static_result:?}"),
        }
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Static equivalence on random instances, from binding (possibly
    /// infeasible) to ample memory bounds.
    #[test]
    fn at_once_replay_matches_static_solvers(
        graph in arb_graph(),
        platform in arb_platform(),
        tight in 0.3f64..0.8,
    ) {
        for fraction in [tight, 1.0 + tight] {
            let bounded = bounded(&graph, &platform, fraction);
            assert_static_equivalence(&graph, &bounded);
        }
    }

    /// A staggered trace never lets a task start before its release, and
    /// the replay is a pure function of (graph, trace, config).
    #[test]
    fn staggered_replay_respects_arrivals_and_is_deterministic(
        seed in any::<u64>(),
        rate in 0.2f64..5.0,
    ) {
        let graph = generated(seed, 60);
        let platform = bounded(&graph, &Platform::new(2, 2, 0.0, 0.0).unwrap(), 1.2);
        let trace = ArrivalProcess::Poisson { rate }.generate(&graph, seed ^ 0xF00D);
        for flavor in [OnlineFlavor::MemHeft, OnlineFlavor::MemMinMin] {
            let config = OnlineConfig::new(flavor, ReplanPolicy::EveryArrival);
            let first = run_replay(&graph, &platform, &trace, config).unwrap();
            let second = run_replay(&graph, &platform, &trace, config).unwrap();
            prop_assert_eq!(&first.schedule, &second.schedule);
            let report = validate(&graph, &platform, &first.schedule);
            prop_assert!(report.is_valid(), "{:?}", report.errors);
            let mut released = vec![0.0f64; graph.n_tasks()];
            for event in trace.events() {
                for &t in &event.tasks {
                    released[t.index()] = event.at;
                }
            }
            for t in graph.task_ids() {
                let placement = first.schedule.task(t).unwrap();
                prop_assert!(placement.start >= released[t.index()] - 1e-12);
            }
        }
    }

    /// Trace JSON round-trip: parse(serialize(trace)) is the same trace,
    /// re-serializes to the identical byte string, and replays to the
    /// identical schedule.
    #[test]
    fn trace_round_trips_through_json(seed in any::<u64>(), batch in 1usize..8) {
        let graph = generated(seed, 40);
        let trace = ArrivalProcess::Bursty { batch, rate: 1.0 }.generate(&graph, seed);
        let text = trace.to_json().to_pretty();
        let parsed = ArrivalTrace::parse(&text).unwrap();
        prop_assert_eq!(&parsed, &trace);
        prop_assert_eq!(parsed.to_json().to_pretty(), text);
        let platform = bounded(&graph, &Platform::new(2, 2, 0.0, 0.0).unwrap(), 1.5);
        let config = OnlineConfig::new(OnlineFlavor::MemHeft, ReplanPolicy::EveryArrival);
        let original = run_replay(&graph, &platform, &trace, config).unwrap();
        let reparsed = run_replay(&graph, &platform, &parsed, config).unwrap();
        prop_assert_eq!(original.schedule, reparsed.schedule);
    }
}

/// The 1000-task fixture: static equivalence on a LargeRandSet-shaped
/// instance.
#[test]
fn thousand_task_fixture_matches_static_solvers() {
    let graph = generated(7, 1000);
    let platform = bounded(&graph, &Platform::new(2, 2, 0.0, 0.0).unwrap(), 1.0);
    assert_static_equivalence(&graph, &platform);
}

/// Every re-plan policy yields a complete, validator-clean schedule on a
/// staggered trace (policies may trade makespan, never correctness).
#[test]
fn all_policies_produce_valid_schedules() {
    let graph = generated(11, 120);
    let platform = bounded(&graph, &Platform::new(2, 2, 0.0, 0.0).unwrap(), 1.2);
    let trace = ArrivalProcess::Bursty {
        batch: 10,
        rate: 0.5,
    }
    .generate(&graph, 9);
    for policy in [
        ReplanPolicy::EveryArrival,
        ReplanPolicy::EveryK(1),
        ReplanPolicy::EveryK(8),
        ReplanPolicy::Horizon(0.0),
        ReplanPolicy::Horizon(10.0),
    ] {
        for flavor in [OnlineFlavor::MemHeft, OnlineFlavor::MemMinMin] {
            let outcome =
                run_replay(&graph, &platform, &trace, OnlineConfig::new(flavor, policy)).unwrap();
            let report = validate(&graph, &platform, &outcome.schedule);
            assert!(
                report.is_valid(),
                "{flavor:?}/{policy:?}: {:?}",
                report.errors
            );
            assert_eq!(outcome.completions as usize, graph.n_tasks());
        }
    }
}

/// The registry's `online-*` keys go through the full replay machinery and
/// still match their static counterparts through the engine surface.
#[test]
fn registry_online_solvers_match_static_keys() {
    let registry = solver_registry();
    let graph = generated(3, 200);
    let platform = bounded(&graph, &Platform::new(2, 2, 0.0, 0.0).unwrap(), 1.0);
    let ctx = SolveCtx::sequential();
    for (online_key, static_key) in [
        ("online-memheft", "memheft"),
        ("online-memminmin", "memminmin"),
    ] {
        let online_outcome = registry
            .build(online_key)
            .unwrap()
            .solve(&graph, &platform, &ctx);
        let static_outcome = registry
            .build(static_key)
            .unwrap()
            .solve(&graph, &platform, &ctx);
        assert_eq!(
            online_outcome.schedule, static_outcome.schedule,
            "{online_key} diverged from {static_key}"
        );
    }
}
