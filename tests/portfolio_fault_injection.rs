//! Fault injection for the portfolio racer: members that panic, report
//! infeasibility, or return broken outcomes must be contained — the panic is
//! caught and surfaced in the member's error slot, the race continues, and
//! the best healthy member still wins. A registry of stub solvers keeps the
//! faults deterministic.

use mals::prelude::*;
use mals::sched::SolverInfo;
use mals::util::{ParallelConfig, WorkerPool};

/// A member that always panics mid-solve.
struct Panicker;

impl Solver for Panicker {
    fn name(&self) -> &str {
        "Panicker"
    }

    fn solve(&self, _: &TaskGraph, _: &Platform, _: &SolveCtx) -> SolveOutcome {
        panic!("injected fault");
    }
}

/// A member that always claims infeasibility.
struct AlwaysInfeasible;

impl Solver for AlwaysInfeasible {
    fn name(&self) -> &str {
        "AlwaysInfeasible"
    }

    fn solve(&self, _: &TaskGraph, _: &Platform, _: &SolveCtx) -> SolveOutcome {
        SolveOutcome::without_schedule(OptimalityStatus::Infeasible, 0)
    }
}

/// A member that returns a memory-violating schedule: it "solves" on the
/// unbounded platform and claims the result for the bounded one. The racer
/// must exclude it via independent validation, not trust its status.
struct BoundsCheater;

impl Solver for BoundsCheater {
    fn name(&self) -> &str {
        "BoundsCheater"
    }

    fn solve(&self, graph: &TaskGraph, platform: &Platform, ctx: &SolveCtx) -> SolveOutcome {
        MemHeft::new().solve(graph, &platform.unbounded(), ctx)
    }
}

/// The test-only registry: the faulty stubs next to one healthy solver.
fn faulty_registry() -> SolverRegistry {
    let mut registry = SolverRegistry::empty();
    let stub = |key: &'static str| SolverInfo {
        key,
        summary: "fault-injection stub",
        memory_aware: true,
        exact: false,
    };
    registry.register(stub("panic"), |_| Box::new(Panicker));
    registry.register(stub("infeasible"), |_| Box::new(AlwaysInfeasible));
    registry.register(stub("cheater"), |_| Box::new(BoundsCheater));
    registry.register(stub("memheft"), |_| Box::new(MemHeft::new()));
    registry
}

fn instance() -> (TaskGraph, Platform) {
    let (graph, _) = dex();
    (graph, Platform::single_pair(6.0, 6.0))
}

#[test]
fn panicking_member_is_contained_and_surfaced() {
    let (graph, platform) = instance();
    let portfolio = Portfolio::from_registry(&faulty_registry(), &["panic", "memheft"], 0).unwrap();
    let report = portfolio.solve_race(&graph, &platform, &SolveCtx::sequential());
    // The panic is contained: we got a report, the healthy member won.
    assert_eq!(report.winner_key(), Some("memheft"));
    assert_eq!(report.outcome.status, OptimalityStatus::Heuristic);
    let schedule = report.outcome.schedule.as_ref().unwrap();
    assert!(validate(&graph, &platform, schedule).is_valid());
    // ...and surfaced in the member's error slot.
    let errors = report.errors();
    assert_eq!(errors.len(), 1);
    assert_eq!(errors[0].0, "panic");
    assert!(errors[0].1.contains("injected fault"), "{}", errors[0].1);
    let faulty = &report.members[0];
    assert_eq!(faulty.status, OptimalityStatus::LimitHit);
    assert_eq!(faulty.makespan, None);
}

#[test]
fn panics_are_contained_on_worker_pool_threads_too() {
    let (graph, platform) = instance();
    let portfolio = Portfolio::from_registry(
        &faulty_registry(),
        &["panic", "panic", "memheft", "panic"],
        0,
    );
    // Duplicate member keys are allowed in a race (unlike registry keys).
    let portfolio = portfolio.unwrap();
    let pool = WorkerPool::new(ParallelConfig::with_threads(4));
    let ctx = SolveCtx::pooled(SolveLimits::default(), &pool);
    let report = portfolio.solve_race(&graph, &platform, &ctx);
    assert_eq!(report.winner_key(), Some("memheft"));
    assert_eq!(report.errors().len(), 3);
    assert!(report.outcome.schedule.is_some());
}

#[test]
fn infeasible_reporting_member_does_not_poison_the_race() {
    let (graph, platform) = instance();
    let portfolio =
        Portfolio::from_registry(&faulty_registry(), &["infeasible", "memheft"], 0).unwrap();
    let report = portfolio.solve_race(&graph, &platform, &SolveCtx::sequential());
    assert_eq!(report.winner_key(), Some("memheft"));
    assert_eq!(report.outcome.status, OptimalityStatus::Heuristic);
    assert_eq!(report.members[0].status, OptimalityStatus::Infeasible);
    // A lone infeasibility claim is not an error, just a losing answer.
    assert!(report.errors().is_empty());
}

#[test]
fn bounds_cheating_member_is_excluded_by_independent_validation() {
    // Tight-but-feasible bounds: the cheater's unbounded schedule finishes
    // first on paper but violates the platform, so it must not be crowned.
    let (graph, _) = dex();
    let platform = Platform::single_pair(5.0, 5.0);
    let portfolio =
        Portfolio::from_registry(&faulty_registry(), &["cheater", "memheft"], 0).unwrap();
    let report = portfolio.solve_race(&graph, &platform, &SolveCtx::sequential());
    let schedule = report.outcome.schedule.as_ref().expect("memheft succeeds");
    assert!(validate(&graph, &platform, schedule).is_valid());
    let cheater = &report.members[0];
    if cheater.error.is_some() {
        // The cheat was caught: excluded from the race with a named reason.
        assert_eq!(report.winner_key(), Some("memheft"));
        assert!(cheater.error.as_deref().unwrap().contains("memory bounds"));
    } else {
        // On this instance the unbounded schedule happened to fit; then it
        // is a legitimate member and may win.
        assert!(report.winner.is_some());
    }
}

#[test]
fn all_members_faulty_yields_limit_hit_not_a_panic() {
    let (graph, platform) = instance();
    let portfolio =
        Portfolio::from_registry(&faulty_registry(), &["panic", "infeasible"], 0).unwrap();
    let report = portfolio.solve_race(&graph, &platform, &SolveCtx::sequential());
    assert_eq!(report.winner, None);
    // A contained panic proves nothing, so the aggregate cannot claim
    // `Infeasible` — it is a limit/failure outcome.
    assert_eq!(report.outcome.status, OptimalityStatus::LimitHit);
    assert!(report.outcome.schedule.is_none());
}

#[test]
fn all_members_infeasible_yields_infeasible() {
    let (graph, platform) = instance();
    let portfolio =
        Portfolio::from_registry(&faulty_registry(), &["infeasible", "infeasible"], 0).unwrap();
    let report = portfolio.solve_race(&graph, &platform, &SolveCtx::sequential());
    assert_eq!(report.winner, None);
    assert_eq!(report.outcome.status, OptimalityStatus::Infeasible);
}

/// The daemon's single solver thread must survive a panicking solve: the
/// request gets an `internal` coded error and the next request is served.
#[test]
fn daemon_contains_a_panicking_solve_and_keeps_serving() {
    use mals::experiments::daemon::{Daemon, DaemonConfig};
    use mals::util::{write_frame, FrameReader};
    use std::net::TcpStream;

    let engine = Engine::new(faulty_registry(), EngineConfig::sequential());
    let handle = Daemon::start_with(DaemonConfig::default(), Service::with_engine(engine))
        .expect("daemon start");
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut write_half = stream.try_clone().expect("clone");
    let mut reader = FrameReader::new(stream);
    let (graph, platform) = instance();
    let mut ask = |id: u64, solver: &str| {
        let mut json = SolveRequest::new(graph.clone(), platform.clone(), solver).to_json();
        let Json::Obj(pairs) = &mut json else {
            unreachable!("requests serialise to objects")
        };
        pairs.insert(0, ("id".to_string(), Json::Num(id as f64)));
        write_frame(&mut write_half, &json.to_compact()).unwrap();
        let frame = reader.read_frame().unwrap().expect("one reply per request");
        Json::parse(&frame).unwrap()
    };

    let reply = ask(1, "panic");
    assert_eq!(reply.get("id").and_then(Json::as_u64), Some(1));
    let errors = reply
        .get("errors")
        .and_then(Json::as_arr)
        .expect("coded errors");
    assert_eq!(
        errors[0].get("code").and_then(Json::as_str),
        Some("internal")
    );
    let message = errors[0].get("message").and_then(Json::as_str).unwrap();
    assert!(message.contains("injected fault"), "{message}");

    let reply = ask(2, "memheft");
    assert_eq!(reply.get("id").and_then(Json::as_u64), Some(2));
    assert_eq!(reply.get("valid").and_then(Json::as_bool), Some(true));
    handle.shutdown();
    handle.join();
}
