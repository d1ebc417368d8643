//! The full solver registry, and the pieces the two exact searches share.
//!
//! Every exact backend implements [`mals_sched::Solver`] directly, next to
//! its search ([`BranchAndBound`] in `bb.rs`, [`MilpBackend`] in
//! `compact.rs`, [`LpExport`] in `backend.rs`). This module assembles
//! [`solver_registry`] — the registry the experiment binaries, the facade
//! and the JSON service surface resolve solver names against:
//!
//! | key | solver | status on success |
//! |---|---|---|
//! | every [`SolverRegistry::heuristics`] key | `memheft`, `minmin`, … | `Heuristic` |
//! | `bb` | [`BranchAndBound`] | `Optimal` / `Feasible` |
//! | `milp` | [`MilpBackend`] | `Optimal` / `Feasible` |
//! | `lp-export` | [`LpExport`] (solves nothing) | `LimitHit` |
//!
//! Every exact solver answers a cyclic graph like the heuristics do:
//! `Infeasible` with [`SolveOutcome::error`] naming the cycle.

use crate::backend::LpExport;
use crate::bb::BranchAndBound;
use crate::compact::MilpBackend;
use mals_dag::TaskGraph;
use mals_platform::Platform;
use mals_sched::{
    Engine, EngineConfig, MemHeft, MemMinMin, OptimalityStatus, SolveCtx, SolveOutcome, Solver,
    SolverInfo, SolverRegistry,
};
use mals_sim::Schedule;
use mals_util::CancelSignal;

/// The outcome every solver gives an invalid graph (e.g. a cycle):
/// `Infeasible`, with the cause in [`SolveOutcome::error`]. `None` for a
/// valid graph.
pub(crate) fn reject_invalid(graph: &TaskGraph) -> Option<SolveOutcome> {
    let error = graph.validate().err()?;
    Some(SolveOutcome::from_heuristic(Err(error.into())))
}

/// The best of the MemHEFT and MemMinMin schedules (when they succeed) and
/// its makespan (`+∞` without one): the incumbent both exact searches start
/// from. The heuristics poll `cancel` once per commit.
pub(crate) fn heuristic_incumbent(
    graph: &TaskGraph,
    platform: &Platform,
    cancel: CancelSignal<'_>,
) -> (Option<Schedule>, f64) {
    let seed_ctx = SolveCtx {
        cancel,
        ..SolveCtx::default()
    };
    let mut best_schedule = None;
    let mut best_makespan = f64::INFINITY;
    for heuristic in [&MemHeft::new() as &dyn Solver, &MemMinMin::new()] {
        if let Some(s) = heuristic.solve(graph, platform, &seed_ctx).schedule {
            if s.makespan() < best_makespan {
                best_makespan = s.makespan();
                best_schedule = Some(s);
            }
        }
    }
    (best_schedule, best_makespan)
}

/// The outcome of a search that stopped after `nodes` nodes with `best` as
/// its incumbent. `complete`: the search space was exhausted, so the
/// incumbent is optimal, or its absence proves infeasibility.
pub(crate) fn search_outcome(best: Option<Schedule>, complete: bool, nodes: u64) -> SolveOutcome {
    match (best, complete) {
        (Some(schedule), true) => {
            SolveOutcome::with_schedule(schedule, OptimalityStatus::Optimal, nodes)
        }
        (Some(schedule), false) => {
            SolveOutcome::with_schedule(schedule, OptimalityStatus::Feasible, nodes)
        }
        (None, true) => SolveOutcome::without_schedule(OptimalityStatus::Infeasible, nodes),
        (None, false) => SolveOutcome::without_schedule(OptimalityStatus::LimitHit, nodes),
    }
}

/// The full solver registry: every heuristic and ablation variant of
/// `mals_sched` plus the exact backends of this crate.
pub fn solver_registry() -> SolverRegistry {
    let mut registry = SolverRegistry::heuristics();
    registry.register(
        SolverInfo {
            key: "bb",
            summary: "Optimal(B&B) — branch-and-bound over the list-scheduling space",
            memory_aware: true,
            exact: true,
        },
        |_| Box::new(BranchAndBound),
    );
    registry.register(
        SolverInfo {
            key: "milp",
            summary: "Optimal(MILP) — in-tree simplex + MILP B&B over the compact model",
            memory_aware: true,
            exact: true,
        },
        |_| Box::new(MilpBackend),
    );
    registry.register(
        SolverInfo {
            key: "lp-export",
            summary: "ILP(LP-export) — emits the paper's §4 ILP in CPLEX LP text (does not solve)",
            memory_aware: true,
            exact: false,
        },
        |_| Box::new(LpExport),
    );
    registry
}

/// An [`Engine`] over the full registry — the one-line entry point for
/// library users: `mals_exact::engine(EngineConfig::default())`.
pub fn engine(config: EngineConfig) -> Engine {
    Engine::new(solver_registry(), config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mals_gen::dex;
    use mals_sched::SolveLimits;
    use mals_sim::validate;

    #[test]
    fn registry_contains_heuristics_and_exact_backends() {
        let registry = solver_registry();
        assert_eq!(registry.len(), 14);
        for key in ["memheft", "heft", "bb", "milp", "lp-export"] {
            assert!(registry.entry(key).is_some(), "missing {key}");
        }
        assert!(registry.entry("bb").unwrap().info.exact);
        assert!(registry.entry("milp").unwrap().info.exact);
        assert!(!registry.entry("lp-export").unwrap().info.exact);
    }

    #[test]
    fn exact_solvers_prove_optimality_on_dex() {
        let registry = solver_registry();
        let (g, _) = dex();
        let platform = Platform::single_pair(5.0, 5.0);
        let ctx = SolveCtx::sequential();
        for key in ["bb", "milp"] {
            let solver = registry.build(key).unwrap();
            let outcome = solver.solve(&g, &platform, &ctx);
            assert_eq!(outcome.status, OptimalityStatus::Optimal, "{key}");
            assert_eq!(outcome.makespan(), Some(6.0), "{key}");
            assert!(outcome.nodes > 0, "{key}");
            let schedule = outcome.schedule.as_ref().unwrap();
            assert!(validate(&g, &platform, schedule).is_valid(), "{key}");
        }
    }

    #[test]
    fn exact_solvers_prove_infeasibility_on_tight_dex() {
        let registry = solver_registry();
        let (g, _) = dex();
        let platform = Platform::single_pair(2.0, 2.0);
        let ctx = SolveCtx::sequential();
        for key in ["bb", "milp"] {
            let outcome = registry.build(key).unwrap().solve(&g, &platform, &ctx);
            assert_eq!(outcome.status, OptimalityStatus::Infeasible, "{key}");
            assert!(outcome.schedule.is_none(), "{key}");
        }
    }

    #[test]
    fn lp_export_solver_reports_limit_hit() {
        let registry = solver_registry();
        let (g, _) = dex();
        let outcome = registry.build("lp-export").unwrap().solve(
            &g,
            &Platform::single_pair(5.0, 5.0),
            &SolveCtx::sequential(),
        );
        assert_eq!(outcome.status, OptimalityStatus::LimitHit);
        assert!(outcome.schedule.is_none());
        assert_eq!(outcome.nodes, 0);
    }

    #[test]
    fn engine_solves_by_exact_name_and_respects_limits() {
        let engine =
            engine(EngineConfig::sequential().with_limits(SolveLimits::with_node_limit(200_000)));
        let (g, _) = dex();
        let outcome = engine
            .solve("bb", &g, &Platform::single_pair(5.0, 5.0))
            .unwrap();
        assert!(outcome.is_optimal());
        // A 1-node budget cannot close the proof.
        let starved = Engine::new(
            solver_registry(),
            EngineConfig::sequential().with_limits(SolveLimits::with_node_limit(1)),
        );
        let outcome = starved
            .solve("bb", &g, &Platform::single_pair(5.0, 5.0))
            .unwrap();
        assert!(!outcome.is_optimal());
    }

    #[test]
    fn display_names_match_backend_names() {
        let registry = solver_registry();
        assert_eq!(registry.build("bb").unwrap().name(), "Optimal(B&B)");
        assert_eq!(registry.build("milp").unwrap().name(), "Optimal(MILP)");
        assert_eq!(
            registry.build("lp-export").unwrap().name(),
            "ILP(LP-export)"
        );
    }
}
