//! Minimum feasible memory search.
//!
//! The figures of the paper read, for every scheduler, the smallest memory
//! bound at which it still produces a schedule (the left end of its curve):
//! "MemMinMin fails to schedule the LU factorisation when each memory does
//! not have enough space to store 155 tiles", "MemHEFT can still provide a
//! feasible schedule with half available memory", and so on. This module
//! computes that quantity directly by bisection on the (symmetric) memory
//! bound, so the EXPERIMENTS write-up can report exact break-even points
//! instead of reading them off a sweep grid. It operates on the unified
//! [`Solver`] interface, so heuristics and exact backends bisect through
//! the same code path.

use mals_dag::TaskGraph;
use mals_platform::Platform;
use mals_sched::{SolveCtx, Solver};

/// Result of a minimum-memory search for one solver.
#[derive(Debug, Clone, PartialEq)]
pub struct MinMemory {
    /// Solver display name.
    pub name: String,
    /// Smallest symmetric memory bound (within `tolerance`) at which the
    /// solver produced a schedule, or `None` if it failed even at the
    /// upper end of the search interval.
    pub min_memory: Option<f64>,
    /// Makespan obtained at that bound.
    pub makespan_at_min: Option<f64>,
}

/// Checks whether `solver` succeeds on `graph` with the given symmetric
/// memory bound.
fn succeeds(
    graph: &TaskGraph,
    platform: &Platform,
    solver: &dyn Solver,
    ctx: &SolveCtx,
    bound: f64,
) -> Option<f64> {
    let bounded = platform.with_memory_bounds(bound, bound);
    crate::sweep::checked(solver, &solver.solve(graph, &bounded, ctx))
}

/// Finds, by bisection, the smallest symmetric memory bound in
/// `[0, upper_bound]` at which `solver` produces a schedule.
///
/// The search assumes success is monotone in the bound, which holds for the
/// memory-aware heuristics on all workloads we generate (more memory never
/// hurts feasibility); `tolerance` controls the absolute precision of the
/// returned bound.
pub fn minimum_memory(
    graph: &TaskGraph,
    platform: &Platform,
    solver: &dyn Solver,
    ctx: &SolveCtx,
    upper_bound: f64,
    tolerance: f64,
) -> MinMemory {
    let tolerance = tolerance.max(1e-6);
    let name = solver.name().to_string();
    // The solver must succeed at the upper end for the search to make sense.
    let Some(makespan_at_upper) = succeeds(graph, platform, solver, ctx, upper_bound) else {
        return MinMemory {
            name,
            min_memory: None,
            makespan_at_min: None,
        };
    };
    let mut lo = 0.0f64; // known infeasible (or untested but minimal)
    let mut hi = upper_bound; // known feasible
    let mut best_makespan = makespan_at_upper;
    // If even a zero bound works (no files), report it directly.
    if let Some(makespan) = succeeds(graph, platform, solver, ctx, 0.0) {
        return MinMemory {
            name,
            min_memory: Some(0.0),
            makespan_at_min: Some(makespan),
        };
    }
    while hi - lo > tolerance {
        let mid = 0.5 * (lo + hi);
        match succeeds(graph, platform, solver, ctx, mid) {
            Some(makespan) => {
                hi = mid;
                best_makespan = makespan;
            }
            None => lo = mid,
        }
    }
    MinMemory {
        name,
        min_memory: Some(hi),
        makespan_at_min: Some(best_makespan),
    }
}

/// Runs [`minimum_memory`] for several solvers with a shared upper bound.
pub fn minimum_memory_table(
    graph: &TaskGraph,
    platform: &Platform,
    solvers: &[&dyn Solver],
    ctx: &SolveCtx,
    upper_bound: f64,
    tolerance: f64,
) -> Vec<MinMemory> {
    solvers
        .iter()
        .map(|s| minimum_memory(graph, platform, *s, ctx, upper_bound, tolerance))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mals_gen::{dex, fork_join, ShapeWeights};
    use mals_sched::{MemHeft, MemMinMin};

    #[test]
    fn dex_minimum_memory_is_between_3_and_5() {
        // T1's outputs need 3 units, and the exact optimum exists at 4, so
        // the heuristics' break-even point lies in [3, 5].
        let (graph, _) = dex();
        let platform = Platform::single_pair(0.0, 0.0);
        let ctx = SolveCtx::sequential();
        for solver in [&MemHeft::new() as &dyn Solver, &MemMinMin::new()] {
            let result = minimum_memory(&graph, &platform, solver, &ctx, 20.0, 0.01);
            let min = result.min_memory.expect("feasible with 20 units");
            assert!(min >= 3.0 - 1e-6, "{}: {min}", result.name);
            assert!(min <= 5.0 + 0.02, "{}: {min}", result.name);
            assert!(result.makespan_at_min.unwrap() >= 6.0 - 1e-9);
        }
    }

    #[test]
    fn exact_solver_bisects_through_the_same_path() {
        // The optimal break-even point of D_ex is 4 (the paper's s2 exists
        // at bound 4 but nothing exists at 3); the B&B solver must find it
        // through the identical bisection code path as the heuristics.
        let (graph, _) = dex();
        let platform = Platform::single_pair(0.0, 0.0);
        let ctx = SolveCtx::sequential();
        let bb = mals_exact::solver_registry().build("bb").unwrap();
        let result = minimum_memory(&graph, &platform, &*bb, &ctx, 20.0, 0.01);
        assert_eq!(result.name, "Optimal(B&B)");
        let min = result.min_memory.unwrap();
        assert!((min - 4.0).abs() <= 0.02, "optimal break-even {min} != 4");
    }

    #[test]
    fn infeasible_upper_bound_reported() {
        let (graph, _) = dex();
        let platform = Platform::single_pair(0.0, 0.0);
        let ctx = SolveCtx::sequential();
        let result = minimum_memory(&graph, &platform, &MemHeft::new(), &ctx, 2.0, 0.01);
        assert_eq!(result.min_memory, None);
        assert_eq!(result.makespan_at_min, None);
    }

    #[test]
    fn graph_without_files_needs_no_memory() {
        let mut graph = mals_dag::TaskGraph::new();
        let a = graph.add_task("a", 1.0, 1.0);
        let b = graph.add_task("b", 1.0, 1.0);
        graph.add_edge(a, b, 0.0, 0.0).unwrap();
        let platform = Platform::single_pair(0.0, 0.0);
        let ctx = SolveCtx::sequential();
        let result = minimum_memory(&graph, &platform, &MemMinMin::new(), &ctx, 10.0, 0.01);
        assert_eq!(result.min_memory, Some(0.0));
    }

    #[test]
    fn fork_join_minimum_tracks_fanout() {
        // The fork task's outputs (width files) must fit simultaneously, so
        // the minimum memory grows with the width.
        let platform = Platform::single_pair(0.0, 0.0);
        let ctx = SolveCtx::sequential();
        let narrow = fork_join(2, &ShapeWeights::default());
        let wide = fork_join(8, &ShapeWeights::default());
        let narrow_min = minimum_memory(&narrow, &platform, &MemHeft::new(), &ctx, 64.0, 0.01)
            .min_memory
            .unwrap();
        let wide_min = minimum_memory(&wide, &platform, &MemHeft::new(), &ctx, 64.0, 0.01)
            .min_memory
            .unwrap();
        assert!(wide_min > narrow_min);
        assert!(wide_min >= 8.0 - 0.02);
    }

    #[test]
    fn table_covers_all_solvers() {
        let (graph, _) = dex();
        let platform = Platform::single_pair(0.0, 0.0);
        let ctx = SolveCtx::sequential();
        let memheft = MemHeft::new();
        let memminmin = MemMinMin::new();
        let table =
            minimum_memory_table(&graph, &platform, &[&memheft, &memminmin], &ctx, 20.0, 0.05);
        assert_eq!(table.len(), 2);
        assert_eq!(table[0].name, "MemHEFT");
        assert_eq!(table[1].name, "MemMinMin");
    }
}
