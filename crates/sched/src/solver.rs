//! The unified solver interface.
//!
//! Every solver — heuristic or exact — implements [`Solver`]: a solve takes
//! a task graph, a platform and a [`SolveCtx`] (budgets, a thread budget and
//! a cancel signal) and returns a [`SolveOutcome`] — the
//! schedule, if any, together with an [`OptimalityStatus`] saying *what was
//! proven about it*.
//!
//! * heuristics return [`OptimalityStatus::Heuristic`] schedules;
//! * exact solvers return `Optimal`, `Feasible` (incumbent without a proof),
//!   `Infeasible` or `LimitHit`;
//! * the LP exporter "solves" nothing and reports `LimitHit`.
//!
//! [`Solver::solve_sweep`] solves one graph on many platforms — the memory
//! grids of the experiments — and owes exactly the outcomes of one
//! [`Solver::solve`] per platform. It collects [`Solver::solve_sweep_with`],
//! which streams each outcome as soon as it is final and whose default is
//! that loop. MemHEFT, MemMinMin and the ablation variants override it with
//! one pass over the grid that shares every step no bound constrains
//! (`crate::list`), and [`Unbounded`] solves once per processor shape,
//! since the bounds do not change its schedule.
//!
//! Solvers are instantiated by name through the
//! [`SolverRegistry`](crate::SolverRegistry) and driven by an
//! [`Engine`](crate::Engine) session that holds the thread budget and the
//! default limits, so callers select algorithms with strings instead of
//! concrete types.

use crate::ablation::MemHeftVariant;
use crate::error::ScheduleError;
use crate::list::{self, ListHeuristic};
use crate::memheft::MemHeft;
use crate::memminmin::MemMinMin;
use crate::traits::Scheduler;
use crate::unbounded::Unbounded;
use mals_dag::TaskGraph;
use mals_platform::Platform;
use mals_sim::Schedule;
use mals_util::{CancelSignal, CancelToken, Deadline};

/// Budgets shared by every solver (the heuristics ignore them).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveLimits {
    /// Maximum number of search-tree nodes (combinatorial nodes for the
    /// branch-and-bound backend, LP solves for the MILP backend). The MILP
    /// backend's lazy-repair searches draw from a *second* budget of the
    /// same size, so its reported node total is bounded by `2 ×
    /// node_limit`.
    pub node_limit: u64,
    /// Simplex iteration budget per LP solve (MILP backend only).
    pub lp_iteration_limit: u64,
}

impl Default for SolveLimits {
    fn default() -> Self {
        SolveLimits {
            node_limit: 500_000,
            lp_iteration_limit: 20_000,
        }
    }
}

impl SolveLimits {
    /// Limits with the given node budget and the default LP budget.
    pub fn with_node_limit(node_limit: u64) -> Self {
        SolveLimits {
            node_limit,
            ..SolveLimits::default()
        }
    }
}

/// Per-solve context handed to every [`Solver`]: the budgets, the thread
/// budget and the cooperative cancellation signal, set by the caller
/// (typically an [`Engine`](crate::Engine)).
#[derive(Debug, Clone, Copy)]
pub struct SolveCtx<'a> {
    /// Budgets for exact solvers.
    pub limits: SolveLimits,
    /// Threads a solver may spread whole sub-solves over, the calling
    /// thread included (`1`: sequential; `0`: all cores). Only the
    /// [`Portfolio`](crate::Portfolio) uses it, racing its members on
    /// scoped threads; every single heuristic or exact solve is sequential
    /// and ignores it.
    pub threads: usize,
    /// Cooperative cancellation: solvers poll this once per committed task
    /// (heuristics) or explored node (exact backends) and return
    /// [`OptimalityStatus::LimitHit`] — with the incumbent-so-far, if any —
    /// once it trips. Default: never cancelled.
    pub cancel: CancelSignal<'a>,
}

impl Default for SolveCtx<'_> {
    /// A sequential context: default limits, 1 thread, never cancelled.
    fn default() -> Self {
        SolveCtx {
            limits: SolveLimits::default(),
            threads: 1,
            cancel: CancelSignal::default(),
        }
    }
}

impl<'a> SolveCtx<'a> {
    /// A sequential context with default limits.
    pub fn sequential() -> SolveCtx<'static> {
        SolveCtx::default()
    }

    /// A sequential context with the given limits.
    pub fn with_limits(limits: SolveLimits) -> SolveCtx<'static> {
        SolveCtx {
            limits,
            ..SolveCtx::default()
        }
    }

    /// Returns a copy observing `token` (replacing any previous token).
    pub fn with_cancel_token(mut self, token: &'a CancelToken) -> SolveCtx<'a> {
        self.cancel.token = Some(token);
        self
    }

    /// Returns a copy observing `deadline` (replacing any previous one).
    pub fn with_deadline(mut self, deadline: Deadline) -> SolveCtx<'a> {
        self.cancel.deadline = Some(deadline);
        self
    }

    /// True once the solve should wind down (token tripped or deadline
    /// passed). Solvers poll this at their per-commit / per-node check
    /// points.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }
}

/// What a [`SolveOutcome`] proves about its schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimalityStatus {
    /// The schedule is provably optimal (within the solver's decision
    /// space).
    Optimal,
    /// The schedule was produced by a polynomial heuristic; no optimality
    /// claim is made.
    Heuristic,
    /// The schedule is feasible but a budget ran out before the optimality
    /// proof closed.
    Feasible,
    /// No schedule exists within the memory bounds (within the solver's
    /// decision space) — or the instance was rejected outright (see
    /// [`SolveOutcome::error`]).
    Infeasible,
    /// A budget ran out before any schedule was found; nothing is proven.
    LimitHit,
}

impl OptimalityStatus {
    /// Stable lower-case identifier (used in the JSON service surface).
    pub fn as_str(self) -> &'static str {
        match self {
            OptimalityStatus::Optimal => "optimal",
            OptimalityStatus::Heuristic => "heuristic",
            OptimalityStatus::Feasible => "feasible",
            OptimalityStatus::Infeasible => "infeasible",
            OptimalityStatus::LimitHit => "limit_hit",
        }
    }

    /// Parses [`OptimalityStatus::as_str`] output.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "optimal" => OptimalityStatus::Optimal,
            "heuristic" => OptimalityStatus::Heuristic,
            "feasible" => OptimalityStatus::Feasible,
            "infeasible" => OptimalityStatus::Infeasible,
            "limit_hit" => OptimalityStatus::LimitHit,
            _ => return None,
        })
    }

    /// `true` for the statuses that must carry a schedule.
    pub fn carries_schedule(self) -> bool {
        matches!(
            self,
            OptimalityStatus::Optimal | OptimalityStatus::Heuristic | OptimalityStatus::Feasible
        )
    }
}

impl std::fmt::Display for OptimalityStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The result of one [`Solver::solve`] call.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The schedule, present exactly when
    /// [`status.carries_schedule()`](OptimalityStatus::carries_schedule).
    pub schedule: Option<Schedule>,
    /// What is proven about the schedule (or its absence).
    pub status: OptimalityStatus,
    /// Search effort (nodes expanded / LPs solved); 0 for heuristics.
    pub nodes: u64,
    /// Why the instance was rejected, when it never reached the solver
    /// proper (e.g. a cyclic graph). `None` for ordinary outcomes.
    pub error: Option<String>,
}

impl SolveOutcome {
    /// An outcome carrying `schedule` with the given status.
    pub fn with_schedule(schedule: Schedule, status: OptimalityStatus, nodes: u64) -> Self {
        debug_assert!(status.carries_schedule());
        SolveOutcome {
            schedule: Some(schedule),
            status,
            nodes,
            error: None,
        }
    }

    /// A schedule-less outcome with the given status.
    pub fn without_schedule(status: OptimalityStatus, nodes: u64) -> Self {
        debug_assert!(!status.carries_schedule());
        SolveOutcome {
            schedule: None,
            status,
            nodes,
            error: None,
        }
    }

    /// Maps a [`Scheduler`] result to a heuristic outcome:
    /// success → [`OptimalityStatus::Heuristic`], infeasibility →
    /// [`OptimalityStatus::Infeasible`], cancellation →
    /// [`OptimalityStatus::LimitHit`] (a heuristic has no incumbent to
    /// salvage: a prefix of a schedule is not a schedule), and any other
    /// scheduling error → `Infeasible` with [`SolveOutcome::error`]
    /// recording the cause.
    pub fn from_heuristic(result: Result<Schedule, ScheduleError>) -> Self {
        match result {
            Ok(schedule) => SolveOutcome::with_schedule(schedule, OptimalityStatus::Heuristic, 0),
            Err(ScheduleError::Infeasible { .. }) => {
                SolveOutcome::without_schedule(OptimalityStatus::Infeasible, 0)
            }
            Err(ScheduleError::Cancelled { .. }) => {
                SolveOutcome::without_schedule(OptimalityStatus::LimitHit, 0)
            }
            Err(e) => SolveOutcome {
                schedule: None,
                status: OptimalityStatus::Infeasible,
                nodes: 0,
                error: Some(e.to_string()),
            },
        }
    }

    /// The makespan of the carried schedule, if any.
    pub fn makespan(&self) -> Option<f64> {
        self.schedule.as_ref().map(|s| s.makespan())
    }

    /// `true` for [`OptimalityStatus::Optimal`].
    pub fn is_optimal(&self) -> bool {
        self.status == OptimalityStatus::Optimal
    }

    /// `true` when the outcome settles the instance: an optimal schedule
    /// or a proof of infeasibility.
    pub fn is_proven(&self) -> bool {
        matches!(
            self.status,
            OptimalityStatus::Optimal | OptimalityStatus::Infeasible
        )
    }
}

/// A solving algorithm — heuristic or exact — behind one interface.
///
/// `Sync` is required so a solver instance can be shared across the worker
/// threads of a campaign; every solver in the workspace is a small value
/// type, so this costs nothing.
pub trait Solver: Sync {
    /// The display name used as the series label in experiment outputs
    /// (e.g. `"MemHEFT"`, `"Optimal(MILP)"`). Registry *keys* (`"memheft"`,
    /// `"milp"`) are separate; see [`crate::SolverRegistry`].
    fn name(&self) -> &str;

    /// Solves `graph` on `platform` under `ctx`.
    ///
    /// Implementations must return schedules that pass `mals_sim::validate`
    /// (checked by the registry conformance suite) and must not claim a
    /// status stronger than what they proved.
    fn solve(&self, graph: &TaskGraph, platform: &Platform, ctx: &SolveCtx) -> SolveOutcome;

    /// Solves `graph` on every platform of `platforms` under `ctx`: entry
    /// `i` is bit for bit [`Solver::solve`] on `platforms[i]`. Collects
    /// [`Solver::solve_sweep_with`].
    fn solve_sweep(
        &self,
        graph: &TaskGraph,
        platforms: &[Platform],
        ctx: &SolveCtx,
    ) -> Vec<SolveOutcome> {
        let mut outcomes = vec![None; platforms.len()];
        self.solve_sweep_with(graph, platforms, ctx, &mut |i, outcome| {
            outcomes[i] = Some(outcome.clone());
        });
        outcomes
            .into_iter()
            .map(|outcome| outcome.expect("a sweep answers every platform"))
            .collect()
    }

    /// [`Solver::solve_sweep`] streamed: hands `sink` each platform's index
    /// and outcome once, as soon as it is final, so a caller that keeps
    /// only a summary (a makespan) never holds the whole grid's schedules,
    /// and an outcome shared by several platforms is lent, not copied.
    /// The default solves the platforms one by one, in order. The list
    /// heuristics solve the grid in one pass that shares every step no
    /// bound constrains (`crate::list`), and the memory-oblivious baselines
    /// solve once per processor shape, since their schedule ignores the
    /// bounds.
    fn solve_sweep_with(
        &self,
        graph: &TaskGraph,
        platforms: &[Platform],
        ctx: &SolveCtx,
        sink: &mut dyn FnMut(usize, &SolveOutcome),
    ) {
        for (i, platform) in platforms.iter().enumerate() {
            sink(i, &self.solve(graph, platform, ctx));
        }
    }
}

impl<S: Solver + ?Sized> Solver for &S {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn solve(&self, graph: &TaskGraph, platform: &Platform, ctx: &SolveCtx) -> SolveOutcome {
        (**self).solve(graph, platform, ctx)
    }

    fn solve_sweep_with(
        &self,
        graph: &TaskGraph,
        platforms: &[Platform],
        ctx: &SolveCtx,
        sink: &mut dyn FnMut(usize, &SolveOutcome),
    ) {
        (**self).solve_sweep_with(graph, platforms, ctx, sink)
    }
}

impl<S: Solver + ?Sized> Solver for Box<S> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn solve(&self, graph: &TaskGraph, platform: &Platform, ctx: &SolveCtx) -> SolveOutcome {
        (**self).solve(graph, platform, ctx)
    }

    fn solve_sweep_with(
        &self,
        graph: &TaskGraph,
        platforms: &[Platform],
        ctx: &SolveCtx,
        sink: &mut dyn FnMut(usize, &SolveOutcome),
    ) {
        (**self).solve_sweep_with(graph, platforms, ctx, sink)
    }
}

/// A list heuristic's [`Solver::solve_sweep_with`], polling `ctx.cancel`
/// once per committed task.
fn list_sweep<H: ListHeuristic>(
    heuristic: &H,
    graph: &TaskGraph,
    platforms: &[Platform],
    ctx: &SolveCtx,
    sink: &mut dyn FnMut(usize, &SolveOutcome),
) {
    list::sweep(
        heuristic,
        graph,
        platforms,
        ctx.cancel,
        &mut |indices, result| {
            let outcome = SolveOutcome::from_heuristic(result);
            for &i in indices {
                sink(i, &outcome);
            }
        },
    );
}

impl Solver for MemHeft {
    fn name(&self) -> &str {
        "MemHEFT"
    }

    fn solve(&self, graph: &TaskGraph, platform: &Platform, ctx: &SolveCtx) -> SolveOutcome {
        SolveOutcome::from_heuristic(list::sweep_one(self, graph, platform, ctx.cancel))
    }

    fn solve_sweep_with(
        &self,
        graph: &TaskGraph,
        platforms: &[Platform],
        ctx: &SolveCtx,
        sink: &mut dyn FnMut(usize, &SolveOutcome),
    ) {
        list_sweep(self, graph, platforms, ctx, sink);
    }
}

impl Solver for MemMinMin {
    fn name(&self) -> &str {
        "MemMinMin"
    }

    fn solve(&self, graph: &TaskGraph, platform: &Platform, ctx: &SolveCtx) -> SolveOutcome {
        SolveOutcome::from_heuristic(list::sweep_one(self, graph, platform, ctx.cancel))
    }

    fn solve_sweep_with(
        &self,
        graph: &TaskGraph,
        platforms: &[Platform],
        ctx: &SolveCtx,
        sink: &mut dyn FnMut(usize, &SolveOutcome),
    ) {
        list_sweep(self, graph, platforms, ctx, sink);
    }
}

impl Solver for MemHeftVariant {
    fn name(&self) -> &str {
        Scheduler::name(self)
    }

    fn solve(&self, graph: &TaskGraph, platform: &Platform, ctx: &SolveCtx) -> SolveOutcome {
        SolveOutcome::from_heuristic(list::sweep_one(self, graph, platform, ctx.cancel))
    }

    fn solve_sweep_with(
        &self,
        graph: &TaskGraph,
        platforms: &[Platform],
        ctx: &SolveCtx,
        sink: &mut dyn FnMut(usize, &SolveOutcome),
    ) {
        list_sweep(self, graph, platforms, ctx, sink);
    }
}

impl<S: Solver + Sync> Solver for Unbounded<S> {
    fn name(&self) -> &str {
        self.display_name()
    }

    /// Solves on the unbounded copy of the platform (the memory-oblivious
    /// baselines ignore the bounds by construction).
    fn solve(&self, graph: &TaskGraph, platform: &Platform, ctx: &SolveCtx) -> SolveOutcome {
        self.inner().solve(graph, &platform.unbounded(), ctx)
    }

    /// One solve per distinct unbounded platform (the bounds are ignored,
    /// only the processors matter), lent to every entry that shares it.
    fn solve_sweep_with(
        &self,
        graph: &TaskGraph,
        platforms: &[Platform],
        ctx: &SolveCtx,
        sink: &mut dyn FnMut(usize, &SolveOutcome),
    ) {
        let mut solved: Vec<(Platform, SolveOutcome)> = Vec::new();
        for (i, platform) in platforms.iter().enumerate() {
            let unbounded = platform.unbounded();
            let at = match solved.iter().position(|(p, _)| *p == unbounded) {
                Some(at) => at,
                None => {
                    let outcome = self.inner().solve(graph, &unbounded, ctx);
                    solved.push((unbounded, outcome));
                    solved.len() - 1
                }
            };
            sink(i, &solved[at].1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Heft, MinMin};
    use mals_gen::dex;
    use mals_sim::validate;

    #[test]
    fn status_string_roundtrip() {
        for status in [
            OptimalityStatus::Optimal,
            OptimalityStatus::Heuristic,
            OptimalityStatus::Feasible,
            OptimalityStatus::Infeasible,
            OptimalityStatus::LimitHit,
        ] {
            assert_eq!(OptimalityStatus::parse(status.as_str()), Some(status));
            assert_eq!(status.to_string(), status.as_str());
        }
        assert_eq!(OptimalityStatus::parse("bogus"), None);
    }

    #[test]
    fn heuristic_solver_outcomes_match_scheduler_results() {
        let (g, _) = dex();
        let platform = Platform::single_pair(5.0, 5.0);
        let ctx = SolveCtx::sequential();
        for solver in [&MemHeft::new() as &dyn Solver, &MemMinMin::new()] {
            let outcome = solver.solve(&g, &platform, &ctx);
            assert_eq!(outcome.status, OptimalityStatus::Heuristic);
            assert_eq!(outcome.nodes, 0);
            let schedule = outcome.schedule.as_ref().unwrap();
            assert!(validate(&g, &platform, schedule).is_valid());
        }
        let tight = Platform::single_pair(2.0, 2.0);
        let outcome = Solver::solve(&MemHeft::new(), &g, &tight, &ctx);
        assert_eq!(outcome.status, OptimalityStatus::Infeasible);
        assert!(outcome.schedule.is_none());
        assert!(outcome.error.is_none());
    }

    #[test]
    fn unbounded_solvers_ignore_memory_bounds() {
        let (g, _) = dex();
        let hopeless = Platform::single_pair(1.0, 1.0);
        let ctx = SolveCtx::sequential();
        let outcome = Solver::solve(&Heft::new(), &g, &hopeless, &ctx);
        assert_eq!(outcome.status, OptimalityStatus::Heuristic);
        let schedule = outcome.schedule.unwrap();
        assert!(validate(&g, &hopeless.unbounded(), &schedule).is_valid());
        assert_eq!(Solver::name(&Heft::new()), "HEFT");
        assert_eq!(Solver::name(&MinMin::new()), "MinMin");
    }

    #[test]
    fn invalid_graph_reports_an_error() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 1.0, 1.0);
        let b = g.add_task("b", 1.0, 1.0);
        g.add_edge(a, b, 1.0, 1.0).unwrap();
        g.add_edge(b, a, 1.0, 1.0).unwrap();
        let ctx = SolveCtx::sequential();
        for solver in [&MemHeft::new() as &dyn Solver, &MemMinMin::new()] {
            let outcome = solver.solve(&g, &Platform::default(), &ctx);
            assert_eq!(outcome.status, OptimalityStatus::Infeasible);
            assert!(outcome.error.is_some(), "{}", solver.name());
        }
    }

    #[test]
    fn limits_constructors() {
        let limits = SolveLimits::with_node_limit(42);
        assert_eq!(limits.node_limit, 42);
        assert_eq!(
            limits.lp_iteration_limit,
            SolveLimits::default().lp_iteration_limit
        );
    }
}
