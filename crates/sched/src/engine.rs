//! The solver engine: a reusable session around a registry, a thread
//! budget and default limits.
//!
//! An [`Engine`] is created once, holds the registry, the resolved thread
//! count and the default [`SolveLimits`], and hands every solve a
//! [`SolveCtx`] carrying them. The threads run whole solves side by side —
//! the members of a portfolio race ([`Engine::solve_portfolio`], also
//! inside [`Engine::solve_batch`]), spawned for the race and joined before
//! it returns; every other solve is sequential and spawns nothing.
//!
//! ```
//! use mals_sched::{Engine, EngineConfig, SolverRegistry};
//! use mals_platform::Platform;
//! use mals_gen::dex;
//!
//! let engine = Engine::new(SolverRegistry::heuristics(), EngineConfig::default());
//! let (graph, _) = dex();
//! let outcome = engine
//!     .solve("memheft", &graph, &Platform::single_pair(6.0, 6.0))
//!     .unwrap();
//! assert!(outcome.schedule.is_some());
//! ```

use crate::portfolio::{Portfolio, PortfolioReport};
use crate::registry::SolverRegistry;
use crate::solver::{SolveCtx, SolveLimits, SolveOutcome, Solver};
use mals_dag::TaskGraph;
use mals_platform::Platform;
use mals_util::{CancelSignal, Deadline, ParallelConfig};

/// Configuration of an [`Engine`].
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineConfig {
    /// Thread budget of the session's portfolio races (default: all cores;
    /// results are bit-identical for every setting).
    pub parallel: ParallelConfig,
    /// Default budgets handed to every solve.
    pub limits: SolveLimits,
}

impl EngineConfig {
    /// A sequential engine configuration with default limits.
    pub fn sequential() -> Self {
        EngineConfig {
            parallel: ParallelConfig::sequential(),
            limits: SolveLimits::default(),
        }
    }

    /// Sets the worker-thread count (`0` = all cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.parallel = ParallelConfig::with_threads(threads);
        self
    }

    /// Sets the default solve limits.
    pub fn with_limits(mut self, limits: SolveLimits) -> Self {
        self.limits = limits;
        self
    }
}

/// Errors raised by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The requested solver name is not in the registry; the payload lists
    /// the names that are.
    UnknownSolver {
        /// The name that failed to resolve.
        name: String,
        /// Every registered key, in registration order.
        known: Vec<&'static str>,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownSolver { name, known } => {
                write!(f, "unknown solver `{name}` (known: {})", known.join(", "))
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// A solving session: registry + thread budget + default limits.
pub struct Engine {
    registry: SolverRegistry,
    threads: usize,
    limits: SolveLimits,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("solvers", &self.registry.keys())
            .field("threads", &self.threads)
            .field("limits", &self.limits)
            .finish()
    }
}

impl Engine {
    /// Creates an engine over `registry`, resolving the thread count once
    /// (`0` = the machine's available parallelism). No thread is spawned.
    pub fn new(registry: SolverRegistry, config: EngineConfig) -> Self {
        Engine {
            registry,
            threads: config.parallel.resolved_threads(),
            limits: config.limits,
        }
    }

    /// The registry backing this engine.
    pub fn registry(&self) -> &SolverRegistry {
        &self.registry
    }

    /// The default limits of this engine.
    pub fn limits(&self) -> SolveLimits {
        self.limits
    }

    /// The session's thread budget (the calling thread included).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The context handed to solves: default limits + the thread budget.
    pub fn ctx(&self) -> SolveCtx<'_> {
        SolveCtx {
            limits: self.limits,
            threads: self.threads,
            cancel: CancelSignal::default(),
        }
    }

    /// A per-call context with overrides: the service daemon's access
    /// pattern, where every queued request carries its own limits and an
    /// *absolute* deadline stamped at admission time (so queueing delay
    /// counts against the request's budget, not just solve time).
    pub fn ctx_with(
        &self,
        limits: Option<SolveLimits>,
        deadline: Option<Deadline>,
    ) -> SolveCtx<'_> {
        SolveCtx {
            limits: limits.unwrap_or(self.limits),
            threads: self.threads,
            cancel: CancelSignal {
                deadline,
                ..CancelSignal::default()
            },
        }
    }

    /// Instantiates the solver registered under `name` (seed 0).
    pub fn solver(&self, name: &str) -> Result<Box<dyn Solver>, EngineError> {
        self.solver_seeded(name, 0)
    }

    /// Instantiates the solver registered under `name` with `seed`.
    pub fn solver_seeded(&self, name: &str, seed: u64) -> Result<Box<dyn Solver>, EngineError> {
        self.registry
            .build_seeded(name, seed)
            .ok_or_else(|| EngineError::UnknownSolver {
                name: name.to_string(),
                known: self.registry.keys(),
            })
    }

    /// Solves one graph with the solver registered under `name`.
    pub fn solve(
        &self,
        name: &str,
        graph: &TaskGraph,
        platform: &Platform,
    ) -> Result<SolveOutcome, EngineError> {
        self.solve_seeded(name, 0, graph, platform)
    }

    /// [`Engine::solve`] with an explicit seed for randomised solvers.
    pub fn solve_seeded(
        &self,
        name: &str,
        seed: u64,
        graph: &TaskGraph,
        platform: &Platform,
    ) -> Result<SolveOutcome, EngineError> {
        let solver = self.solver_seeded(name, seed)?;
        Ok(solver.solve(graph, platform, &self.ctx()))
    }

    /// Races a solver portfolio on this engine's threads and returns the full
    /// per-member breakdown (see [`Portfolio::solve_race`] for the racing
    /// and determinism rules).
    ///
    /// `keys` selects the members from this engine's registry (empty:
    /// [`DEFAULT_MEMBERS`](crate::portfolio::DEFAULT_MEMBERS)); `deadline`
    /// bounds the race — every member polls it cooperatively and yields its
    /// incumbent-so-far once it passes.
    pub fn solve_portfolio<S: AsRef<str>>(
        &self,
        keys: &[S],
        seed: u64,
        graph: &TaskGraph,
        platform: &Platform,
        deadline: Option<Deadline>,
    ) -> Result<PortfolioReport, EngineError> {
        let portfolio = Portfolio::from_registry(&self.registry, keys, seed).map_err(|key| {
            EngineError::UnknownSolver {
                name: key,
                known: self.registry.keys(),
            }
        })?;
        let mut ctx = self.ctx();
        ctx.cancel.deadline = deadline;
        Ok(portfolio.solve_race(graph, platform, &ctx))
    }

    /// Solves many graphs with one solver instance, in order on the calling
    /// thread, and returns the outcomes in input order. Every solve shares
    /// the session's context, so a portfolio in a batch races its members
    /// on the session's threads.
    pub fn solve_batch(
        &self,
        name: &str,
        graphs: &[TaskGraph],
        platform: &Platform,
    ) -> Result<Vec<SolveOutcome>, EngineError> {
        let solver = self.solver(name)?;
        let ctx = self.ctx();
        Ok(graphs
            .iter()
            .map(|graph| solver.solve(graph, platform, &ctx))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::OptimalityStatus;
    use crate::MemHeft;
    use crate::Scheduler;
    use mals_gen::{dex, DaggenParams, WeightRanges};
    use mals_util::Pcg64;

    fn engine(threads: usize) -> Engine {
        Engine::new(
            SolverRegistry::heuristics(),
            EngineConfig::default().with_threads(threads),
        )
    }

    #[test]
    fn solve_by_name_matches_direct_construction() {
        let engine = engine(1);
        let (g, _) = dex();
        let platform = Platform::single_pair(6.0, 6.0);
        let by_name = engine.solve("memheft", &g, &platform).unwrap();
        let direct = MemHeft::new().schedule(&g, &platform).unwrap();
        assert_eq!(by_name.schedule.as_ref(), Some(&direct));
        assert_eq!(by_name.status, OptimalityStatus::Heuristic);
    }

    #[test]
    fn unknown_solver_lists_known_names() {
        let engine = engine(1);
        let (g, _) = dex();
        let err = engine.solve("cplex", &g, &Platform::default()).unwrap_err();
        let EngineError::UnknownSolver { name, known } = &err;
        assert_eq!(name, "cplex");
        assert!(known.contains(&"memheft"));
        assert!(err.to_string().contains("memheft"));
    }

    #[test]
    fn batch_solves_match_individual_solves_for_any_thread_count() {
        let mut rng = Pcg64::new(11);
        let graphs: Vec<_> = (0..4)
            .map(|_| {
                mals_gen::daggen::generate(
                    &DaggenParams::small_rand(),
                    &WeightRanges::small_rand(),
                    &mut rng,
                )
            })
            .collect();
        let platform = Platform::new(2, 2, 150.0, 150.0).unwrap();
        let sequential = engine(1);
        let reference = sequential
            .solve_batch("memminmin", &graphs, &platform)
            .unwrap();
        for threads in [2, 4] {
            let engine = engine(threads);
            assert_eq!(engine.threads(), threads);
            let batch = engine.solve_batch("memminmin", &graphs, &platform).unwrap();
            assert_eq!(batch.len(), graphs.len());
            for (a, b) in reference.iter().zip(&batch) {
                assert_eq!(a.schedule, b.schedule, "{threads} threads diverged");
            }
        }
    }

    #[test]
    fn engine_reuse_across_many_solves() {
        let engine = engine(2);
        let (g, _) = dex();
        let platform = Platform::single_pair(6.0, 6.0);
        let first = engine.solve("memminmin", &g, &platform).unwrap();
        for _ in 0..20 {
            let again = engine.solve("memminmin", &g, &platform).unwrap();
            assert_eq!(first.schedule, again.schedule);
        }
    }

    #[test]
    fn portfolio_solve_matches_best_member() {
        let engine = engine(2);
        let (g, _) = dex();
        let platform = Platform::single_pair(6.0, 6.0);
        let report = engine
            .solve_portfolio::<&str>(&[], 0, &g, &platform, None)
            .unwrap();
        let winner = report.winner.expect("dex is feasible at bound 6");
        let best = report.outcome.makespan().unwrap();
        let direct = engine
            .solve(report.members[winner].key.as_str(), &g, &platform)
            .unwrap();
        assert_eq!(direct.makespan(), Some(best));
        let err = engine
            .solve_portfolio(&["memheft", "gurobi"], 0, &g, &platform, None)
            .unwrap_err();
        let EngineError::UnknownSolver { name, .. } = &err;
        assert_eq!(name, "gurobi");
    }

    #[test]
    fn debug_and_accessors() {
        let engine = engine(3);
        assert_eq!(engine.limits(), SolveLimits::default());
        assert_eq!(engine.registry().len(), 11);
        let debug = format!("{engine:?}");
        assert!(debug.contains("memheft"));
        assert!(debug.contains("threads: 3"));
    }
}
