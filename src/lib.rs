//! # MALS — Memory-Aware List Scheduling for hybrid platforms
//!
//! A from-scratch Rust implementation of *Memory-aware list scheduling for
//! hybrid platforms* (Herrmann, Marchal, Robert — INRIA RR-8461 / IPDPS
//! workshops 2014): scheduling task graphs on a dual-memory platform (a
//! multicore CPU with its RAM plus an accelerator with its device memory)
//! while keeping the peak usage of **both** memories under given bounds.
//!
//! This crate is a facade: it re-exports the workspace crates so downstream
//! users can depend on a single package.
//!
//! | Module | Contents |
//! |---|---|
//! | [`dag`] | task-graph substrate (graph, ranks, critical paths, DOT, JSON) |
//! | [`platform`] | dual-memory platform model and availability tracking |
//! | [`sim`] | schedule representation, validation, memory replay, Gantt |
//! | [`gen`] | DAGGEN-style random DAGs, tiled LU / Cholesky generators |
//! | [`sched`] | HEFT, MinMin, **MemHEFT**, **MemMinMin**, the unified [`sched::Solver`] trait, the solver registry and the [`sched::Engine`] |
//! | [`exact`] | the paper's ILP (LP export), a branch-and-bound optimum, the in-tree MILP solver and [`exact::solver_registry`] |
//! | [`experiments`] | campaign harness reproducing every table and figure, plus the JSON service surface (`SolveRequest` → `SolveReport`) |
//! | [`util`] | deterministic RNG, statistics, staircase functions, scoped parallel map, JSON |
//!
//! # Quickstart
//!
//! Solvers — heuristics and exact backends alike — are selected **by name**
//! through an [`Engine`](sched::Engine) session that holds the thread budget
//! and the solve limits:
//!
//! ```
//! use mals::prelude::*;
//!
//! // Build a small task graph: every task has a CPU time and an
//! // accelerator time; every edge carries a data file.
//! let mut graph = TaskGraph::new();
//! let a = graph.add_task("a", 4.0, 2.0);
//! let b = graph.add_task("b", 3.0, 1.0);
//! let c = graph.add_task("c", 2.0, 2.0);
//! graph.add_edge(a, b, 2.0, 1.0).unwrap();
//! graph.add_edge(a, c, 1.0, 1.0).unwrap();
//!
//! // One CPU and one accelerator, 6 units of memory on each side.
//! let platform = Platform::single_pair(6.0, 6.0);
//!
//! // An engine over every registered solver; reuse it across solves.
//! let engine = mals::exact::engine(EngineConfig::default());
//! for solver in ["memheft", "memminmin", "bb"] {
//!     let outcome = engine.solve(solver, &graph, &platform).unwrap();
//!     let schedule = outcome.schedule.as_ref().unwrap();
//!     let report = validate(&graph, &platform, schedule);
//!     assert!(report.is_valid());
//!     assert!(report.peaks.blue <= 6.0 && report.peaks.red <= 6.0);
//! }
//!
//! // Or go through the serde-able service surface — a `Service` session
//! // owns the engine; the `schedule` binary and the `malsd` daemon wire
//! // the same session to a file / stdin / TCP socket:
//! let request = SolveRequest::new(graph, platform, "milp");
//! let report = Service::for_request(&request).try_handle(&request).unwrap();
//! assert!(report.status == OptimalityStatus::Optimal);
//! assert_eq!(report.valid, Some(true));
//! let roundtrip = SolveReport::parse(&report.to_json().to_pretty()).unwrap();
//! assert_eq!(roundtrip, report);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mals_dag as dag;
pub use mals_exact as exact;
pub use mals_experiments as experiments;
pub use mals_gen as gen;
pub use mals_platform as platform;
pub use mals_sched as sched;
pub use mals_sim as sim;
pub use mals_util as util;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use mals_dag::{EdgeId, TaskGraph, TaskId};
    pub use mals_exact::{build_ilp, solver_registry, BranchAndBound};
    pub use mals_experiments::{
        CodedError, ErrorCode, MemberOutcome, Service, ServiceError, SolveReport, SolveRequest,
        PROTOCOL_VERSION,
    };
    pub use mals_gen::{cholesky_dag, dex, lu_dag, DaggenParams, KernelCosts, WeightRanges};
    pub use mals_platform::{Memory, Platform};
    pub use mals_sched::{
        Engine, EngineConfig, Heft, MemHeft, MemMinMin, MemberReport, MinMin, OptimalityStatus,
        Portfolio, PortfolioReport, ScheduleError, Scheduler, SolveCtx, SolveLimits, SolveOutcome,
        Solver, SolverRegistry, DEFAULT_MEMBERS,
    };
    pub use mals_sim::{memory_peaks, validate, Schedule};
    pub use mals_util::{Json, Pcg64};
}
