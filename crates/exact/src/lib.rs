//! Exact solvers for memory-constrained dual-memory scheduling.
//!
//! The paper obtains optimal makespans for small instances (up to ~30 tasks)
//! by solving an intricate Integer Linear Program with CPLEX. This crate
//! reproduces that capability with two complementary components:
//!
//! * [`ilp`] — a faithful construction of the ILP of Section 4 (every
//!   variable family of Figure 5, every constraint of Figures 6 and 7,
//!   including the linearisation of the memory constraints), together with an
//!   export in CPLEX LP text format so the model can be fed to any external
//!   MILP solver. No solver ships with the workspace (CPLEX is proprietary),
//!   so the model is used for inspection, counting and export only.
//! * [`bb`] — a branch-and-bound **optimal scheduler** over the
//!   list-scheduling decision space (which task next, on which memory), using
//!   the same placement engine as the heuristics. It returns provably optimal
//!   makespans within that space for the small instances of the paper's
//!   Figure 10/11 experiments, replacing the CPLEX runs (see `DESIGN.md` for
//!   the substitution rationale).
//! * [`simplex`] / [`milp`] — an in-tree bounded-variable revised simplex
//!   and a best-first branch-and-bound MILP solver over [`model::LpModel`],
//!   so optimal makespans no longer require proprietary tooling;
//! * [`compact`] — the MILP **exact backend**: a compact disjunctive model
//!   solved with the in-tree MILP machinery, with lazy memory enforcement
//!   through the simulator's validator;
//! * [`backend`] — the `--exact-backend {milp,bb,lp-export}` flag values
//!   ([`ExactBackendKind`]) and the LP exporter ([`backend::LpExport`]);
//! * [`solvers`] — [`solver_registry`], the full name-keyed registry
//!   (heuristics + exact) that the drivers and the service surface resolve
//!   solver names against. Every exact backend is a [`mals_sched::Solver`]:
//!   its node budget comes from `SolveCtx::limits`, its cancellation from
//!   `SolveCtx::cancel`, and it answers a [`mals_sched::SolveOutcome`];
//! * [`bounds`] — makespan lower bounds (critical path, load balance,
//!   memory-feasibility) shared by both exact solvers for pruning and
//!   plotted as the "Lower bound" series of Figure 11.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod bb;
pub mod bounds;
pub mod compact;
pub mod ilp;
pub mod milp;
pub mod model;
pub mod simplex;
pub mod solvers;

pub use backend::ExactBackendKind;
pub use bb::BranchAndBound;
pub use bounds::{
    critical_path_lower_bound, load_lower_bound, makespan_lower_bound, memory_feasibility,
    optimistic_bottom_levels, MemoryFeasibility,
};
pub use compact::MilpBackend;
pub use ilp::{build_ilp, IlpStats};
pub use milp::{MilpLimits, MilpResult, MilpSolver, MilpStatus};
pub use model::{Constraint, LpModel, Sense, StandardForm, VarId, VarKind};
pub use simplex::{solve_lp, LpSolution, LpStatus};
pub use solvers::{engine, solver_registry};
// The budget type lives next to the `Solver` trait; it is re-exported here
// because the exact backends are its primary consumer.
pub use mals_sched::SolveLimits;
