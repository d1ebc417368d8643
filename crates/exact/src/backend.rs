//! The exact backends selectable from the command line, and the LP
//! exporter.
//!
//! Every way of obtaining (or approaching) an optimal schedule is a
//! [`Solver`] in the registry ([`crate::solver_registry`]). Three ship
//! in-tree:
//!
//! | backend | strategy | when it wins |
//! |---|---|---|
//! | [`BranchAndBound`](crate::bb::BranchAndBound) | combinatorial search over the list-scheduling decision space | tight memory, small DAGs — memory pruning is native |
//! | [`MilpBackend`](crate::compact::MilpBackend) | in-tree simplex + branch-and-bound MILP over a compact disjunctive model | ample/moderate memory — the LP bound closes the gap in few nodes and certifies optimality |
//! | [`LpExport`] | emits the paper's full § 4 ILP in CPLEX LP text | handing the instance to an external industrial solver |
//!
//! The experiment campaigns select one with `--exact-backend
//! {milp,bb,lp-export}` (see [`ExactBackendKind`]).

use crate::ilp::build_ilp;
use crate::solvers::reject_invalid;
use mals_dag::TaskGraph;
use mals_platform::Platform;
use mals_sched::{OptimalityStatus, SolveCtx, SolveOutcome, Solver};

/// The LP-text exporter: builds the paper's full § 4 ILP in CPLEX LP format
/// for an external MILP solver ([`LpExport::export_text`]). As a [`Solver`]
/// it never solves anything, so it always answers
/// [`OptimalityStatus::LimitHit`] with zero nodes.
#[derive(Debug, Clone, Copy, Default)]
pub struct LpExport;

impl LpExport {
    /// The CPLEX LP text of the instance's ILP.
    pub fn export_text(graph: &TaskGraph, platform: &Platform) -> String {
        build_ilp(graph, platform).to_lp_format()
    }
}

impl Solver for LpExport {
    fn name(&self) -> &str {
        "ILP(LP-export)"
    }

    fn solve(&self, graph: &TaskGraph, _platform: &Platform, _ctx: &SolveCtx) -> SolveOutcome {
        if let Some(rejected) = reject_invalid(graph) {
            return rejected;
        }
        SolveOutcome::without_schedule(OptimalityStatus::LimitHit, 0)
    }
}

/// The solving backends selectable from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExactBackendKind {
    /// Combinatorial branch-and-bound over the list-scheduling space.
    BranchAndBound,
    /// In-tree simplex + MILP branch-and-bound over the compact model.
    Milp,
    /// CPLEX LP text export of the paper's full ILP (does not solve).
    LpExport,
}

impl ExactBackendKind {
    /// Parses the `--exact-backend` flag value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "bb" => Some(ExactBackendKind::BranchAndBound),
            "milp" => Some(ExactBackendKind::Milp),
            "lp-export" => Some(ExactBackendKind::LpExport),
            _ => None,
        }
    }

    /// The flag values accepted by [`ExactBackendKind::parse`].
    pub const FLAG_VALUES: &'static str = "bb|milp|lp-export";

    /// The solver-registry key of this backend (see
    /// [`crate::solver_registry`]), equal to its flag value.
    pub fn solver_key(self) -> &'static str {
        match self {
            ExactBackendKind::BranchAndBound => "bb",
            ExactBackendKind::Milp => "milp",
            ExactBackendKind::LpExport => "lp-export",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bb::BranchAndBound;
    use mals_gen::dex;

    #[test]
    fn bb_backend_maps_outcomes() {
        let (g, _) = dex();
        let ctx = SolveCtx::sequential();
        let opt = BranchAndBound.solve(&g, &Platform::single_pair(5.0, 5.0), &ctx);
        assert!(opt.is_optimal());
        assert_eq!(opt.makespan(), Some(6.0));
        assert!(opt.schedule.is_some());
        let inf = BranchAndBound.solve(&g, &Platform::single_pair(2.0, 2.0), &ctx);
        assert_eq!(inf.status, OptimalityStatus::Infeasible);
        assert!(inf.is_proven());
        assert_eq!(inf.makespan(), None);
    }

    #[test]
    fn backend_kind_parsing_and_names() {
        assert_eq!(
            ExactBackendKind::parse("bb"),
            Some(ExactBackendKind::BranchAndBound)
        );
        assert_eq!(
            ExactBackendKind::parse("milp"),
            Some(ExactBackendKind::Milp)
        );
        assert_eq!(
            ExactBackendKind::parse("lp-export"),
            Some(ExactBackendKind::LpExport)
        );
        assert_eq!(ExactBackendKind::parse("cplex"), None);
        let registry = crate::solver_registry();
        for (kind, name) in [
            (ExactBackendKind::BranchAndBound, "Optimal(B&B)"),
            (ExactBackendKind::Milp, "Optimal(MILP)"),
            (ExactBackendKind::LpExport, "ILP(LP-export)"),
        ] {
            assert_eq!(ExactBackendKind::parse(kind.solver_key()), Some(kind));
            assert_eq!(registry.build(kind.solver_key()).unwrap().name(), name);
        }
    }
}
