//! Mutual-oracle property tests: the in-tree MILP backend and the
//! combinatorial branch-and-bound are two completely independent exact
//! solvers, so on small instances they must arrive at the same optimum —
//! each one vouches for the other (the role CPLEX plays for the paper's
//! Figure 10).

use mals_exact::{BranchAndBound, MilpBackend};
use mals_gen::{dex, DaggenParams, WeightRanges};
use mals_platform::Platform;
use mals_sched::{SolveCtx, Solver};
use mals_sim::validate;
use mals_util::Pcg64;
use proptest::prelude::*;

/// A seeded random DAG of at most 10 tasks with SmallRandSet-style weights.
fn arb_small_graph() -> impl Strategy<Value = mals_dag::TaskGraph> {
    (any::<u64>(), 4usize..=10, 1usize..=3).prop_map(|(seed, size, jumps)| {
        let mut rng = Pcg64::new(seed);
        mals_gen::daggen::generate(
            &DaggenParams {
                size,
                width: 0.5,
                density: 0.5,
                jumps,
            },
            &WeightRanges::small_rand(),
            &mut rng,
        )
    })
}

/// Solves with both backends and checks agreement + validator cleanliness.
fn assert_mutual_oracle(graph: &mals_dag::TaskGraph, platform: &Platform) {
    let ctx = SolveCtx::sequential();
    let milp = MilpBackend.solve(graph, platform, &ctx);
    let bb = BranchAndBound.solve(graph, platform, &ctx);
    assert!(
        milp.is_proven(),
        "MILP backend must settle small instances: {milp:?}"
    );
    assert!(
        bb.is_proven(),
        "B&B backend must settle small instances: {bb:?}"
    );
    match (milp.makespan(), bb.makespan()) {
        (Some(a), Some(b)) => {
            assert!(
                (a - b).abs() < 1e-6,
                "optimal makespans disagree: MILP {a} vs B&B {b}"
            );
            for (name, outcome) in [("MILP", &milp), ("B&B", &bb)] {
                let report = validate(graph, platform, outcome.schedule.as_ref().unwrap());
                assert!(
                    report.is_valid(),
                    "{name} schedule rejected by the validator: {:?}",
                    report.errors
                );
                assert!(report.peaks.blue <= platform.mem_blue + 1e-6);
                assert!(report.peaks.red <= platform.mem_red + 1e-6);
            }
        }
        (None, None) => {} // both proved infeasibility
        (a, b) => panic!("feasibility verdicts disagree: MILP {a:?} vs B&B {b:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(50))]

    /// The acceptance sweep: on random DAGs of ≤ 10 tasks with ample memory
    /// (every file fits simultaneously), both exact backends return Optimal
    /// with the same makespan and both schedules pass the validator under
    /// both memory bounds.
    #[test]
    fn milp_and_bb_agree_on_small_instances(graph in arb_small_graph()) {
        let ample = graph.total_file_size().max(1.0);
        let platform = Platform::single_pair(ample, ample);
        assert_mutual_oracle(&graph, &platform);
    }

    /// Under moderately tight symmetric bounds (60% of the total file
    /// volume) the MILP backend must never be *worse* than B&B — its search
    /// space contains every list schedule B&B can reach — and whatever it
    /// returns must validate. (Under tight memory the LP-certified path may
    /// legitimately beat the list-scheduling space, hence ≤, not =.)
    #[test]
    fn milp_never_worse_than_bb_under_tight_memory(graph in arb_small_graph()) {
        let bound = (0.6 * graph.total_file_size()).max(graph.max_mem_req());
        let platform = Platform::single_pair(bound, bound);
        let ctx = SolveCtx::sequential();
        let milp = MilpBackend.solve(&graph, &platform, &ctx);
        let bb = BranchAndBound.solve(&graph, &platform, &ctx);
        if let (Some(a), Some(b)) = (milp.makespan(), bb.makespan()) {
            assert!(a <= b + 1e-6, "MILP {a} worse than B&B {b}");
            let report = validate(&graph, &platform, milp.schedule.as_ref().unwrap());
            assert!(report.is_valid(), "{:?}", report.errors);
        }
        if bb.makespan().is_some() {
            assert!(
                milp.makespan().is_some(),
                "B&B found a schedule the MILP backend missed: {milp:?}"
            );
        }
    }
}

#[test]
fn toy_instances_agree_across_the_memory_range() {
    // Every interesting bound of the paper's toy DAG, including the
    // infeasible end: the two backends must agree point by point.
    let (g, _) = dex();
    for bound in [2.0, 3.0, 4.0, 5.0, 6.0, 10.0, 100.0] {
        let platform = Platform::single_pair(bound, bound);
        assert_mutual_oracle(&g, &platform);
    }
}
