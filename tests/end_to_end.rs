//! End-to-end integration tests: generate workloads with every generator,
//! schedule them with every scheduler, and validate every schedule with the
//! independent checker.

use mals::exact::BranchAndBound;
use mals::gen::{cholesky_dag, lu_dag, DaggenParams, KernelCosts, SetParams, WeightRanges};
use mals::prelude::*;
use mals::sim::memory_peaks;

fn memory_aware() -> Vec<Box<dyn Scheduler>> {
    vec![Box::new(MemHeft::new()), Box::new(MemMinMin::new())]
}

#[test]
fn random_graphs_all_schedulers_valid_under_generous_memory() {
    let dags = SetParams::small_rand().scaled(6, 25).generate();
    for (i, graph) in dags.iter().enumerate() {
        let platform = Platform::new(2, 2, 400.0, 400.0).unwrap();
        for scheduler in memory_aware() {
            let schedule = scheduler
                .schedule(graph, &platform)
                .unwrap_or_else(|e| panic!("dag {i}, {}: {e}", scheduler.name()));
            let report = validate(graph, &platform, &schedule);
            assert!(
                report.is_valid(),
                "dag {i}, {}: {:?}",
                scheduler.name(),
                report.errors
            );
            assert!(schedule.is_complete(graph));
        }
    }
}

#[test]
fn memory_aware_schedulers_match_baselines_when_memory_is_ample() {
    let dags = SetParams::small_rand().scaled(4, 20).generate();
    for graph in &dags {
        let unbounded = Platform::single_pair(f64::INFINITY, f64::INFINITY);
        let heft = Heft::new().schedule(graph, &unbounded).unwrap();
        let minmin = MinMin::new().schedule(graph, &unbounded).unwrap();
        // With memory bounds at least as large as the total file volume the
        // memory terms can never delay a task, so the memory-aware heuristics
        // reproduce their oblivious counterparts decision for decision.
        let ample = graph.total_file_size();
        let platform = Platform::single_pair(ample, ample);
        let memheft = MemHeft::new().schedule(graph, &platform).unwrap();
        assert_eq!(heft, memheft);
        let memminmin = MemMinMin::new().schedule(graph, &platform).unwrap();
        assert_eq!(minmin, memminmin);
        // The bounds HEFT actually consumed are respected by construction.
        let peaks = memory_peaks(graph, &unbounded, &heft);
        assert!(peaks.max() <= ample + 1e-9);
    }
}

#[test]
fn tighter_memory_never_invalidates_produced_schedules() {
    let graph = {
        let mut rng = Pcg64::new(77);
        mals::gen::daggen::generate(
            &DaggenParams {
                size: 40,
                width: 0.4,
                density: 0.5,
                jumps: 3,
            },
            &WeightRanges::small_rand(),
            &mut rng,
        )
    };
    let unbounded = Platform::single_pair(f64::INFINITY, f64::INFINITY);
    let reference = memory_peaks(
        &graph,
        &unbounded,
        &Heft::new().schedule(&graph, &unbounded).unwrap(),
    );
    let full = reference.max();
    for fraction in [1.0, 0.8, 0.6, 0.4, 0.3] {
        let bound = full * fraction;
        let platform = Platform::single_pair(bound, bound);
        for scheduler in memory_aware() {
            match scheduler.schedule(&graph, &platform) {
                Ok(schedule) => {
                    let report = validate(&graph, &platform, &schedule);
                    assert!(
                        report.is_valid(),
                        "{} at {fraction}: {:?}",
                        scheduler.name(),
                        report.errors
                    );
                    assert!(report.peaks.blue <= bound + 1e-6);
                    assert!(report.peaks.red <= bound + 1e-6);
                }
                Err(ScheduleError::Infeasible { .. }) => {} // allowed under tight bounds
                Err(e) => panic!("{}: {e}", scheduler.name()),
            }
        }
    }
}

#[test]
fn linear_algebra_graphs_schedule_and_validate() {
    let costs = KernelCosts::table1();
    let graphs = vec![
        ("lu", lu_dag(5, &costs)),
        ("cholesky", cholesky_dag(6, &costs)),
    ];
    for (name, graph) in graphs {
        let platform = Platform::mirage(f64::INFINITY, f64::INFINITY);
        let heft = Heft::new().schedule(&graph, &platform).unwrap();
        let peaks = memory_peaks(&graph, &platform, &heft);
        // A budget of 70% of HEFT's footprint must still be schedulable by
        // MemHEFT on these regular graphs.
        let bound = (peaks.max() * 0.7).ceil();
        let bounded = Platform::mirage(bound, bound);
        let schedule = MemHeft::new()
            .schedule(&graph, &bounded)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = validate(&graph, &bounded, &schedule);
        assert!(report.is_valid(), "{name}: {:?}", report.errors);
        assert!(report.peaks.max() <= bound + 1e-6);
        // The memory-aware schedule cannot beat the unconstrained one.
        assert!(schedule.makespan() + 1e-6 >= heft.makespan() * 0.5);
    }
}

#[test]
fn exact_solver_agrees_with_heuristics_on_easy_instances() {
    let dags = SetParams::small_rand().scaled(3, 7).generate();
    for graph in &dags {
        let platform = Platform::single_pair(200.0, 200.0);
        let exact = BranchAndBound.solve(graph, &platform, &SolveCtx::sequential());
        let opt = exact.makespan().expect("ample memory");
        for scheduler in memory_aware() {
            let heuristic = scheduler.schedule(graph, &platform).unwrap().makespan();
            assert!(opt <= heuristic + 1e-9);
        }
        // And the optimum respects the platform-level lower bound.
        let lb = mals::exact::makespan_lower_bound(graph, &platform);
        assert!(opt >= lb - 1e-9);
    }
}

#[test]
fn gantt_and_dot_render_for_a_scheduled_lu() {
    let graph = lu_dag(3, &KernelCosts::table1());
    let platform = Platform::mirage(f64::INFINITY, f64::INFINITY);
    let schedule = MemMinMin::new().schedule(&graph, &platform).unwrap();
    let trace = mals::sim::gantt::render_trace(&graph, &platform, &schedule);
    assert!(trace.contains("getrf_0"));
    let dot = mals::dag::dot::to_dot(&graph);
    assert!(dot.contains("digraph"));
    assert!(dot.contains("gemm_0_1_1"));
}
