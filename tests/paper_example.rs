//! Golden tests anchored to the worked example of the paper (Figures 2–4):
//! the toy DAG `D_ex`, its schedules `s1` and `s2`, and the memory/makespan
//! trade-off they illustrate.

use mals::prelude::*;
use mals::sim::{CommPlacement, TaskPlacement};

/// Rebuilds the schedule s1 of Figure 3 (makespan 6, red peak 5).
fn schedule_s1(graph: &mals::dag::TaskGraph, t: [TaskId; 4]) -> Schedule {
    let [t1, t2, t3, t4] = t;
    let mut s = Schedule::for_graph(graph);
    s.place_task(TaskPlacement {
        task: t1,
        proc: 1,
        start: 0.0,
        finish: 1.0,
    });
    s.place_task(TaskPlacement {
        task: t3,
        proc: 1,
        start: 1.0,
        finish: 4.0,
    });
    s.place_task(TaskPlacement {
        task: t2,
        proc: 0,
        start: 2.0,
        finish: 4.0,
    });
    s.place_task(TaskPlacement {
        task: t4,
        proc: 1,
        start: 5.0,
        finish: 6.0,
    });
    let e12 = graph.edge_between(t1, t2).unwrap();
    let e24 = graph.edge_between(t2, t4).unwrap();
    s.place_comm(CommPlacement {
        edge: e12,
        start: 1.0,
        finish: 2.0,
    });
    s.place_comm(CommPlacement {
        edge: e24,
        start: 4.0,
        finish: 5.0,
    });
    s
}

#[test]
fn s1_is_valid_with_memory_5_and_matches_the_paper_numbers() {
    let (graph, tasks) = dex();
    let platform = Platform::single_pair(5.0, 5.0);
    let s1 = schedule_s1(&graph, tasks);
    let report = validate(&graph, &platform, &s1);
    assert!(report.is_valid(), "{:?}", report.errors);
    assert_eq!(report.makespan, 6.0);
    assert_eq!(report.peaks.blue, 2.0);
    assert_eq!(report.peaks.red, 5.0);
}

#[test]
fn s1_violates_memory_4() {
    let (graph, tasks) = dex();
    let platform = Platform::single_pair(4.0, 4.0);
    let s1 = schedule_s1(&graph, tasks);
    assert!(!validate(&graph, &platform, &s1).is_valid());
}

#[test]
fn optimal_makespan_is_6_with_memory_5() {
    let (graph, _) = dex();
    let platform = Platform::single_pair(5.0, 5.0);
    let result = BranchAndBound.solve(&graph, &platform, &SolveCtx::sequential());
    assert!(result.is_proven());
    assert_eq!(result.makespan(), Some(6.0));
}

#[test]
fn memory_4_forces_a_slower_schedule_like_s2() {
    // The paper's s2 trades a makespan of 7 for peaks of at most 4.
    let (graph, _) = dex();
    let platform = Platform::single_pair(4.0, 4.0);
    let result = BranchAndBound.solve(&graph, &platform, &SolveCtx::sequential());
    assert!(result.is_proven());
    let makespan = result
        .makespan()
        .expect("D_ex is schedulable with 4 units per side");
    assert!(makespan > 6.0 && makespan <= 7.0 + 1e-9, "got {makespan}");
    let schedule = result.schedule.unwrap();
    let report = validate(&graph, &platform, &schedule);
    assert!(report.is_valid());
    assert!(report.peaks.blue <= 4.0 && report.peaks.red <= 4.0);
}

#[test]
fn heuristics_respect_both_memory_bounds_on_dex() {
    let (graph, _) = dex();
    for (blue, red) in [(5.0, 5.0), (4.0, 6.0), (6.0, 4.0), (10.0, 3.0)] {
        let platform = Platform::single_pair(blue, red);
        for scheduler in [&MemHeft::new() as &dyn Scheduler, &MemMinMin::new()] {
            if let Ok(schedule) = scheduler.schedule(&graph, &platform) {
                let report = validate(&graph, &platform, &schedule);
                assert!(
                    report.is_valid(),
                    "{} with bounds ({blue},{red}): {:?}",
                    scheduler.name(),
                    report.errors
                );
            }
        }
    }
}

#[test]
fn upward_ranks_of_dex_follow_the_heft_formula() {
    let (graph, [t1, t2, t3, t4]) = dex();
    let ranks = mals::dag::upward_ranks(&graph);
    assert_eq!(ranks[t4.index()], 1.0);
    assert_eq!(ranks[t2.index()], 3.5);
    assert_eq!(ranks[t3.index()], 6.0);
    assert_eq!(ranks[t1.index()], 8.5);
}

#[test]
fn mem_req_of_dex_tasks() {
    let (graph, [t1, t2, t3, t4]) = dex();
    assert_eq!(graph.mem_req(t1), 3.0);
    assert_eq!(graph.mem_req(t2), 2.0);
    assert_eq!(graph.mem_req(t3), 4.0);
    assert_eq!(graph.mem_req(t4), 3.0);
}
