//! The `+∞` fast path of `MemoryState`: a memory with an infinite bound
//! keeps no usage profile at all. This oracle checks the fast path against
//! the full staircase bookkeeping, which runs whenever the bound is finite:
//! on a finite bound of `4·Σ edge sizes + 1`, memory can never bind (no
//! memory ever holds more than every file at once, and no task needs more
//! than twice that), so every solver must produce the schedule it produces
//! on `+∞` memories — bit for bit, on every start and finish time.

use mals::gen::{DaggenParams, WeightRanges};
use mals::platform::ProcId;
use mals::prelude::*;

/// Every task placement (processor, start, finish) and every transfer
/// (start, finish) of `schedule`, with the times as raw bits.
type Fingerprint = (Vec<(ProcId, u64, u64)>, Vec<(u64, u64)>);

fn fingerprint(graph: &TaskGraph, schedule: &Schedule) -> Fingerprint {
    assert!(schedule.is_complete(graph));
    let tasks = schedule
        .task_placements()
        .map(|p| (p.proc, p.start.to_bits(), p.finish.to_bits()))
        .collect();
    let comms = schedule
        .comm_placements()
        .map(|c| (c.start.to_bits(), c.finish.to_bits()))
        .collect();
    (tasks, comms)
}

/// The instances: a few daggen DAGs plus the paper's toy DAG and two
/// tiled linear-algebra DAGs.
fn instances() -> Vec<(String, TaskGraph)> {
    let mut out = Vec::new();
    for (seed, size) in [(3u64, 30usize), (11, 60), (29, 120)] {
        let mut rng = Pcg64::new(seed);
        let graph = mals::gen::daggen::generate(
            &DaggenParams {
                size,
                width: 0.4,
                density: 0.5,
                jumps: 3,
            },
            &WeightRanges::small_rand(),
            &mut rng,
        );
        out.push((format!("daggen-{size}-seed{seed}"), graph));
    }
    out.push(("dex".into(), dex().0));
    let costs = KernelCosts::table1();
    out.push(("lu-4".into(), lu_dag(4, &costs)));
    out.push(("cholesky-5".into(), cholesky_dag(5, &costs)));
    out
}

/// A finite bound no schedule of `graph` can ever reach.
fn never_binding(graph: &TaskGraph) -> f64 {
    4.0 * graph.total_file_size() + 1.0
}

#[test]
fn memory_aware_solvers_match_on_infinite_and_never_binding_bounds() {
    for (name, graph) in instances() {
        let finite = never_binding(&graph);
        for (procs_blue, procs_red) in [(1, 1), (2, 3)] {
            let infinite =
                Platform::new(procs_blue, procs_red, f64::INFINITY, f64::INFINITY).unwrap();
            let bounded = infinite.with_memory_bounds(finite, finite);
            for solver in [&MemHeft::new() as &dyn Scheduler, &MemMinMin::new()] {
                let fast = solver.schedule(&graph, &infinite).unwrap();
                let full = solver.schedule(&graph, &bounded).unwrap();
                assert_eq!(
                    fingerprint(&graph, &fast),
                    fingerprint(&graph, &full),
                    "{} on {name}, {procs_blue}+{procs_red} processors",
                    solver.name()
                );
            }
        }
    }
}

#[test]
fn baselines_match_their_inner_solver_on_a_never_binding_bound() {
    // HEFT and MinMin substitute `+∞` bounds whatever the platform says;
    // their inner solvers on the finite bound run the full bookkeeping.
    let heft = Heft::new();
    let minmin = MinMin::new();
    for (name, graph) in instances() {
        let finite = never_binding(&graph);
        let bounded = Platform::new(2, 2, finite, finite).unwrap();
        let pairs = [
            (
                heft.schedule(&graph, &bounded),
                heft.inner().schedule(&graph, &bounded),
            ),
            (
                minmin.schedule(&graph, &bounded),
                minmin.inner().schedule(&graph, &bounded),
            ),
        ];
        for (label, (fast, full)) in ["HEFT", "MinMin"].into_iter().zip(pairs) {
            assert_eq!(
                fingerprint(&graph, &fast.unwrap()),
                fingerprint(&graph, &full.unwrap()),
                "{label} on {name}"
            );
        }
    }
}

#[test]
fn mixed_platform_matches_the_fully_bounded_one() {
    // One memory unbounded (no profile), the other finite and never
    // binding (full profile): the same schedule as with both finite.
    for (name, graph) in instances() {
        let finite = never_binding(&graph);
        let bounded = Platform::new(2, 2, finite, finite).unwrap();
        for solver in [&MemHeft::new() as &dyn Scheduler, &MemMinMin::new()] {
            let want = fingerprint(&graph, &solver.schedule(&graph, &bounded).unwrap());
            for (side, mixed) in [
                ("blue", bounded.with_memory_bounds(f64::INFINITY, finite)),
                ("red", bounded.with_memory_bounds(finite, f64::INFINITY)),
            ] {
                let got = solver.schedule(&graph, &mixed).unwrap();
                assert_eq!(
                    fingerprint(&graph, &got),
                    want,
                    "{} on {name}, {side} unbounded",
                    solver.name()
                );
                assert!(validate(&graph, &mixed, &got).is_valid(), "{name}");
            }
        }
    }
}
