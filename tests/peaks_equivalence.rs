//! Equivalence guard for the memory-peaks sweep.
//!
//! `mals_sim::memory_profiles` and `memory_peaks` share one event builder
//! that sorts bounded runs of edges by a stable LSD radix sort and merges
//! the runs as it folds them, and `memory_peaks` folds the sorted events
//! straight to the maximum instead of building staircases. None of that
//! may move a bit: this suite keeps a verbatim copy of the previous path
//! (stable comparison sort on `total_cmp`, then
//! `Staircase::from_breakpoints`) as its oracle, and compares `to_bits` of
//! the peaks and of every profile breakpoint on HEFT, MinMin, MemHEFT and
//! MemMinMin schedules of random DAGs at α ∈ {0.5, 1}, plus hand-made edge
//! cases and a 5 · 10⁴-task DAG that spans several runs.
//!
//! With LargeRandSet's integer file sizes every order of the simultaneous
//! events gives the same sums, so a sweep that broke their order would
//! still match. A second family divides every size by 10: its sums depend
//! on the order, and the suite shows it by checking that shuffling the
//! order of equal-time events changes some peak.

use mals::gen::{daggen, DaggenParams, WeightRanges};
use mals::prelude::*;
use mals::sim::{memory_profiles, CommPlacement, MemoryPeaks, TaskPlacement};
use mals::util::{approx_eq, Staircase, EPSILON};

/// The previous `memory_profiles`, verbatim: [`tie_shuffled_profiles`]
/// without a shuffle.
fn oracle_profiles(graph: &TaskGraph, platform: &Platform, schedule: &Schedule) -> [Staircase; 2] {
    tie_shuffled_profiles(graph, platform, schedule, None)
}

/// [`oracle_profiles`], except that with `shuffle` the events are shuffled
/// before the stable sort, so equal-time events are added in random order.
fn tie_shuffled_profiles(
    graph: &TaskGraph,
    platform: &Platform,
    schedule: &Schedule,
    mut shuffle: Option<&mut Pcg64>,
) -> [Staircase; 2] {
    let mut events: [Vec<(f64, f64)>; 2] = [Vec::new(), Vec::new()];
    let mut resident = |mem: Memory, from: f64, until: f64, size: f64| {
        let from = from.max(0.0);
        if until <= from + EPSILON {
            return;
        }
        events[mem.index()].push((from, size));
        events[mem.index()].push((until, -size));
    };
    for edge_id in graph.edge_ids() {
        let edge = graph.edge(edge_id);
        if edge.size == 0.0 {
            continue;
        }
        let (Some(src), Some(dst)) = (schedule.task(edge.src), schedule.task(edge.dst)) else {
            continue;
        };
        let mem_src = platform.memory_of(src.proc);
        let mem_dst = platform.memory_of(dst.proc);
        if mem_src == mem_dst {
            resident(mem_src, src.start, dst.finish, edge.size);
        } else {
            let (transfer_start, transfer_finish) = match schedule.comm(edge_id) {
                Some(c) => (c.start, c.finish),
                None => (dst.start, dst.start),
            };
            resident(mem_src, src.start, transfer_finish, edge.size);
            resident(mem_dst, transfer_start, dst.finish, edge.size);
        }
    }
    events.map(|mut ev| {
        if ev.is_empty() {
            return Staircase::constant(0.0);
        }
        if let Some(rng) = shuffle.as_deref_mut() {
            rng.shuffle(&mut ev);
        }
        ev.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut bps: Vec<(f64, f64)> = Vec::with_capacity(ev.len() + 1);
        bps.push((0.0, 0.0));
        let mut acc = 0.0;
        for (t, delta) in ev {
            acc += delta;
            let last = bps.last_mut().expect("never empty");
            if approx_eq(last.0, t) {
                last.1 = acc;
            } else {
                bps.push((t, acc));
            }
        }
        Staircase::from_breakpoints(bps)
    })
}

/// The previous `memory_peaks`, verbatim (over the oracle profiles).
fn oracle_peaks(graph: &TaskGraph, platform: &Platform, schedule: &Schedule) -> MemoryPeaks {
    peaks_of(oracle_profiles(graph, platform, schedule))
}

fn peaks_of(profiles: [Staircase; 2]) -> MemoryPeaks {
    MemoryPeaks {
        blue: profiles[Memory::Blue.index()].max_value().max(0.0),
        red: profiles[Memory::Red.index()].max_value().max(0.0),
    }
}

fn bits(points: impl Iterator<Item = (f64, f64)>) -> Vec<(u64, u64)> {
    points.map(|(x, v)| (x.to_bits(), v.to_bits())).collect()
}

/// Asserts bit-identity of peaks and profile breakpoints against the oracle.
fn assert_matches_oracle(graph: &TaskGraph, platform: &Platform, schedule: &Schedule, what: &str) {
    let got = memory_peaks(graph, platform, schedule);
    let want = oracle_peaks(graph, platform, schedule);
    assert_eq!(got.blue.to_bits(), want.blue.to_bits(), "{what}: blue peak");
    assert_eq!(got.red.to_bits(), want.red.to_bits(), "{what}: red peak");
    let got = memory_profiles(graph, platform, schedule);
    let want = oracle_profiles(graph, platform, schedule);
    for mem in Memory::BOTH {
        assert_eq!(
            bits(got[mem.index()].breakpoints()),
            bits(want[mem.index()].breakpoints()),
            "{what}: {mem:?} breakpoints"
        );
    }
}

/// A LargeRandSet DAG of `size` tasks; with `fractional`, every file size
/// is divided by 10, so most sizes are not dyadic fractions.
fn random_dag(size: usize, seed: u64, fractional: bool) -> TaskGraph {
    let mut graph = daggen::generate(
        &DaggenParams::large_rand().with_size(size),
        &WeightRanges::large_rand(),
        &mut Pcg64::new(seed),
    );
    if fractional {
        for edge in graph.edge_ids().collect::<Vec<_>>() {
            graph.edge_mut(edge).size /= 10.0;
        }
    }
    graph
}

/// Checks HEFT, MinMin, MemHEFT and MemMinMin schedules of 200 random DAGs
/// against the oracle; returns how many schedules were checked and on how
/// many a shuffled order of equal-time events changed a peak.
fn check_random_family(fractional: bool) -> (usize, usize) {
    let solvers: [(&str, &dyn Scheduler); 2] = [
        ("memheft", &MemHeft::new()),
        ("memminmin", &MemMinMin::new()),
    ];
    let mut tie_rng = Pcg64::new(0x7135);
    let (mut checked, mut order_sensitive) = (0, 0);
    let mut check = |graph: &TaskGraph, platform: &Platform, schedule: &Schedule, what: &str| {
        assert_matches_oracle(graph, platform, schedule, what);
        let shuffled = peaks_of(tie_shuffled_profiles(
            graph,
            platform,
            schedule,
            Some(&mut tie_rng),
        ));
        let want = oracle_peaks(graph, platform, schedule);
        if (shuffled.blue.to_bits(), shuffled.red.to_bits())
            != (want.blue.to_bits(), want.red.to_bits())
        {
            order_sensitive += 1;
        }
        checked += 1;
    };
    for seed in 0..200u64 {
        let size = 10 + (seed as usize * 7) % 60;
        let graph = random_dag(size, seed, fractional);
        let base = Platform::single_pair(0.0, 0.0);
        let unbounded = base.unbounded();
        for (name, oblivious) in [
            ("heft", Heft::new().schedule(&graph, &unbounded)),
            ("minmin", MinMin::new().schedule(&graph, &unbounded)),
        ] {
            let schedule = oblivious.expect("memory-oblivious solvers cannot fail");
            check(
                &graph,
                &unbounded,
                &schedule,
                &format!("seed {seed} {name}"),
            );
        }
        let heft = Heft::new().schedule(&graph, &unbounded).unwrap();
        let reference = memory_peaks(&graph, &unbounded, &heft).max();
        for alpha in [0.5, 1.0] {
            let bound = alpha * reference;
            let bounded = base.with_memory_bounds(bound, bound);
            for (name, solver) in solvers {
                if let Ok(schedule) = solver.schedule(&graph, &bounded) {
                    let what = format!("seed {seed} {name} alpha {alpha}");
                    check(&graph, &bounded, &schedule, &what);
                }
            }
        }
    }
    (checked, order_sensitive)
}

#[test]
fn random_schedules_match_the_oracle_bit_for_bit() {
    let (checked, _) = check_random_family(false);
    assert!(checked >= 800, "only {checked} schedules checked");
}

#[test]
fn fractional_sizes_match_the_oracle_and_see_the_order() {
    let (checked, order_sensitive) = check_random_family(true);
    assert!(checked >= 800, "only {checked} schedules checked");
    // The family can tell a wrong order of simultaneous events apart: on
    // some schedule, adding them in another order moves a peak's bits.
    assert!(
        order_sensitive > 0,
        "no peak depends on the order of equal-time events"
    );
}

/// A 5 · 10⁴-task DAG has more than 3 · 2¹⁸ edges, so the sweep sorts it in at
/// least four runs and merges them; its HEFT and MemHEFT schedules
/// (fractional sizes) must still match the one-sort oracle. Release builds
/// only (CI's release oracle step runs this suite): the debug build takes
/// about 20 s on it.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "about 20 s in a debug build; run with --release"
)]
fn a_dag_of_several_runs_matches_the_oracle_bit_for_bit() {
    let graph = random_dag(50_000, 0x5EED, true);
    assert!(graph.n_edges() > 3 << 18, "{} edges", graph.n_edges());
    let base = Platform::single_pair(0.0, 0.0);
    let unbounded = base.unbounded();
    let heft = Heft::new().schedule(&graph, &unbounded).unwrap();
    assert_matches_oracle(&graph, &unbounded, &heft, "5·10⁴ tasks, heft");
    let bound = memory_peaks(&graph, &unbounded, &heft).max();
    let bounded = base.with_memory_bounds(bound, bound);
    let memheft = MemHeft::new().schedule(&graph, &bounded).unwrap();
    assert_matches_oracle(&graph, &bounded, &memheft, "5·10⁴ tasks, memheft");
}

/// A two-task chain `a → b` carrying one file of the given size.
fn pair(size: f64) -> (TaskGraph, TaskId, TaskId, EdgeId) {
    let mut g = TaskGraph::new();
    let a = g.add_task("a", 1.0, 1.0);
    let b = g.add_task("b", 1.0, 1.0);
    let e = g.add_edge(a, b, size, 1.0).unwrap();
    (g, a, b, e)
}

fn place(s: &mut Schedule, task: TaskId, proc: usize, start: f64, finish: f64) {
    s.place_task(TaskPlacement {
        task,
        proc,
        start,
        finish,
    });
}

#[test]
fn edge_cases_match_the_oracle_bit_for_bit() {
    let platform = Platform::single_pair(100.0, 100.0);

    // Empty graph: no events on either memory.
    let empty = TaskGraph::new();
    assert_matches_oracle(
        &empty,
        &platform,
        &Schedule::for_graph(&empty),
        "empty graph",
    );

    // Zero-size file.
    let (g, a, b, _) = pair(0.0);
    let mut s = Schedule::for_graph(&g);
    place(&mut s, a, 0, 0.0, 1.0);
    place(&mut s, b, 0, 1.0, 2.0);
    assert_matches_oracle(&g, &platform, &s, "zero-size file");

    // −0.0 start time.
    let (g, a, b, _) = pair(3.0);
    let mut s = Schedule::for_graph(&g);
    place(&mut s, a, 0, -0.0, 1.0);
    place(&mut s, b, 0, 1.0, 2.0);
    assert_matches_oracle(&g, &platform, &s, "-0.0 start");

    // Cross-memory edge with no comm placement.
    let (g, a, b, _) = pair(3.0);
    let mut s = Schedule::for_graph(&g);
    place(&mut s, a, 0, 0.0, 1.0);
    place(&mut s, b, 1, 2.0, 3.0);
    assert_matches_oracle(&g, &platform, &s, "cross-memory, no comm");

    // Cross-memory edge with a comm placement.
    let (g, a, b, e) = pair(3.0);
    let mut s = Schedule::for_graph(&g);
    place(&mut s, a, 0, 0.0, 1.0);
    place(&mut s, b, 1, 2.0, 3.0);
    s.place_comm(CommPlacement {
        edge: e,
        start: 1.0,
        finish: 2.0,
    });
    assert_matches_oracle(&g, &platform, &s, "cross-memory with comm");

    // A fan of files whose intervals start and end at equal times and at
    // times within (and just beyond) the shared tolerance of each other,
    // with sizes chosen so equal-time sums depend on the summation order.
    let mut g = TaskGraph::new();
    let root = g.add_task("root", 1.0, 1.0);
    let sizes = [0.1, 0.2, 0.3, 1e-12, 7.0, 1e16, 1.0, 0.7];
    let offsets = [
        0.0,
        0.0,
        EPSILON / 4.0,
        EPSILON / 2.0,
        2.0 * EPSILON,
        0.0,
        EPSILON,
        3.0,
    ];
    let mut leaves = Vec::new();
    for (i, &size) in sizes.iter().enumerate() {
        let leaf = g.add_task(format!("leaf{i}"), 1.0, 1.0);
        g.add_edge(root, leaf, size, 1.0).unwrap();
        leaves.push(leaf);
    }
    let mut s = Schedule::for_graph(&g);
    place(&mut s, root, 0, 0.0, 1.0);
    for (i, &leaf) in leaves.iter().enumerate() {
        let start = 1.0 + offsets[i];
        place(
            &mut s,
            leaf,
            0,
            start,
            start + 1.0 + offsets[(i + 3) % offsets.len()],
        );
    }
    assert_matches_oracle(&g, &platform, &s, "equal and epsilon-close times");

    // Files leaving at one instant, where the sum depends on the order the
    // equal-time events are applied in (1e16 swallows the small sizes).
    let mut g = TaskGraph::new();
    let root = g.add_task("root", 1.0, 1.0);
    let leaves: Vec<TaskId> = [0.1, 1e16, 0.2, 0.3, 3.0]
        .iter()
        .enumerate()
        .map(|(i, &size)| {
            let leaf = g.add_task(format!("leaf{i}"), 1.0, 1.0);
            g.add_edge(root, leaf, size, 1.0).unwrap();
            leaf
        })
        .collect();
    let mut s = Schedule::for_graph(&g);
    place(&mut s, root, 0, 0.0, 1.0);
    for (i, &leaf) in leaves.iter().enumerate() {
        let finish = if i < 3 { 2.0 } else { 3.0 };
        place(&mut s, leaf, 0, finish - 1.0, finish);
    }
    assert_matches_oracle(&g, &platform, &s, "order-dependent equal-time sums");

    // A file smaller than the tolerance raising the peak: the staircase
    // merges the approx-equal step, so the peak stays at the first value.
    let mut g = TaskGraph::new();
    let (r, b, d, c) = (
        g.add_task("r", 1.0, 1.0),
        g.add_task("b", 1.0, 1.0),
        g.add_task("d", 1.0, 1.0),
        g.add_task("c", 1.0, 1.0),
    );
    g.add_edge(r, b, 1.0, 1.0).unwrap();
    g.add_edge(d, c, EPSILON / 10.0, 1.0).unwrap();
    let mut s = Schedule::for_graph(&g);
    place(&mut s, r, 0, 0.0, 1.0);
    place(&mut s, b, 0, 1.0, 2.0);
    place(&mut s, d, 1, 1.0, 1.5);
    place(&mut s, c, 1, 2.0, 3.0);
    assert_matches_oracle(&g, &platform, &s, "sub-tolerance step above the peak");
    assert_eq!(memory_peaks(&g, &platform, &s).max(), 1.0);
}
