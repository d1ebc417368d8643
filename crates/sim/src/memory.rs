//! Memory-usage replay: reconstructing `BlueMemUsed` / `RedMemUsed` profiles
//! from a schedule.
//!
//! The residency rules of Section 3.2 of the paper are:
//!
//! * the file of an edge `(i, j)` whose endpoints run **in the same memory**
//!   occupies that memory from the start of `i` (it is part of `MemReq(i)`)
//!   until the completion of `j` (it is an input file of `j`, discarded when
//!   `j` finishes);
//! * the file of a **cross-memory** edge occupies the source memory from the
//!   start of `i` until the end of the transfer, and the destination memory
//!   from the start of the transfer until the completion of `j` (during the
//!   transfer it is resident in both memories).
//!
//! The profiles computed here are the ground truth the validator checks
//! against, and they are also used to measure the memory footprint of the
//! memory-oblivious HEFT / MinMin schedules (the paper's normalisation
//! baseline for Figures 10 and 12).

use crate::schedule::Schedule;
use mals_dag::{EdgeId, TaskGraph};
use mals_platform::{Memory, Platform};
use mals_util::{approx_eq, Staircase, EPSILON};

/// Peak memory usage of a schedule on each memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryPeaks {
    /// Peak usage of the blue memory (`M^s_blue(D)` in the paper).
    pub blue: f64,
    /// Peak usage of the red memory (`M^s_red(D)` in the paper).
    pub red: f64,
}

impl MemoryPeaks {
    /// Peak of the given memory.
    pub fn get(&self, mem: Memory) -> f64 {
        match mem {
            Memory::Blue => self.blue,
            Memory::Red => self.red,
        }
    }

    /// The larger of the two peaks — the quantity used to normalise the
    /// memory axis of the experiment figures.
    pub fn max(&self) -> f64 {
        self.blue.max(self.red)
    }
}

/// One `±size` residency event: a file enters (`delta > 0`) or leaves
/// (`delta < 0`) a memory at a time whose order-preserving key is `key`.
#[derive(Clone, Copy)]
struct Event {
    key: u64,
    delta: f64,
}

impl Event {
    fn new(time: f64, delta: f64) -> Self {
        Event {
            key: order_key(time),
            delta,
        }
    }

    fn time(self) -> f64 {
        f64::from_bits(if self.key >> 63 == 1 {
            self.key & !(1 << 63)
        } else {
            !self.key
        })
    }
}

/// Maps `t` to a `u64` whose unsigned order is `f64::total_cmp`'s order
/// (negative values have every bit flipped, the rest only the sign bit).
/// The map is a bijection, so [`Event::time`] restores `t` bit for bit.
fn order_key(t: f64) -> u64 {
    let bits = t.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Edges per sorted run of the residency sweep. Each run's events (at most
/// two per edge) are radix-sorted on their own, through one scratch buffer
/// of at most `2 · RUN_EDGES` events (8 MiB), and the fold merges the runs.
/// A graph with at most this many edges is one run, read as it lies.
const RUN_EDGES: usize = 1 << 18;

/// Stable LSD radix sort of `events` by key: one counting pass per 8-bit
/// digit, skipping the digits every key shares. Being stable and keyed on
/// [`order_key`], it yields exactly the permutation of a stable
/// `sort_by(total_cmp)` on the times. The passes alternate between
/// `events` and `scratch`, which grows to exactly the longest run.
fn radix_sort(events: &mut [Event], scratch: &mut Vec<Event>) {
    let n = events.len();
    let mut counts = [[0usize; 256]; 8];
    for e in events.iter() {
        for (digit, count) in counts.iter_mut().enumerate() {
            count[(e.key >> (8 * digit)) as usize & 0xff] += 1;
        }
    }
    if scratch.len() < n {
        scratch.reserve_exact(n - scratch.len());
        scratch.resize(n, Event { key: 0, delta: 0.0 });
    }
    let scratch = &mut scratch[..n];
    let mut in_scratch = false;
    for (digit, count) in counts.iter().enumerate() {
        if count.contains(&n) {
            continue; // every key has the same byte here: the pass is a no-op
        }
        let mut offsets = [0usize; 256];
        let mut next = 0;
        for (offset, &c) in offsets.iter_mut().zip(count) {
            *offset = next;
            next += c;
        }
        let (from, to) = if in_scratch {
            (&*scratch, &mut *events)
        } else {
            (&*events, &mut *scratch)
        };
        for &e in from {
            let bucket = (e.key >> (8 * digit)) as usize & 0xff;
            to[offsets[bucket]] = e;
            offsets[bucket] += 1;
        }
        in_scratch = !in_scratch;
    }
    if in_scratch {
        events.copy_from_slice(scratch);
    }
}

/// The sweep-line input shared by [`memory_profiles`] and [`memory_peaks`]:
/// one memory's `±size` events, sorted run by run. [`Sweep::fold`] reads
/// them in time order, simultaneous events kept in file order, so the
/// running sum at each time is deterministic.
///
/// One `Sweep` serves blue and then red. Its event buffer is reserved once
/// at 2 events per edge, an upper bound whose untouched tail is never
/// resident, and is never grown; its scratch buffer holds the longest run
/// sorted so far, grown to exact size (doubling, or reserving the bound,
/// left more of the heap resident or made the allocator trim and re-fault
/// it on every call).
struct Sweep {
    events: Vec<Event>,
    scratch: Vec<Event>,
    /// The end of each non-empty run in `events`, in run order.
    run_ends: Vec<usize>,
    run_edges: usize,
}

impl Sweep {
    fn new(graph: &TaskGraph, run_edges: usize) -> Self {
        Sweep {
            events: Vec::with_capacity(2 * graph.n_edges()),
            scratch: Vec::new(),
            run_ends: Vec::new(),
            run_edges,
        }
    }

    /// Replaces the events with those of memory `mem`: the edges are read
    /// in runs of `run_edges` consecutive ids, each run pushed in edge order
    /// and then sorted in place.
    ///
    /// Files whose producer or consumer is not placed are ignored (the
    /// validator reports those as missing-placement errors separately). A
    /// cross-memory edge without a communication placement is treated as if
    /// the transfer happened instantaneously when the consumer starts; again
    /// the validator flags the missing placement itself. The empty-interval
    /// guard matches `Staircase::add_range`.
    fn build(&mut self, graph: &TaskGraph, platform: &Platform, schedule: &Schedule, mem: Memory) {
        self.events.clear();
        self.run_ends.clear();
        let mut first = 0;
        while first < graph.n_edges() {
            let last = first.saturating_add(self.run_edges).min(graph.n_edges());
            let start = self.events.len();
            let mut resident = |from: f64, until: f64, size: f64| {
                let from = from.max(0.0);
                if until <= from + EPSILON {
                    return;
                }
                self.events.push(Event::new(from, size));
                self.events.push(Event::new(until, -size));
            };
            for edge_id in (first..last).map(EdgeId::from_index) {
                let edge = graph.edge(edge_id);
                if edge.size == 0.0 {
                    continue;
                }
                let (Some(src), Some(dst)) = (schedule.task(edge.src), schedule.task(edge.dst))
                else {
                    continue;
                };
                let mem_src = platform.memory_of(src.proc);
                let mem_dst = platform.memory_of(dst.proc);
                if mem_src == mem_dst {
                    if mem_src == mem {
                        resident(src.start, dst.finish, edge.size);
                    }
                } else {
                    let (transfer_start, transfer_finish) = match schedule.comm(edge_id) {
                        Some(c) => (c.start, c.finish),
                        None => (dst.start, dst.start),
                    };
                    if mem_src == mem {
                        resident(src.start, transfer_finish, edge.size);
                    } else {
                        resident(transfer_start, dst.finish, edge.size);
                    }
                }
            }
            if self.events.len() > start {
                radix_sort(&mut self.events[start..], &mut self.scratch);
                self.run_ends.push(self.events.len());
            }
            first = last;
        }
    }

    /// The events in time order, as slices of runs: the runs merged on
    /// `(key, run index)`. Each run is stably sorted in edge order and runs
    /// cover increasing edge ids, so taking equal keys from the lower run
    /// first yields exactly the order of one stable sort of all events, and
    /// the running sums of the fold are bit-identical. A single run comes
    /// out whole, as one slice.
    fn sorted(&self) -> Merge<'_> {
        let runs = self
            .run_ends
            .iter()
            .scan(0, |start, &end| {
                Some(&self.events[std::mem::replace(start, end)..end])
            })
            .collect();
        Merge { runs }
    }

    /// Folds the sorted events into breakpoints (see [`fold_breakpoints`]).
    fn fold(&self, emit: impl FnMut(f64, f64)) {
        fold_breakpoints(self.sorted(), emit);
    }
}

/// A k-way merge of sorted runs that yields the events in slices, so the
/// fold reads them in a plain slice loop. The runs interleave coarsely:
/// each step scans the k run heads for the smallest and the second smallest
/// and yields, found by binary search, every event of the winning run that
/// sorts before the second smallest head. A single run is one step.
struct Merge<'a> {
    /// The unread part of each run.
    runs: Vec<&'a [Event]>,
}

/// An event of run `run` as `key · 2³² + run`, so events of different runs
/// never tie and the lower run sorts first among equal keys.
fn merge_key(e: &Event, run: usize) -> u128 {
    (e.key as u128) << 32 | run as u128
}

impl<'a> Iterator for Merge<'a> {
    type Item = &'a [Event];

    fn next(&mut self) -> Option<&'a [Event]> {
        let (mut first, mut second) = (u128::MAX, u128::MAX);
        for (run, unread) in self.runs.iter().enumerate() {
            let Some(head) = unread.first().map(|e| merge_key(e, run)) else {
                continue;
            };
            if head < first {
                (first, second) = (head, first);
            } else if head < second {
                second = head;
            }
        }
        if first == u128::MAX {
            return None; // every run is read
        }
        let winner = first as u32 as usize;
        let unread = self.runs[winner];
        let (chunk, rest) =
            unread.split_at(unread.partition_point(|e| merge_key(e, winner) < second));
        self.runs[winner] = rest;
        Some(chunk)
    }
}

/// Folds events, given as consecutive slices in sorted order, into
/// breakpoints: the running sum after each event, with event times within the shared tolerance of the open
/// breakpoint collapsing onto it (as `ensure_breakpoint` would snap them).
/// Calls `emit(time, value)` once per breakpoint, left to right, starting
/// with the one at `0`.
fn fold_breakpoints<'a>(slices: impl Iterator<Item = &'a [Event]>, mut emit: impl FnMut(f64, f64)) {
    let (mut open_t, mut open_v) = (0.0, 0.0);
    let mut acc = 0.0;
    for events in slices {
        for &e in events {
            acc += e.delta;
            let t = e.time();
            if approx_eq(open_t, t) {
                open_v = acc;
            } else {
                emit(open_t, open_v);
                (open_t, open_v) = (t, acc);
            }
        }
    }
    emit(open_t, open_v);
}

/// Computes the memory-usage profile of each memory under `schedule`.
///
/// Sweep-line replay: the sorted residency events are bulk-loaded into the
/// staircases left to right — linear in the `E` files after the run
/// sorts, instead of the `O(E · k)` of one `add_range` per file.
pub fn memory_profiles(
    graph: &TaskGraph,
    platform: &Platform,
    schedule: &Schedule,
) -> [Staircase; 2] {
    profiles_in_runs(graph, platform, schedule, RUN_EDGES)
}

/// [`memory_profiles`] with runs of `run_edges` edges (the unit tests
/// drive short runs).
fn profiles_in_runs(
    graph: &TaskGraph,
    platform: &Platform,
    schedule: &Schedule,
    run_edges: usize,
) -> [Staircase; 2] {
    let mut sweep = Sweep::new(graph, run_edges);
    Memory::BOTH.map(|mem| {
        sweep.build(graph, platform, schedule, mem);
        let mut bps: Vec<(f64, f64)> = Vec::with_capacity(sweep.events.len() + 1);
        sweep.fold(|t, v| bps.push((t, v)));
        Staircase::from_breakpoints(bps)
    })
}

/// Computes the peak memory usage of `schedule` on each memory.
///
/// Folds the residency events straight to the maximum instead of building
/// the staircases of [`memory_profiles`]. The result is bit-identical to
/// the profiles' `max_value()`: the fold keeps a breakpoint only when its
/// value is not `approx_eq` to the last kept one, exactly as
/// `Staircase::from_breakpoints` merges them.
pub fn memory_peaks(graph: &TaskGraph, platform: &Platform, schedule: &Schedule) -> MemoryPeaks {
    peaks_in_runs(graph, platform, schedule, RUN_EDGES)
}

/// [`memory_peaks`] with runs of `run_edges` edges.
fn peaks_in_runs(
    graph: &TaskGraph,
    platform: &Platform,
    schedule: &Schedule,
    run_edges: usize,
) -> MemoryPeaks {
    let mut sweep = Sweep::new(graph, run_edges);
    let [blue, red] = Memory::BOTH.map(|mem| {
        sweep.build(graph, platform, schedule, mem);
        let mut kept: Option<f64> = None;
        let mut peak = f64::NEG_INFINITY;
        sweep.fold(|_, v| {
            if !kept.is_some_and(|k| approx_eq(k, v)) {
                kept = Some(v);
                peak = peak.max(v);
            }
        });
        peak.max(0.0)
    });
    MemoryPeaks { blue, red }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{CommPlacement, Schedule, TaskPlacement};
    use mals_dag::TaskId;

    fn dex() -> (TaskGraph, [TaskId; 4]) {
        let mut g = TaskGraph::new();
        let t1 = g.add_task("T1", 3.0, 1.0);
        let t2 = g.add_task("T2", 2.0, 2.0);
        let t3 = g.add_task("T3", 6.0, 3.0);
        let t4 = g.add_task("T4", 1.0, 1.0);
        g.add_edge(t1, t2, 1.0, 1.0).unwrap();
        g.add_edge(t1, t3, 2.0, 1.0).unwrap();
        g.add_edge(t2, t4, 1.0, 1.0).unwrap();
        g.add_edge(t3, t4, 2.0, 1.0).unwrap();
        (g, [t1, t2, t3, t4])
    }

    /// Schedule s1 from Figure 3 of the paper.
    fn s1(g: &TaskGraph, [t1, t2, t3, t4]: [TaskId; 4]) -> Schedule {
        let mut s = Schedule::for_graph(g);
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
        let e12 = g.edge_between(t1, t2).unwrap();
        let e24 = g.edge_between(t2, t4).unwrap();
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
    fn paper_example_memory_peaks() {
        // The paper states: s1 uses a peak of 2 units of blue memory and 5
        // units of red memory.
        let (g, t) = dex();
        let s = s1(&g, t);
        let platform = Platform::single_pair(5.0, 5.0);
        let peaks = memory_peaks(&g, &platform, &s);
        assert_eq!(peaks.blue, 2.0);
        assert_eq!(peaks.red, 5.0);
        assert_eq!(peaks.max(), 5.0);
        assert_eq!(peaks.get(Memory::Blue), 2.0);
        assert_eq!(peaks.get(Memory::Red), 5.0);
    }

    #[test]
    fn paper_example_per_task_usage() {
        // Usage of the red memory while each task runs, per Section 3.2:
        // T1 -> 3, T3 -> 5, T4 -> 3; blue while T2 runs -> 2.
        let (g, t) = dex();
        let s = s1(&g, t);
        let platform = Platform::single_pair(5.0, 5.0);
        let profiles = memory_profiles(&g, &platform, &s);
        let red = &profiles[Memory::Red.index()];
        let blue = &profiles[Memory::Blue.index()];
        assert_eq!(red.max_over(0.0, 1.0), 3.0); // during T1
        assert_eq!(red.max_over(1.0, 4.0), 5.0); // during T3
        assert_eq!(red.max_over(5.0, 6.0), 3.0); // during T4
        assert_eq!(blue.max_over(2.0, 4.0), 2.0); // during T2
    }

    #[test]
    fn same_memory_schedule_uses_single_memory() {
        let (g, [t1, t2, t3, t4]) = dex();
        let mut s = Schedule::for_graph(&g);
        // Everything on the blue processor, sequentially.
        s.place_task(TaskPlacement {
            task: t1,
            proc: 0,
            start: 0.0,
            finish: 3.0,
        });
        s.place_task(TaskPlacement {
            task: t2,
            proc: 0,
            start: 3.0,
            finish: 5.0,
        });
        s.place_task(TaskPlacement {
            task: t3,
            proc: 0,
            start: 5.0,
            finish: 11.0,
        });
        s.place_task(TaskPlacement {
            task: t4,
            proc: 0,
            start: 11.0,
            finish: 12.0,
        });
        let platform = Platform::single_pair(10.0, 10.0);
        let peaks = memory_peaks(&g, &platform, &s);
        assert_eq!(peaks.red, 0.0);
        // All four files coexist between the start of T2's output production
        // and the completion of T2... the peak is F12+F13+F24+F34 at the
        // moment T2 runs? F12 lives [0,5), F13 [0,11), F24 [3,12), F34 [5,12):
        // on [3,5) usage = 1+2+1 = 4; on [5,11) = 2+1+2 = 5. Peak = 5.
        assert_eq!(peaks.blue, 5.0);
    }

    #[test]
    fn zero_size_files_do_not_count() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 1.0, 1.0);
        let b = g.add_task("b", 1.0, 1.0);
        g.add_edge(a, b, 0.0, 0.0).unwrap();
        let mut s = Schedule::for_graph(&g);
        s.place_task(TaskPlacement {
            task: a,
            proc: 0,
            start: 0.0,
            finish: 1.0,
        });
        s.place_task(TaskPlacement {
            task: b,
            proc: 0,
            start: 1.0,
            finish: 2.0,
        });
        let platform = Platform::single_pair(10.0, 10.0);
        let peaks = memory_peaks(&g, &platform, &s);
        assert_eq!(peaks.blue, 0.0);
        assert_eq!(peaks.red, 0.0);
    }

    #[test]
    fn incomplete_schedule_ignores_unplaced_endpoints() {
        let (g, [t1, ..]) = dex();
        let mut s = Schedule::for_graph(&g);
        s.place_task(TaskPlacement {
            task: t1,
            proc: 0,
            start: 0.0,
            finish: 3.0,
        });
        let platform = Platform::single_pair(10.0, 10.0);
        let peaks = memory_peaks(&g, &platform, &s);
        assert_eq!(peaks.blue, 0.0);
    }

    #[test]
    fn cross_memory_transfer_occupies_both_memories() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 1.0, 1.0);
        let b = g.add_task("b", 1.0, 1.0);
        let e = g.add_edge(a, b, 4.0, 2.0).unwrap();
        let mut s = Schedule::for_graph(&g);
        s.place_task(TaskPlacement {
            task: a,
            proc: 0,
            start: 0.0,
            finish: 1.0,
        });
        s.place_task(TaskPlacement {
            task: b,
            proc: 1,
            start: 5.0,
            finish: 6.0,
        });
        s.place_comm(CommPlacement {
            edge: e,
            start: 2.0,
            finish: 4.0,
        });
        let platform = Platform::single_pair(10.0, 10.0);
        let profiles = memory_profiles(&g, &platform, &s);
        let blue = &profiles[Memory::Blue.index()];
        let red = &profiles[Memory::Red.index()];
        // Blue holds the file from the start of `a` until the transfer ends.
        assert_eq!(blue.value_at(0.5), 4.0);
        assert_eq!(blue.value_at(3.0), 4.0);
        assert_eq!(blue.value_at(4.5), 0.0);
        // Red holds it from the start of the transfer until `b` completes.
        assert_eq!(red.value_at(1.0), 0.0);
        assert_eq!(red.value_at(3.0), 4.0);
        assert_eq!(red.value_at(5.5), 4.0);
        assert_eq!(red.value_at(6.5), 0.0);
    }

    /// Memory `mem`'s events in the order the fold reads them, as bits.
    fn fold_order(
        g: &TaskGraph,
        platform: &Platform,
        s: &Schedule,
        mem: Memory,
        run_edges: usize,
    ) -> Vec<(u64, u64)> {
        let mut sweep = Sweep::new(g, run_edges);
        sweep.build(g, platform, s, mem);
        sweep
            .sorted()
            .flatten()
            .map(|e| (e.key, e.delta.to_bits()))
            .collect()
    }

    /// Memory `mem`'s breakpoints as the fold emits them, as bits.
    fn fold_breakpoint_bits(
        g: &TaskGraph,
        platform: &Platform,
        s: &Schedule,
        mem: Memory,
        run_edges: usize,
    ) -> Vec<(u64, u64)> {
        let mut sweep = Sweep::new(g, run_edges);
        sweep.build(g, platform, s, mem);
        let mut bps = Vec::new();
        sweep.fold(|t, v| bps.push((t.to_bits(), v.to_bits())));
        bps
    }

    /// Runs of 1, 2, 3 and 7 edges read the events in the one-run order
    /// and give bit-identical breakpoints and peaks, and profiles too when
    /// no time is NaN (a NaN breakpoint is out of order for a staircase).
    fn assert_runs_match_one_run(g: &TaskGraph, platform: &Platform, s: &Schedule, what: &str) {
        let peaks = peaks_in_runs(g, platform, s, usize::MAX);
        let has_nan = Memory::BOTH.iter().any(|&mem| {
            fold_order(g, platform, s, mem, usize::MAX)
                .iter()
                .any(|&(key, _)| Event { key, delta: 0.0 }.time().is_nan())
        });
        let profiles = (!has_nan).then(|| profiles_in_runs(g, platform, s, usize::MAX));
        for run_edges in [1, 2, 3, 7] {
            let what = format!("{what}, runs of {run_edges}");
            for mem in Memory::BOTH {
                assert_eq!(
                    fold_order(g, platform, s, mem, run_edges),
                    fold_order(g, platform, s, mem, usize::MAX),
                    "{what}: {mem:?} event order"
                );
                assert_eq!(
                    fold_breakpoint_bits(g, platform, s, mem, run_edges),
                    fold_breakpoint_bits(g, platform, s, mem, usize::MAX),
                    "{what}: {mem:?} breakpoints"
                );
            }
            let got = peaks_in_runs(g, platform, s, run_edges);
            assert_eq!(got.blue.to_bits(), peaks.blue.to_bits(), "{what}: blue");
            assert_eq!(got.red.to_bits(), peaks.red.to_bits(), "{what}: red");
            let Some(profiles) = &profiles else {
                continue;
            };
            let got = profiles_in_runs(g, platform, s, run_edges);
            for mem in Memory::BOTH {
                let bits = |p: &Staircase| -> Vec<(u64, u64)> {
                    p.breakpoints()
                        .map(|(x, v)| (x.to_bits(), v.to_bits()))
                        .collect()
                };
                assert_eq!(
                    bits(&got[mem.index()]),
                    bits(&profiles[mem.index()]),
                    "{what}: {mem:?} profile"
                );
            }
        }
    }

    #[test]
    fn runs_match_one_run_on_random_schedules() {
        // Times on a half-unit grid, so many events share a key, and
        // non-dyadic sizes, so the running sums depend on their order.
        let sizes = [0.0, 0.1, 0.2, 0.3, 1.0 / 3.0, 0.7, 1e16, 2.5];
        for seed in 0..60u64 {
            let mut rng = mals_util::Pcg64::new(seed);
            let n = rng.uniform_usize(2, 30);
            let mut g = TaskGraph::new();
            let tasks: Vec<TaskId> = (0..n)
                .map(|i| g.add_task(format!("t{i}"), 1.0, 1.0))
                .collect();
            for i in 0..n {
                for j in i + 1..n {
                    if rng.bernoulli(0.3) {
                        let size = *rng.choose(&sizes).unwrap();
                        g.add_edge(tasks[i], tasks[j], size, 1.0).unwrap();
                    }
                }
            }
            let grid = |rng: &mut mals_util::Pcg64| rng.uniform_usize(0, 12) as f64 / 2.0;
            let mut s = Schedule::for_graph(&g);
            for &task in &tasks {
                if rng.bernoulli(0.05) {
                    continue; // unplaced
                }
                let start = grid(&mut rng) - 1.0; // some negative starts
                s.place_task(TaskPlacement {
                    task,
                    proc: rng.uniform_usize(0, 1),
                    start,
                    finish: start + grid(&mut rng),
                });
            }
            for edge in g.edge_ids() {
                if rng.bernoulli(0.6) {
                    let start = grid(&mut rng);
                    s.place_comm(CommPlacement {
                        edge,
                        start,
                        finish: start + grid(&mut rng),
                    });
                }
            }
            let platform = Platform::single_pair(100.0, 100.0);
            assert_runs_match_one_run(&g, &platform, &s, &format!("seed {seed}"));
        }
    }

    #[test]
    fn runs_match_one_run_on_hand_made_schedules() {
        let platform = Platform::single_pair(100.0, 100.0);

        // The paper's s1 (placed transfers across both memories).
        let (g, t) = dex();
        assert_runs_match_one_run(&g, &platform, &s1(&g, t), "s1");

        // A fan of files: NaN and −NaN finishes, negative starts, a
        // zero-size file, an unplaced consumer, cross-memory files without
        // a transfer, and equal keys in every run at every run length.
        let mut g = TaskGraph::new();
        let root = g.add_task("root", 1.0, 1.0);
        let sizes = [0.1, 0.2, 0.3, 0.0, 1e16, 0.1, 0.7, 1.0 / 3.0, 0.2, 0.3];
        let leaves: Vec<TaskId> = sizes
            .iter()
            .enumerate()
            .map(|(i, &size)| {
                let leaf = g.add_task(format!("leaf{i}"), 1.0, 1.0);
                g.add_edge(root, leaf, size, 1.0).unwrap();
                leaf
            })
            .collect();
        let mut s = Schedule::for_graph(&g);
        s.place_task(TaskPlacement {
            task: root,
            proc: 0,
            start: -2.0,
            finish: 1.0,
        });
        let finishes = [2.0, 2.0, f64::NAN, 2.0, 3.0, -f64::NAN, 2.0, 3.0, 2.0];
        for (i, (&leaf, &finish)) in leaves.iter().zip(&finishes).enumerate() {
            s.place_task(TaskPlacement {
                task: leaf,
                proc: i % 3 / 2, // every third leaf on the red processor
                start: 1.0,
                finish,
            });
        }
        // (the last leaf stays unplaced)
        assert_runs_match_one_run(&g, &platform, &s, "fan");

        // NaN starts on both sides of a transfer.
        let mut g = TaskGraph::new();
        let (a, b, c) = (
            g.add_task("a", 1.0, 1.0),
            g.add_task("b", 1.0, 1.0),
            g.add_task("c", 1.0, 1.0),
        );
        let ab = g.add_edge(a, b, 0.1, 1.0).unwrap();
        g.add_edge(a, c, 0.2, 1.0).unwrap();
        g.add_edge(b, c, 0.3, 1.0).unwrap();
        let mut s = Schedule::for_graph(&g);
        for (task, proc, start) in [(a, 0, f64::NAN), (b, 1, 2.0), (c, 0, -f64::NAN)] {
            s.place_task(TaskPlacement {
                task,
                proc,
                start,
                finish: 4.0,
            });
        }
        s.place_comm(CommPlacement {
            edge: ab,
            start: f64::NAN,
            finish: 2.0,
        });
        assert_runs_match_one_run(&g, &platform, &s, "NaN starts");
    }

    #[test]
    fn equal_keys_across_a_run_boundary_keep_edge_order() {
        // Six files that all arrive at 0 and leave at 1: with runs of 2 or
        // 3 edges every boundary separates equal keys, and the sum of the
        // non-dyadic sizes depends on the order they are added in.
        let mut g = TaskGraph::new();
        let root = g.add_task("root", 1.0, 1.0);
        for (i, size) in [0.1, 1e16, 0.2, 0.3, 0.1, 0.7].into_iter().enumerate() {
            let leaf = g.add_task(format!("leaf{i}"), 1.0, 1.0);
            g.add_edge(root, leaf, size, 1.0).unwrap();
        }
        let mut s = Schedule::for_graph(&g);
        for task in g.task_ids() {
            s.place_task(TaskPlacement {
                task,
                proc: 0,
                start: 0.0,
                finish: 1.0,
            });
        }
        let platform = Platform::single_pair(100.0, 100.0);
        let order = fold_order(&g, &platform, &s, Memory::Blue, 2);
        let deltas: Vec<f64> = order.iter().map(|&(_, d)| f64::from_bits(d)).collect();
        assert_eq!(
            deltas,
            [0.1, 1e16, 0.2, 0.3, 0.1, 0.7, -0.1, -1e16, -0.2, -0.3, -0.1, -0.7]
        );
        assert_runs_match_one_run(&g, &platform, &s, "equal keys");
    }
}
