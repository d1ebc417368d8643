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
use mals_dag::TaskGraph;
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

/// Stable LSD radix sort of `events` by key: one counting pass per 8-bit
/// digit, skipping the digits every key shares. Being stable and keyed on
/// [`order_key`], it yields exactly the permutation of a stable
/// `sort_by(total_cmp)` on the times.
fn radix_sort(events: &mut Vec<Event>) {
    let mut counts = [[0usize; 256]; 8];
    for e in events.iter() {
        for (digit, count) in counts.iter_mut().enumerate() {
            count[(e.key >> (8 * digit)) as usize & 0xff] += 1;
        }
    }
    let mut scratch = vec![Event { key: 0, delta: 0.0 }; events.len()];
    for (digit, count) in counts.iter().enumerate() {
        if count.contains(&events.len()) {
            continue; // every key has the same byte here: the pass is a no-op
        }
        let mut offsets = [0usize; 256];
        let mut next = 0;
        for (offset, &c) in offsets.iter_mut().zip(count) {
            *offset = next;
            next += c;
        }
        for &e in events.iter() {
            let bucket = (e.key >> (8 * digit)) as usize & 0xff;
            scratch[offsets[bucket]] = e;
            offsets[bucket] += 1;
        }
        std::mem::swap(events, &mut scratch);
    }
}

/// The sweep-line input shared by [`memory_profiles`] and [`memory_peaks`]:
/// `±size` events per memory (indexed by [`Memory::index`]), sorted by time
/// with simultaneous events kept in file order, so the running sum at each
/// time is deterministic.
///
/// Files whose producer or consumer is not placed are ignored (the validator
/// reports those as missing-placement errors separately). A cross-memory edge
/// without a communication placement is treated as if the transfer happened
/// instantaneously when the consumer starts; again the validator flags the
/// missing placement itself. The empty-interval guard matches
/// `Staircase::add_range`.
fn residency_events(
    graph: &TaskGraph,
    platform: &Platform,
    schedule: &Schedule,
) -> [Vec<Event>; 2] {
    let mut events: [Vec<Event>; 2] = [Vec::new(), Vec::new()];
    let mut resident = |mem: Memory, from: f64, until: f64, size: f64| {
        let from = from.max(0.0);
        if until <= from + EPSILON {
            return;
        }
        events[mem.index()].push(Event::new(from, size));
        events[mem.index()].push(Event::new(until, -size));
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
    for ev in &mut events {
        radix_sort(ev);
    }
    events
}

/// Folds sorted events into breakpoints: the running sum after each event,
/// with event times within the shared tolerance of the open breakpoint
/// collapsing onto it (as `ensure_breakpoint` would snap them). Calls
/// `emit(time, value)` once per breakpoint, left to right, starting with
/// the one at `0`.
fn fold_breakpoints(events: &[Event], mut emit: impl FnMut(f64, f64)) {
    let (mut open_t, mut open_v) = (0.0, 0.0);
    let mut acc = 0.0;
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
    emit(open_t, open_v);
}

/// Computes the memory-usage profile of each memory under `schedule`.
///
/// Sweep-line replay: the sorted residency events are bulk-loaded into the
/// staircases left to right — linear in the `E` files after the radix
/// sort, instead of the `O(E · k)` of one `add_range` per file.
pub fn memory_profiles(
    graph: &TaskGraph,
    platform: &Platform,
    schedule: &Schedule,
) -> [Staircase; 2] {
    residency_events(graph, platform, schedule).map(|ev| {
        let mut bps: Vec<(f64, f64)> = Vec::with_capacity(ev.len() + 1);
        fold_breakpoints(&ev, |t, v| bps.push((t, v)));
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
    let peak = |ev: &[Event]| {
        let mut kept: Option<f64> = None;
        let mut peak = f64::NEG_INFINITY;
        fold_breakpoints(ev, |_, v| {
            if !kept.is_some_and(|k| approx_eq(k, v)) {
                kept = Some(v);
                peak = peak.max(v);
            }
        });
        peak.max(0.0)
    };
    let events = residency_events(graph, platform, schedule);
    MemoryPeaks {
        blue: peak(&events[Memory::Blue.index()]),
        red: peak(&events[Memory::Red.index()]),
    }
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
}
