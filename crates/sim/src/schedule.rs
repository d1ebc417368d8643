//! The schedule data structure: `(σ, τ, proc)` of the paper.

use mals_dag::{EdgeId, TaskGraph, TaskId};
use mals_platform::{Memory, Platform, ProcId};

/// Placement of one task: which processor runs it and when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskPlacement {
    /// The task.
    pub task: TaskId,
    /// Processor executing the task (`proc(i)` in the paper).
    pub proc: ProcId,
    /// Starting time `σ(i)`.
    pub start: f64,
    /// Completion time `σ(i) + W_i`.
    pub finish: f64,
}

impl TaskPlacement {
    /// Duration of the placement.
    pub fn duration(&self) -> f64 {
        self.finish - self.start
    }
}

/// Placement of one cross-memory communication: when the file of an edge is
/// copied from one memory to the other.
///
/// Only edges whose endpoints run on different memories have a communication
/// placement; same-memory edges communicate instantaneously in the model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommPlacement {
    /// The edge whose file is transferred.
    pub edge: EdgeId,
    /// Starting time `τ(i, j)`.
    pub start: f64,
    /// Completion time `τ(i, j) + C_{i,j}`.
    pub finish: f64,
}

impl CommPlacement {
    /// Duration of the transfer.
    pub fn duration(&self) -> f64 {
        self.finish - self.start
    }
}

/// A (possibly partial) schedule of a task graph on a dual-memory platform.
///
/// Transfers are stored per edge as a bare `(start, finish)` pair, 16 bytes,
/// plus one presence bit: the edge id is the slot's index. A slot that was
/// never placed keeps `(0, 0)`, so the derived equality compares placed
/// transfers only.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    tasks: Vec<Option<TaskPlacement>>,
    comm_times: Vec<(f64, f64)>,
    /// Bit `e % 64` of word `e / 64` is set when edge `e` has a transfer.
    comm_placed: Vec<u64>,
}

impl Schedule {
    /// Creates an empty schedule for a graph with `n_tasks` tasks and
    /// `n_edges` edges.
    pub fn empty(n_tasks: usize, n_edges: usize) -> Self {
        Schedule {
            tasks: vec![None; n_tasks],
            comm_times: vec![(0.0, 0.0); n_edges],
            comm_placed: vec![0; n_edges.div_ceil(64)],
        }
    }

    /// Creates an empty schedule sized for `graph`.
    pub fn for_graph(graph: &TaskGraph) -> Self {
        Schedule::empty(graph.n_tasks(), graph.n_edges())
    }

    /// Records the placement of a task (overwrites any previous placement).
    pub fn place_task(&mut self, placement: TaskPlacement) {
        self.tasks[placement.task.index()] = Some(placement);
    }

    /// Records the placement of a cross-memory communication.
    pub fn place_comm(&mut self, placement: CommPlacement) {
        let e = placement.edge.index();
        self.comm_times[e] = (placement.start, placement.finish);
        self.comm_placed[e / 64] |= 1 << (e % 64);
    }

    /// Placement of `task`, if it has been scheduled.
    #[inline]
    pub fn task(&self, task: TaskId) -> Option<&TaskPlacement> {
        self.tasks[task.index()].as_ref()
    }

    /// Placement of the communication on `edge`, if any.
    #[inline]
    pub fn comm(&self, edge: EdgeId) -> Option<CommPlacement> {
        let e = edge.index();
        let (start, finish) = self.comm_times[e];
        (self.comm_placed[e / 64] >> (e % 64) & 1 == 1).then_some(CommPlacement {
            edge,
            start,
            finish,
        })
    }

    /// Number of tasks already placed.
    pub fn n_placed(&self) -> usize {
        self.tasks.iter().filter(|p| p.is_some()).count()
    }

    /// Number of task slots (the size of the graph the schedule was created
    /// for, placed or not).
    pub fn n_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of edge slots.
    pub fn n_edges(&self) -> usize {
        self.comm_times.len()
    }

    /// Returns `true` if every task of `graph` has a placement.
    pub fn is_complete(&self, graph: &TaskGraph) -> bool {
        graph.n_tasks() == self.n_placed() && self.tasks.len() == graph.n_tasks()
    }

    /// Iterates over the task placements recorded so far.
    pub fn task_placements(&self) -> impl Iterator<Item = &TaskPlacement> {
        self.tasks.iter().filter_map(|p| p.as_ref())
    }

    /// Iterates over the communication placements recorded so far, in edge
    /// order.
    pub fn comm_placements(&self) -> impl Iterator<Item = CommPlacement> + '_ {
        (0..self.n_edges()).filter_map(|e| self.comm(EdgeId::from_index(e)))
    }

    /// The memory on which `task` executes under `platform`, if placed.
    pub fn memory_of(&self, platform: &Platform, task: TaskId) -> Option<Memory> {
        self.task(task).map(|p| platform.memory_of(p.proc))
    }

    /// Returns `true` if the endpoints of `edge` are placed on different
    /// memories (so the edge requires a transfer).
    pub fn is_cross_memory(
        &self,
        graph: &TaskGraph,
        platform: &Platform,
        edge: EdgeId,
    ) -> Option<bool> {
        let e = graph.edge(edge);
        let src = self.memory_of(platform, e.src)?;
        let dst = self.memory_of(platform, e.dst)?;
        Some(src != dst)
    }

    /// The makespan: completion time of the last placed task (0 for an empty
    /// schedule).
    pub fn makespan(&self) -> f64 {
        self.task_placements().map(|p| p.finish).fold(0.0, f64::max)
    }

    /// Number of tasks placed on each memory `(blue, red)`.
    pub fn memory_assignment_counts(&self, platform: &Platform) -> (usize, usize) {
        let mut blue = 0;
        let mut red = 0;
        for p in self.task_placements() {
            match platform.memory_of(p.proc) {
                Memory::Blue => blue += 1,
                Memory::Red => red += 1,
            }
        }
        (blue, red)
    }

    /// Total time spent in cross-memory transfers.
    pub fn total_comm_time(&self) -> f64 {
        self.comm_placements().map(|c| c.duration()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The schedule s1 of Figure 3 of the paper (P1 = P2 = 1; proc 0 is the
    /// blue processor, proc 1 the red one).
    pub(crate) fn s1(g: &TaskGraph, t: [TaskId; 4]) -> Schedule {
        let [t1, t2, t3, t4] = t;
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
        // Communications: (T1,T2) crosses red -> blue, (T2,T4) blue -> red.
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
    fn makespan_of_s1_is_six() {
        let (g, t) = dex();
        let s = s1(&g, t);
        assert_eq!(s.makespan(), 6.0);
        assert!(s.is_complete(&g));
        assert_eq!(s.n_placed(), 4);
    }

    #[test]
    fn memory_assignment_of_s1() {
        let (g, t) = dex();
        let s = s1(&g, t);
        let platform = Platform::single_pair(5.0, 5.0);
        assert_eq!(s.memory_of(&platform, t[0]), Some(Memory::Red));
        assert_eq!(s.memory_of(&platform, t[1]), Some(Memory::Blue));
        assert_eq!(s.memory_assignment_counts(&platform), (1, 3));
    }

    #[test]
    fn cross_memory_detection() {
        let (g, t) = dex();
        let s = s1(&g, t);
        let platform = Platform::single_pair(5.0, 5.0);
        let e12 = g.edge_between(t[0], t[1]).unwrap();
        let e13 = g.edge_between(t[0], t[2]).unwrap();
        assert_eq!(s.is_cross_memory(&g, &platform, e12), Some(true));
        assert_eq!(s.is_cross_memory(&g, &platform, e13), Some(false));
    }

    #[test]
    fn empty_schedule_properties() {
        let (g, _) = dex();
        let s = Schedule::for_graph(&g);
        assert_eq!(s.makespan(), 0.0);
        assert_eq!(s.n_placed(), 0);
        assert!(!s.is_complete(&g));
        assert_eq!(s.total_comm_time(), 0.0);
        assert!(s.task(TaskId::from_index(0)).is_none());
    }

    #[test]
    fn total_comm_time_of_s1() {
        let (g, t) = dex();
        let s = s1(&g, t);
        assert_eq!(s.total_comm_time(), 2.0);
    }

    #[test]
    fn comm_presence_takes_part_in_equality() {
        let (g, t) = dex();
        let s = s1(&g, t);
        assert_eq!(s, s.clone());
        // A transfer at the times an unplaced slot holds differs from no
        // transfer at all.
        let e13 = g.edge_between(t[0], t[2]).unwrap();
        let mut with = s.clone();
        with.place_comm(CommPlacement {
            edge: e13,
            start: 0.0,
            finish: 0.0,
        });
        assert_ne!(s, with);
        assert_eq!(
            with.comm(e13).map(|c| (c.start, c.finish)),
            Some((0.0, 0.0))
        );
        assert_eq!(s.comm(e13), None);
    }

    #[test]
    fn comm_placements_come_in_edge_order() {
        let mut s = Schedule::empty(0, 130);
        for e in [129, 3, 64, 63] {
            s.place_comm(CommPlacement {
                edge: EdgeId::from_index(e),
                start: e as f64,
                finish: e as f64 + 1.0,
            });
        }
        let placed: Vec<_> = s
            .comm_placements()
            .map(|c| (c.edge.index(), c.start))
            .collect();
        assert_eq!(placed, [(3, 3.0), (63, 63.0), (64, 64.0), (129, 129.0)]);
        assert_eq!(s.n_edges(), 130);
    }

    #[test]
    fn placement_durations() {
        let p = TaskPlacement {
            task: TaskId::from_index(0),
            proc: 0,
            start: 2.0,
            finish: 5.0,
        };
        assert_eq!(p.duration(), 3.0);
        let c = CommPlacement {
            edge: EdgeId::from_index(0),
            start: 1.0,
            finish: 2.5,
        };
        assert_eq!(c.duration(), 1.5);
    }
}
