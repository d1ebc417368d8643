//! The task-graph data structure.
//!
//! [`TaskGraph`] is an arena-based DAG: tasks and edges live in flat vectors
//! and are referenced through [`TaskId`] / [`EdgeId`] indices, with
//! per-task incoming / outgoing adjacency lists. This layout keeps the hot
//! loops of the schedulers (EST evaluation over parents and children) free of
//! pointer chasing and hashing.

use crate::error::GraphError;
use crate::ids::{EdgeId, TaskId};

/// Per-task data: a human-readable name and the two processing times.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskData {
    /// Human-readable label (used in DOT exports and traces).
    pub name: String,
    /// Processing time `W⁽¹⁾` on a blue (CPU-side) processor.
    pub work_blue: f64,
    /// Processing time `W⁽²⁾` on a red (accelerator-side) processor.
    pub work_red: f64,
}

impl TaskData {
    /// Processing time on the resource selected by `blue`.
    #[inline]
    pub fn work_on(&self, blue: bool) -> f64 {
        if blue {
            self.work_blue
        } else {
            self.work_red
        }
    }

    /// Mean of the two processing times, used by the upward-rank priority.
    #[inline]
    pub fn mean_work(&self) -> f64 {
        0.5 * (self.work_blue + self.work_red)
    }

    /// The smaller of the two processing times (used by lower bounds).
    #[inline]
    pub fn min_work(&self) -> f64 {
        self.work_blue.min(self.work_red)
    }

    /// The larger of the two processing times.
    #[inline]
    pub fn max_work(&self) -> f64 {
        self.work_blue.max(self.work_red)
    }
}

/// Per-edge data: endpoints, file size and cross-memory transfer time.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeData {
    /// Producing task.
    pub src: TaskId,
    /// Consuming task.
    pub dst: TaskId,
    /// Size `F_{i,j}` of the file carried by this dependency.
    pub size: f64,
    /// Time `C_{i,j}` needed to copy the file across memories.
    pub comm_cost: f64,
}

/// A directed acyclic task graph with dual processing times and data files on
/// edges (the application model of Section 3 of the paper).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskGraph {
    tasks: Vec<TaskData>,
    edges: Vec<EdgeData>,
    out_edges: Vec<Vec<EdgeId>>,
    in_edges: Vec<Vec<EdgeId>>,
}

impl TaskGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        TaskGraph::default()
    }

    /// Creates an empty graph with pre-allocated capacity.
    pub fn with_capacity(tasks: usize, edges: usize) -> Self {
        TaskGraph {
            tasks: Vec::with_capacity(tasks),
            edges: Vec::with_capacity(edges),
            out_edges: Vec::with_capacity(tasks),
            in_edges: Vec::with_capacity(tasks),
        }
    }

    /// Assembles a graph from already-validated parts (the
    /// [`crate::builder::GraphBuilder`] fast path).
    pub(crate) fn from_parts(
        tasks: Vec<TaskData>,
        edges: Vec<EdgeData>,
        out_edges: Vec<Vec<EdgeId>>,
        in_edges: Vec<Vec<EdgeId>>,
    ) -> Self {
        debug_assert_eq!(tasks.len(), out_edges.len());
        debug_assert_eq!(tasks.len(), in_edges.len());
        TaskGraph {
            tasks,
            edges,
            out_edges,
            in_edges,
        }
    }

    /// Number of tasks `|V|`.
    #[inline]
    pub fn n_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of edges `|E|`.
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Adds a task with processing times `work_blue` / `work_red` and returns
    /// its id.
    pub fn add_task(&mut self, name: impl Into<String>, work_blue: f64, work_red: f64) -> TaskId {
        let id = TaskId::from_index(self.tasks.len());
        self.tasks.push(TaskData {
            name: name.into(),
            work_blue,
            work_red,
        });
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        id
    }

    /// Adds a dependency edge `src → dst` carrying a file of size `size` with
    /// cross-memory transfer time `comm_cost`.
    ///
    /// Rejects self loops, duplicate edges, unknown endpoints and negative
    /// weights. Adding an edge cannot create a cycle detection eagerly; call
    /// [`TaskGraph::validate`] (or any traversal) to check acyclicity.
    pub fn add_edge(
        &mut self,
        src: TaskId,
        dst: TaskId,
        size: f64,
        comm_cost: f64,
    ) -> Result<EdgeId, GraphError> {
        if src.index() >= self.tasks.len() {
            return Err(GraphError::UnknownTask(src));
        }
        if dst.index() >= self.tasks.len() {
            return Err(GraphError::UnknownTask(dst));
        }
        if src == dst {
            return Err(GraphError::SelfLoop(src));
        }
        if !(size.is_finite() && size >= 0.0 && comm_cost.is_finite() && comm_cost >= 0.0) {
            return Err(GraphError::InvalidEdgeWeight(src, dst));
        }
        if self.edge_between(src, dst).is_some() {
            return Err(GraphError::DuplicateEdge(src, dst));
        }
        let id = EdgeId::from_index(self.edges.len());
        self.edges.push(EdgeData {
            src,
            dst,
            size,
            comm_cost,
        });
        self.out_edges[src.index()].push(id);
        self.in_edges[dst.index()].push(id);
        Ok(id)
    }

    /// Returns the task data for `id`.
    #[inline]
    pub fn task(&self, id: TaskId) -> &TaskData {
        &self.tasks[id.index()]
    }

    /// Returns a mutable reference to the task data for `id`.
    #[inline]
    pub fn task_mut(&mut self, id: TaskId) -> &mut TaskData {
        &mut self.tasks[id.index()]
    }

    /// Returns the edge data for `id`.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &EdgeData {
        &self.edges[id.index()]
    }

    /// Returns a mutable reference to the edge data for `id`.
    #[inline]
    pub fn edge_mut(&mut self, id: EdgeId) -> &mut EdgeData {
        &mut self.edges[id.index()]
    }

    /// Iterates over all task ids in arena order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len()).map(TaskId::from_index)
    }

    /// Iterates over all edge ids in arena order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len()).map(EdgeId::from_index)
    }

    /// Edges leaving `id` (files produced by `id`).
    #[inline]
    pub fn out_edges(&self, id: TaskId) -> &[EdgeId] {
        &self.out_edges[id.index()]
    }

    /// Edges entering `id` (files consumed by `id`).
    #[inline]
    pub fn in_edges(&self, id: TaskId) -> &[EdgeId] {
        &self.in_edges[id.index()]
    }

    /// Children (immediate successors) of `id`.
    pub fn children(&self, id: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.out_edges[id.index()]
            .iter()
            .map(move |&e| self.edges[e.index()].dst)
    }

    /// Parents (immediate predecessors) of `id`.
    pub fn parents(&self, id: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.in_edges[id.index()]
            .iter()
            .map(move |&e| self.edges[e.index()].src)
    }

    /// Number of parents of `id`.
    #[inline]
    pub fn in_degree(&self, id: TaskId) -> usize {
        self.in_edges[id.index()].len()
    }

    /// Number of children of `id`.
    #[inline]
    pub fn out_degree(&self, id: TaskId) -> usize {
        self.out_edges[id.index()].len()
    }

    /// Returns the edge `src → dst` if it exists.
    pub fn edge_between(&self, src: TaskId, dst: TaskId) -> Option<EdgeId> {
        self.out_edges
            .get(src.index())?
            .iter()
            .copied()
            .find(|&e| self.edges[e.index()].dst == dst)
    }

    /// Tasks with no parents (graph entry points).
    pub fn sources(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|&t| self.in_degree(t) == 0)
            .collect()
    }

    /// Tasks with no children (graph exit points).
    pub fn sinks(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|&t| self.out_degree(t) == 0)
            .collect()
    }

    /// Total size of the input files of `id` (`Σ_{j ∈ Parents(i)} F_{j,i}`).
    pub fn input_size(&self, id: TaskId) -> f64 {
        self.in_edges[id.index()]
            .iter()
            .map(|&e| self.edges[e.index()].size)
            .sum()
    }

    /// Total size of the output files of `id` (`Σ_{j ∈ Children(i)} F_{i,j}`).
    pub fn output_size(&self, id: TaskId) -> f64 {
        self.out_edges[id.index()]
            .iter()
            .map(|&e| self.edges[e.index()].size)
            .sum()
    }

    /// Memory requirement `MemReq(i)` of the paper: the memory hosting task
    /// `i` must simultaneously contain all its input and output files.
    pub fn mem_req(&self, id: TaskId) -> f64 {
        self.input_size(id) + self.output_size(id)
    }

    /// The largest `MemReq(i)` over all tasks — a trivial lower bound on the
    /// memory needed by *any* schedule that may run every task on either
    /// side.
    pub fn max_mem_req(&self) -> f64 {
        self.task_ids().map(|t| self.mem_req(t)).fold(0.0, f64::max)
    }

    /// Sum of all file sizes (an upper bound on any memory peak).
    pub fn total_file_size(&self) -> f64 {
        self.edges.iter().map(|e| e.size).sum()
    }

    /// Sum of blue processing times over all tasks.
    pub fn total_work_blue(&self) -> f64 {
        self.tasks.iter().map(|t| t.work_blue).sum()
    }

    /// Sum of red processing times over all tasks.
    pub fn total_work_red(&self) -> f64 {
        self.tasks.iter().map(|t| t.work_red).sum()
    }

    /// Sum of the smaller processing time of every task (used by makespan
    /// lower bounds).
    pub fn total_min_work(&self) -> f64 {
        self.tasks.iter().map(|t| t.min_work()).sum()
    }

    /// Sum of all cross-memory communication costs.
    pub fn total_comm_cost(&self) -> f64 {
        self.edges.iter().map(|e| e.comm_cost).sum()
    }

    /// The `M_max` horizon of the ILP formulation:
    /// `Σ W⁽¹⁾ + Σ W⁽²⁾ + Σ C` — no valid schedule can exceed this makespan.
    pub fn makespan_horizon(&self) -> f64 {
        self.total_work_blue() + self.total_work_red() + self.total_comm_cost()
    }

    /// Structural validation: finite non-negative weights, finite totals
    /// ([`TaskGraph::makespan_horizon`] and [`TaskGraph::total_file_size`])
    /// and acyclicity.
    pub fn validate(&self) -> Result<(), GraphError> {
        for id in self.task_ids() {
            let t = self.task(id);
            if !(t.work_blue.is_finite()
                && t.work_blue >= 0.0
                && t.work_red.is_finite()
                && t.work_red >= 0.0)
            {
                return Err(GraphError::InvalidWeight(id));
            }
        }
        if !(self.makespan_horizon().is_finite() && self.total_file_size().is_finite()) {
            return Err(GraphError::WeightOverflow);
        }
        // Acyclicity via Kahn's algorithm.
        crate::algo::topological_order(self).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the toy DAG D_ex of Figure 2 of the paper.
    pub(crate) fn dex() -> (TaskGraph, [TaskId; 4]) {
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

    #[test]
    fn build_and_query_dex() {
        let (g, [t1, t2, t3, t4]) = dex();
        assert_eq!(g.n_tasks(), 4);
        assert_eq!(g.n_edges(), 4);
        assert_eq!(g.sources(), vec![t1]);
        assert_eq!(g.sinks(), vec![t4]);
        assert_eq!(g.children(t1).collect::<Vec<_>>(), vec![t2, t3]);
        assert_eq!(g.parents(t4).collect::<Vec<_>>(), vec![t2, t3]);
        assert_eq!(g.in_degree(t1), 0);
        assert_eq!(g.out_degree(t1), 2);
        assert_eq!(g.task(t1).work_blue, 3.0);
        assert_eq!(g.task(t1).work_red, 1.0);
    }

    #[test]
    fn mem_req_matches_paper_example() {
        let (g, [_, _, t3, _]) = dex();
        // MemReq(T3) = F_{1,3} + F_{3,4} = 2 + 2 = 4 (paper, Section 3.2).
        assert_eq!(g.mem_req(t3), 4.0);
    }

    #[test]
    fn input_output_sizes() {
        let (g, [t1, t2, _, t4]) = dex();
        assert_eq!(g.input_size(t1), 0.0);
        assert_eq!(g.output_size(t1), 3.0);
        assert_eq!(g.input_size(t2), 1.0);
        assert_eq!(g.output_size(t2), 1.0);
        assert_eq!(g.input_size(t4), 3.0);
        assert_eq!(g.output_size(t4), 0.0);
    }

    #[test]
    fn aggregate_quantities() {
        let (g, _) = dex();
        assert_eq!(g.total_work_blue(), 12.0);
        assert_eq!(g.total_work_red(), 7.0);
        assert_eq!(g.total_min_work(), 1.0 + 2.0 + 3.0 + 1.0);
        assert_eq!(g.total_comm_cost(), 4.0);
        assert_eq!(g.total_file_size(), 6.0);
        assert_eq!(g.makespan_horizon(), 12.0 + 7.0 + 4.0);
        assert_eq!(g.max_mem_req(), 4.0);
    }

    #[test]
    fn rejects_self_loop() {
        let mut g = TaskGraph::new();
        let t = g.add_task("a", 1.0, 1.0);
        assert_eq!(g.add_edge(t, t, 1.0, 1.0), Err(GraphError::SelfLoop(t)));
    }

    #[test]
    fn rejects_duplicate_edge() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 1.0, 1.0);
        let b = g.add_task("b", 1.0, 1.0);
        g.add_edge(a, b, 1.0, 1.0).unwrap();
        assert_eq!(
            g.add_edge(a, b, 2.0, 2.0),
            Err(GraphError::DuplicateEdge(a, b))
        );
    }

    #[test]
    fn rejects_unknown_task() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 1.0, 1.0);
        let ghost = TaskId::from_index(10);
        assert_eq!(
            g.add_edge(a, ghost, 1.0, 1.0),
            Err(GraphError::UnknownTask(ghost))
        );
        assert_eq!(
            g.add_edge(ghost, a, 1.0, 1.0),
            Err(GraphError::UnknownTask(ghost))
        );
    }

    #[test]
    fn rejects_negative_edge_weights() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 1.0, 1.0);
        let b = g.add_task("b", 1.0, 1.0);
        assert!(matches!(
            g.add_edge(a, b, -1.0, 1.0),
            Err(GraphError::InvalidEdgeWeight(_, _))
        ));
        assert!(matches!(
            g.add_edge(a, b, 1.0, f64::NAN),
            Err(GraphError::InvalidEdgeWeight(_, _))
        ));
    }

    #[test]
    fn validate_rejects_negative_work() {
        let mut g = TaskGraph::new();
        let t = g.add_task("a", -1.0, 1.0);
        assert_eq!(g.validate(), Err(GraphError::InvalidWeight(t)));
    }

    #[test]
    fn validate_rejects_weights_whose_sums_overflow() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 1e308, 1e308);
        let b = g.add_task("b", 1e308, 1e308);
        g.add_edge(a, b, 1e308, 1e308).unwrap();
        assert_eq!(g.validate(), Err(GraphError::WeightOverflow));
        // Files alone can overflow too.
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 1.0, 1.0);
        let b = g.add_task("b", 1.0, 1.0);
        let c = g.add_task("c", 1.0, 1.0);
        g.add_edge(a, b, f64::MAX, 0.0).unwrap();
        g.add_edge(a, c, f64::MAX, 0.0).unwrap();
        assert_eq!(g.validate(), Err(GraphError::WeightOverflow));
        g.edge_mut(EdgeId::from_index(1)).size = 0.0;
        assert!(g.validate().is_ok());
    }

    #[test]
    fn zero_cost_tasks_are_allowed() {
        // The linear-algebra generators insert zero-cost broadcast tasks.
        let mut g = TaskGraph::new();
        let a = g.add_task("broadcast", 0.0, 0.0);
        let b = g.add_task("b", 1.0, 1.0);
        g.add_edge(a, b, 0.0, 0.0).unwrap();
        assert!(g.validate().is_ok());
    }

    #[test]
    fn edge_between_lookup() {
        let (g, [t1, t2, t3, t4]) = dex();
        assert!(g.edge_between(t1, t2).is_some());
        assert!(g.edge_between(t2, t1).is_none());
        assert!(g.edge_between(t1, t4).is_none());
        let e = g.edge_between(t3, t4).unwrap();
        assert_eq!(g.edge(e).size, 2.0);
    }

    #[test]
    fn task_and_edge_mutation() {
        let (mut g, [t1, ..]) = dex();
        g.task_mut(t1).work_blue = 9.0;
        assert_eq!(g.task(t1).work_blue, 9.0);
        let e = g.edge_ids().next().unwrap();
        g.edge_mut(e).size = 5.0;
        assert_eq!(g.edge(e).size, 5.0);
    }

    #[test]
    fn work_on_and_mean() {
        let t = TaskData {
            name: "x".into(),
            work_blue: 3.0,
            work_red: 1.0,
        };
        assert_eq!(t.work_on(true), 3.0);
        assert_eq!(t.work_on(false), 1.0);
        assert_eq!(t.mean_work(), 2.0);
        assert_eq!(t.min_work(), 1.0);
        assert_eq!(t.max_work(), 3.0);
    }

    #[test]
    fn empty_graph() {
        let g = TaskGraph::new();
        assert!(g.is_empty());
        assert_eq!(g.sources(), Vec::<TaskId>::new());
        assert_eq!(g.max_mem_req(), 0.0);
        assert!(g.validate().is_ok());
    }
}
