//! Flat, two-phase graph construction for large generated DAGs.
//!
//! [`TaskGraph::add_edge`] is the right API for hand-built graphs: it
//! validates every edge eagerly (duplicate detection by scanning the source's
//! adjacency list) and grows the per-task adjacency vectors one push at a
//! time. For generated workloads in the 10⁴–10⁵-task range both habits hurt:
//! duplicate scans make edge insertion `O(out-degree)`, and 2·|V| adjacency
//! vectors each reallocate several times.
//!
//! [`GraphBuilder`] accumulates tasks and edge records in flat vectors (CSR
//! style: just `(src, dst, size, comm)` rows) and assembles the final
//! [`TaskGraph`] in one pass: count the degrees, allocate every adjacency
//! list at its exact final capacity, fill. Validation (bounds, weights,
//! self-loops, duplicates) happens once, in `O(|V| + |E|)`, at
//! [`GraphBuilder::build`] time, and reports the same first error as
//! incremental insertion would.
//!
//! A graph built this way is [`PartialEq`]-identical to one built
//! incrementally with the same task and edge order: edge ids are insertion
//! ids, and adjacency lists hold them in insertion order either way.

use crate::error::GraphError;
use crate::graph::{EdgeData, TaskData, TaskGraph};
use crate::ids::{EdgeId, TaskId};

/// Accumulates tasks and edges in flat storage; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    tasks: Vec<TaskData>,
    edges: Vec<EdgeData>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        GraphBuilder::default()
    }

    /// Creates an empty builder with pre-allocated capacity.
    pub fn with_capacity(tasks: usize, edges: usize) -> Self {
        GraphBuilder {
            tasks: Vec::with_capacity(tasks),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Number of tasks added so far.
    pub fn n_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of edges added so far.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds a task and returns its id (same contract as
    /// [`TaskGraph::add_task`]).
    pub fn add_task(&mut self, name: impl Into<String>, work_blue: f64, work_red: f64) -> TaskId {
        let id = TaskId::from_index(self.tasks.len());
        self.tasks.push(TaskData {
            name: name.into(),
            work_blue,
            work_red,
        });
        id
    }

    /// Records a dependency edge `src → dst`. Validation is deferred to
    /// [`GraphBuilder::build`].
    pub fn add_edge(&mut self, src: TaskId, dst: TaskId, size: f64, comm_cost: f64) {
        self.edges.push(EdgeData {
            src,
            dst,
            size,
            comm_cost,
        });
    }

    /// Assembles the graph: validates every record with the rules of
    /// [`TaskGraph::add_edge`] (known endpoints, no self-loops, finite
    /// non-negative weights, no duplicate edges), then builds the adjacency
    /// lists at their exact final sizes. `O(|V| + |E|)`, with no hashing.
    ///
    /// The error is the one incremental insertion would hit first: the
    /// earliest failing edge in insertion order, with its index, and within
    /// that edge the first check [`TaskGraph::add_edge`] fails.
    ///
    /// Acyclicity is *not* checked here (matching the incremental API);
    /// call [`TaskGraph::validate`] for that.
    pub fn build(self) -> Result<TaskGraph, BuildError> {
        let n = self.tasks.len();
        // Every check but the duplicate one looks at a single record, so
        // the first record failing one of them bounds the prefix that can
        // hold the first duplicate.
        let mut first_bad = None;
        let mut out_degree = vec![0u32; n];
        let mut in_degree = vec![0u32; n];
        for (i, edge) in self.edges.iter().enumerate() {
            let error = if edge.src.index() >= n {
                GraphError::UnknownTask(edge.src)
            } else if edge.dst.index() >= n {
                GraphError::UnknownTask(edge.dst)
            } else if edge.src == edge.dst {
                GraphError::SelfLoop(edge.src)
            } else if !(edge.size.is_finite()
                && edge.size >= 0.0
                && edge.comm_cost.is_finite()
                && edge.comm_cost >= 0.0)
            {
                GraphError::InvalidEdgeWeight(edge.src, edge.dst)
            } else {
                out_degree[edge.src.index()] += 1;
                in_degree[edge.dst.index()] += 1;
                continue;
            };
            first_bad = Some(BuildError { edge: i, error });
            break;
        }
        let valid = first_bad.as_ref().map_or(self.edges.len(), |e| e.edge);
        let mut out_edges: Vec<Vec<EdgeId>> = out_degree
            .iter()
            .map(|&d| Vec::with_capacity(d as usize))
            .collect();
        let mut in_edges: Vec<Vec<EdgeId>> = in_degree
            .iter()
            .map(|&d| Vec::with_capacity(d as usize))
            .collect();
        for (i, edge) in self.edges[..valid].iter().enumerate() {
            let id = EdgeId::from_index(i);
            out_edges[edge.src.index()].push(id);
            in_edges[edge.dst.index()].push(id);
        }
        // Duplicates: walk each destination's in-edges (insertion order) and
        // stamp every source seen; a source already stamped for this
        // destination is a repeat of an earlier edge. The earliest repeat
        // over all destinations is the one insertion would reject first.
        let mut stamp = vec![u32::MAX; n];
        let mut first_duplicate = valid;
        for (dst, in_list) in in_edges.iter().enumerate() {
            for &id in in_list {
                let src = self.edges[id.index()].src.index();
                if stamp[src] == dst as u32 {
                    first_duplicate = first_duplicate.min(id.index());
                    // Any later repeat into `dst` comes later in the list.
                    break;
                }
                stamp[src] = dst as u32;
            }
        }
        if first_duplicate < valid {
            let i = first_duplicate;
            let edge = &self.edges[i];
            return Err(BuildError {
                edge: i,
                error: GraphError::DuplicateEdge(edge.src, edge.dst),
            });
        }
        if let Some(error) = first_bad {
            return Err(error);
        }
        Ok(TaskGraph::from_parts(
            self.tasks, self.edges, out_edges, in_edges,
        ))
    }
}

/// The edge record [`GraphBuilder::build`] rejects: its insertion index
/// and the error [`TaskGraph::add_edge`] would have raised for it.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildError {
    /// Insertion index of the edge (its would-be [`EdgeId`]).
    pub edge: usize,
    /// Why it was rejected.
    pub error: GraphError,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "edge {}: {}", self.edge, self.error)
    }
}

impl std::error::Error for BuildError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn incremental_reference() -> TaskGraph {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 1.0, 2.0);
        let b = g.add_task("b", 3.0, 4.0);
        let c = g.add_task("c", 5.0, 6.0);
        g.add_edge(a, b, 1.0, 0.5).unwrap();
        g.add_edge(a, c, 2.0, 0.25).unwrap();
        g.add_edge(b, c, 3.0, 0.75).unwrap();
        g
    }

    #[test]
    fn built_graph_equals_incremental_construction() {
        let mut builder = GraphBuilder::with_capacity(3, 3);
        let a = builder.add_task("a", 1.0, 2.0);
        let b = builder.add_task("b", 3.0, 4.0);
        let c = builder.add_task("c", 5.0, 6.0);
        builder.add_edge(a, b, 1.0, 0.5);
        builder.add_edge(a, c, 2.0, 0.25);
        builder.add_edge(b, c, 3.0, 0.75);
        let built = builder.build().unwrap();
        assert_eq!(built, incremental_reference());
    }

    #[test]
    fn rejects_what_add_edge_rejects() {
        let bad_endpoint = {
            let mut b = GraphBuilder::new();
            let a = b.add_task("a", 1.0, 1.0);
            b.add_edge(a, TaskId::from_index(9), 1.0, 1.0);
            b.build()
        };
        assert!(matches!(
            bad_endpoint,
            Err(BuildError {
                edge: 0,
                error: GraphError::UnknownTask(_)
            })
        ));

        let self_loop = {
            let mut b = GraphBuilder::new();
            let a = b.add_task("a", 1.0, 1.0);
            b.add_edge(a, a, 1.0, 1.0);
            b.build()
        };
        assert!(matches!(
            self_loop.map_err(|e| e.error),
            Err(GraphError::SelfLoop(_))
        ));

        let duplicate = {
            let mut b = GraphBuilder::new();
            let a = b.add_task("a", 1.0, 1.0);
            let c = b.add_task("c", 1.0, 1.0);
            b.add_edge(a, c, 1.0, 1.0);
            b.add_edge(a, c, 2.0, 2.0);
            b.build()
        };
        assert!(matches!(
            duplicate,
            Err(BuildError {
                edge: 1,
                error: GraphError::DuplicateEdge(_, _)
            })
        ));

        let negative = {
            let mut b = GraphBuilder::new();
            let a = b.add_task("a", 1.0, 1.0);
            let c = b.add_task("c", 1.0, 1.0);
            b.add_edge(a, c, -1.0, 1.0);
            b.build()
        };
        assert!(matches!(
            negative.map_err(|e| e.error),
            Err(GraphError::InvalidEdgeWeight(_, _))
        ));
    }

    /// Random edge lists with injected faults: `build` must equal incremental
    /// insertion, down to the error and the index of the edge raising it.
    #[test]
    fn build_matches_incremental_insertion_with_faults() {
        let mut rng = mals_util::Pcg64::new(0xB17D);
        let mut errors_seen = 0;
        for round in 0..400 {
            let n = rng.uniform_usize(1, 12);
            let mut builder = GraphBuilder::new();
            let mut graph = TaskGraph::new();
            for t in 0..n {
                builder.add_task(format!("t{t}"), 1.0, 2.0);
                graph.add_task(format!("t{t}"), 1.0, 2.0);
            }
            let mut expected = Ok(());
            for i in 0..rng.uniform_usize(0, 30) {
                let mut src = rng.uniform_usize(0, n - 1);
                let mut dst = rng.uniform_usize(0, n - 1);
                let mut size = rng.uniform_f64(0.0, 5.0);
                let mut comm = rng.uniform_f64(0.0, 5.0);
                // Rare faults, so the first one sits anywhere in the list
                // (duplicates also arise on their own from the small ids).
                match rng.uniform_usize(0, 40) {
                    0 => src = n + rng.uniform_usize(0, 3),
                    1 => dst = n + rng.uniform_usize(0, 3),
                    2 => dst = src,
                    3 => size = f64::NAN,
                    4 => comm = -1.0,
                    5 => size = f64::INFINITY,
                    _ => {}
                }
                let (s, d) = (TaskId::from_index(src), TaskId::from_index(dst));
                builder.add_edge(s, d, size, comm);
                if expected.is_ok() {
                    if let Err(error) = graph.add_edge(s, d, size, comm) {
                        expected = Err(BuildError { edge: i, error });
                    }
                }
            }
            match (builder.build(), expected) {
                (Ok(built), Ok(())) => assert_eq!(built, graph, "round {round}"),
                (Err(got), Err(want)) => {
                    assert_eq!(got, want, "round {round}");
                    errors_seen += 1;
                }
                (got, want) => panic!("round {round}: built {got:?}, incremental {want:?}"),
            }
        }
        assert!(errors_seen > 100, "{errors_seen} faulty lists");
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new().build().unwrap();
        assert!(g.is_empty());
        assert_eq!(g.n_edges(), 0);
    }

    #[test]
    fn adjacency_capacity_is_exact() {
        let mut b = GraphBuilder::new();
        let hub = b.add_task("hub", 1.0, 1.0);
        let leaves: Vec<_> = (0..64)
            .map(|i| b.add_task(format!("l{i}"), 1.0, 1.0))
            .collect();
        for &leaf in &leaves {
            b.add_edge(hub, leaf, 1.0, 1.0);
        }
        let g = b.build().unwrap();
        assert_eq!(g.out_degree(hub), 64);
        for &leaf in &leaves {
            assert_eq!(g.in_degree(leaf), 1);
            assert_eq!(g.parents(leaf).next(), Some(hub));
        }
    }
}
