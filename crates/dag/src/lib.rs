//! Task-graph substrate for memory-aware list scheduling.
//!
//! The paper (*Memory-aware list scheduling for hybrid platforms*, Herrmann,
//! Marchal, Robert, 2014) models an application as a Directed Acyclic Graph
//! `D = (V, E)` where:
//!
//! * each task `i ∈ V` has two processing times — `W⁽¹⁾_i` on a *blue*
//!   processor (CPU-side) and `W⁽²⁾_i` on a *red* processor (accelerator),
//! * each edge `(i, j) ∈ E` carries a data file of size `F_{i,j}` that must
//!   reside in memory from the start of `i` until the completion of `j`, and
//!   costs `C_{i,j}` time units to copy across memories when `i` and `j`
//!   execute on different sides of the platform.
//!
//! This crate provides that DAG as a standalone, dependency-free data
//! structure plus the graph algorithms the schedulers need: topological
//! orders, reachability, levels, critical paths, the HEFT *upward rank*, DOT
//! export and structural validation.
//!
//! # Example
//!
//! ```
//! use mals_dag::TaskGraph;
//!
//! // The toy DAG D_ex of Figure 2 in the paper.
//! let mut g = TaskGraph::new();
//! let t1 = g.add_task("T1", 3.0, 1.0);
//! let t2 = g.add_task("T2", 2.0, 2.0);
//! let t3 = g.add_task("T3", 6.0, 3.0);
//! let t4 = g.add_task("T4", 1.0, 1.0);
//! g.add_edge(t1, t2, 1.0, 1.0).unwrap();
//! g.add_edge(t1, t3, 2.0, 1.0).unwrap();
//! g.add_edge(t2, t4, 1.0, 1.0).unwrap();
//! g.add_edge(t3, t4, 2.0, 1.0).unwrap();
//!
//! assert_eq!(g.n_tasks(), 4);
//! assert_eq!(g.mem_req(t3), 2.0 + 2.0); // F_{1,3} + F_{3,4}
//! assert!(g.validate().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod builder;
pub mod dot;
pub mod error;
pub mod graph;
pub mod ids;
pub mod rank;
pub mod serialize;
pub mod stats;

pub use builder::{BuildError, GraphBuilder};
pub use error::GraphError;
pub use graph::{EdgeData, TaskData, TaskGraph};
pub use ids::{EdgeId, TaskId};
pub use rank::{downward_ranks, mean_work, upward_ranks};
pub use stats::{graph_stats, GraphStats};
