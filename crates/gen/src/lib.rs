//! Workload generators for the memory-aware scheduling experiments.
//!
//! The paper evaluates its heuristics on four DAG sets (Section 6.1):
//!
//! * **SmallRandSet** — 50 random DAGs of 30 tasks generated with DAGGEN
//!   (`width = 0.3`, `density = 0.5`, `jumps = 5`), weights in `[1, 20]`,
//!   file sizes / communication costs in `[1, 10]`;
//! * **LargeRandSet** — 100 random DAGs of 1000 tasks with the same shape
//!   parameters and weights in `[1, 100]`;
//! * **LUSet** — task graphs of the tiled LU factorisation;
//! * **CholeskySet** — task graphs of the tiled Cholesky factorisation, both
//!   using the kernel timings of Table 1 measured on the *mirage* node.
//!
//! This crate reimplements all four generators from scratch:
//!
//! * [`daggen`] — a layered random-DAG generator with the DAGGEN parameters
//!   (`size`, `width`, `density`, `jumps`);
//! * [`linalg`] — tiled LU and Cholesky task-graph builders with the Table 1
//!   kernel-cost model and the broadcast pipelines of fictitious tasks the
//!   paper adds to fit its single-file-per-edge model;
//! * [`toy`] — the 4-task example `D_ex` of Figure 2;
//! * [`sets`] — the four experiment DAG sets with their documented seeds;
//! * [`arrival`] — seed-driven arrival processes (Poisson, bursty, at-once)
//!   that release a graph's tasks along a virtual timeline as replayable
//!   [`ArrivalTrace`]s for the online scheduling layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod daggen;
pub mod linalg;
pub mod sets;
pub mod shapes;
pub mod toy;

pub use arrival::{exponential_gap, ArrivalEvent, ArrivalProcess, ArrivalTrace, TraceError};
pub use daggen::{DaggenParams, WeightRanges};
pub use linalg::{cholesky_dag, lu_dag, KernelCosts};
pub use sets::{cholesky_set, large_rand_set, lu_set, small_rand_set, SetParams};
pub use shapes::{binary_in_tree, chain, fork_join, ShapeWeights};
pub use toy::dex;
