//! Shared utilities for the MALS (Memory-Aware List Scheduling) workspace.
//!
//! This crate deliberately has **no external dependencies** so that every
//! simulation in the workspace is reproducible bit-for-bit from a seed on any
//! platform. It provides:
//!
//! * [`rng`] — a small, fast, deterministic PCG-family random number
//!   generator used by the workload generators and the experiment campaigns.
//! * [`stats`] — summary statistics (mean, standard deviation, percentiles,
//!   confidence intervals) used when aggregating campaign results.
//! * [`staircase`] — piecewise-constant functions of time, the data structure
//!   behind the `free_mem` availability profiles of the memory-aware
//!   heuristics in the paper (Section 5.1).
//! * [`pool`] — a scoped parallel map, used to spread whole solves over
//!   threads: the DAGs of a campaign, the bounds of a sweep and the members
//!   of a portfolio race.
//! * [`float`] — tolerant floating-point comparison helpers and a total-order
//!   wrapper.
//! * [`json`] — a dependency-free JSON value type (parser + emitter) backing
//!   the solver-service request/report surface.
//! * [`streaming`] — constant-memory aggregation (Welford accumulators and a
//!   fixed-grid quantile sketch) for campaigns too large to hold their
//!   per-instance results, with bit-exact JSON checkpointing.
//! * [`cancel`] — cooperative cancellation primitives ([`CancelToken`],
//!   [`Deadline`], [`CancelSignal`]) polled by the anytime solvers and the
//!   portfolio racer.
//! * [`clock`] — the [`Clock`] seam between wall time ([`SystemClock`]) and
//!   the manually advanced [`VirtualClock`] driving the online replay
//!   simulator.
//! * [`frame`] — newline-delimited frame I/O (size-capped, timeout-tolerant)
//!   for the persistent scheduling daemon's wire protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod chunked;
pub mod clock;
pub mod float;
pub mod frame;
pub mod json;
pub mod pool;
pub mod rng;
pub mod staircase;
pub mod stats;
pub mod streaming;

pub use cancel::{CancelSignal, CancelToken, Deadline};
pub use chunked::ChunkedIndexSet;
pub use clock::{Clock, SystemClock, VirtualClock};
pub use float::{approx_eq, approx_ge, approx_le, F64Ord, EPSILON};
pub use frame::{write_frame, FrameError, FrameReader, DEFAULT_MAX_FRAME_BYTES};
pub use json::{IoSink, Json, JsonError, JsonReader, JsonWriter};
pub use pool::{parallel_map, parallel_map_indexed, ParallelConfig};
pub use rng::Pcg64;
pub use staircase::{Staircase, StaircaseBatch};
pub use stats::{OnlineStats, Summary};
pub use streaming::QuantileSketch;
