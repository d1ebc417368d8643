//! Schedule representation, validation and memory-usage replay.
//!
//! A *schedule* in the paper is a triple `(σ, τ, proc)`: task starting times,
//! communication starting times and the task → processor mapping. This crate
//! provides:
//!
//! * [`Schedule`] — the concrete representation produced by every scheduler
//!   in the workspace (placements for tasks and for cross-memory
//!   communications);
//! * [`validate()`] — an independent checker for the three families of
//!   constraints of Section 3 of the paper (flow dependencies, resource
//!   exclusivity, memory capacity), which replays the file-residency rules to
//!   compute the actual memory peaks;
//! * [`memory::memory_profiles`] — the replay itself, reusable to measure the
//!   memory footprint of memory-oblivious schedules (needed to normalise the
//!   experiment figures by HEFT's memory usage);
//! * [`gantt`] — human-readable Gantt / trace rendering of schedules;
//! * [`report`] — JSON serialisation of schedules and validation verdicts
//!   for the solver-service surface (`SolveRequest` / `SolveReport`).

#![warn(missing_docs)]

pub mod gantt;
pub mod memory;
pub mod replay;
pub mod report;
pub mod schedule;
pub mod validate;

pub use memory::{memory_peaks, memory_profiles, MemoryPeaks};
pub use replay::{execution_stats, ExecutionStats, MemoryStats, ProcessorStats};
pub use report::{
    peaks_from_json, peaks_to_json, schedule_from_json, schedule_to_json, validation_to_json,
    write_schedule_json, ReportError,
};
pub use schedule::{CommPlacement, Schedule, TaskPlacement};
pub use validate::{validate, ValidationError, ValidationReport};
