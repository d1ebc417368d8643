//! Campaign harness reproducing the evaluation section of the paper.
//!
//! Every table and figure of Section 6 has a corresponding entry point here
//! and a thin binary under `src/bin/` that prints the regenerated series as
//! CSV (the paper plots them with matplotlib; the *shape* of the series —
//! who wins, where the heuristics start failing — is what `EXPERIMENTS.md`
//! records and compares):
//!
//! | Paper artefact | Module function | Binary |
//! |---|---|---|
//! | Table 1 (kernel timings) | [`table1::rows`] | `table1` |
//! | Figure 10 (SmallRandSet vs optimal) | [`figures::fig10`] | `fig10` |
//! | Figure 11 (single small DAG) | [`figures::fig11`] | `fig11` |
//! | Figure 12 (LargeRandSet) | [`figures::fig12`] | `fig12` |
//! | Figure 13 (single large DAG) | [`figures::fig13`] | `fig13` |
//! | Figure 14 (LU 13×13) | [`figures::fig14`] | `fig14` |
//! | Figure 15 (Cholesky 13×13) | [`figures::fig15`] | `fig15` |
//!
//! The default configurations are scaled down so that every binary and every
//! benchmark completes in seconds on a laptop; the `--full` flag of each
//! binary restores the paper's instance sizes. The scaling is always printed,
//! never silent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod cli;
pub mod csv;
pub mod daemon;
pub mod figures;
pub mod loadgen;
pub mod min_memory;
pub mod service;
pub mod sweep;
pub mod table1;

pub use campaign::{
    run_normalized_campaign, run_streaming_campaign, CampaignAccumulator, CampaignConfig,
    CampaignIo, CampaignPoint, CampaignRun, MethodAggregate,
};
pub use daemon::{Daemon, DaemonConfig, DaemonHandle};
pub use loadgen::{run_loadgen, LoadgenConfig, LoadgenReport};
pub use min_memory::{minimum_memory, minimum_memory_table, MinMemory};
pub use service::{
    example_request, generated_request, CodedError, ErrorCode, MemberOutcome, Service,
    ServiceError, SolveReport, SolveRequest, PROTOCOL_VERSION,
};
pub use sweep::{
    heft_baseline, heft_reference, sweep_absolute, HeftBaseline, Reference, SweepPoint,
};
