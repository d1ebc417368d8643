//! Dual-memory hybrid platform model.
//!
//! The paper targets a node made of two pools of identical processors, each
//! pool attached to its own memory (Figure 1 of the paper):
//!
//! * `P1` **blue** processors sharing the blue memory of capacity `M⁽ᵇˡᵘᵉ⁾`
//!   (think: the multicore CPU and its RAM), and
//! * `P2` **red** processors sharing the red memory of capacity `M⁽ʳᵉᵈ⁾`
//!   (think: the GPU/FPGA accelerator and its device memory).
//!
//! This crate describes such platforms ([`Platform`], [`Memory`]) and
//! provides the two bookkeeping structures that every scheduler in the
//! workspace shares:
//!
//! * [`ProcessorState`] — per-processor earliest-availability times, and
//! * [`MemoryState`] — per-memory `free_mem(t)` staircase profiles with the
//!   reservation / release operations of the paper's memory model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mem_state;
pub mod memory;
pub mod platform;
pub mod proc_state;

pub use mem_state::{MemoryBatch, MemoryState};
pub use memory::Memory;
pub use platform::{Platform, PlatformError, ProcId};
pub use proc_state::ProcessorState;
