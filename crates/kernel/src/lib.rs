//! The kernel facade: one object tying the VFS, network, memory, and
//! process substrates together under a single per-fix configuration.
//!
//! The paper's "patched kernel, PK" is stock Linux 2.6.35-rc5 plus "a set
//! of 16 scalability improvements" (§1, Figure 1). [`KernelConfig`]
//! exposes each of the 16 as an independent toggle — [`FixId`] enumerates
//! them, [`FIXES`] carries the Figure-1 metadata (problem, solution,
//! affected applications) — and lowers them onto the substrate configs.
//! [`Kernel`] assembles the substrates and offers a syscall-shaped
//! surface plus one snapshot of every subsystem's counters.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod config;
mod error;
mod fixes;
mod kernel;
mod obs;
pub mod procfs;

pub use config::{KernelConfig, Personality};
pub use error::KernelError;
pub use fixes::{
    fix_for_class, App, Fix, FixId, FIXES, GEN2_FIXES, LINES_ADDED, LINES_REMOVED, NUM_FIXES,
};
pub use kernel::Kernel;
